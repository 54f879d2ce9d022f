import numpy as np
import pytest
import scipy.sparse.linalg as spla

import tosca
from tosca import baselines
from tosca.baselines import _pseudo_inv_sqrt
from tosca.errors import DegenerateSpectrumError, NotConvergedError, ZeroDegreeError
from tosca.spectral import _fix_signs, _top_k

from conftest import one_way_blocks_graph, peak_mib, random_directed_graph, sha256


def diagonal_block_graph(seed, n_b=50, p=0.8, q=0.1, r_b=4):
    e = q * np.ones((r_b, r_b)) + (p - q) * np.eye(r_b)
    g = tosca.dsbm_sample(tosca.DSBMParams(r_b=r_b, n_b=n_b, e=e, seed=seed))
    return tosca.add_self_loops(g, 1.0)


def cyclic_block_graph(seed, n_b=50, p=0.8, q=0.1, r_b=4):
    """Dense one-way blocks i -> i+1 (mod r_b): directional imbalance."""
    shift = np.roll(np.eye(r_b), 1, axis=1)
    e = q * np.ones((r_b, r_b)) + (p - q) * shift
    g = tosca.dsbm_sample(tosca.DSBMParams(r_b=r_b, n_b=n_b, e=e, seed=seed))
    return tosca.add_self_loops(g, 1.0)


FIXTURES = {"diagonal": diagonal_block_graph, "cyclic": cyclic_block_graph}


def dense_ddbs(g):
    """Do^-1/2 A Di^-1/2 A^T Do^-1/2 + Di^-1/2 A^T Do^-1/2 A Di^-1/2, densely."""
    a = g.adjacency.toarray()
    deg = tosca.degree_info(g)
    do = np.diag(_pseudo_inv_sqrt(deg.out_degrees))
    di = np.diag(_pseudo_inv_sqrt(deg.in_degrees))
    return do @ a @ di @ a.T @ do + di @ a.T @ do @ a @ di


def dense_ddbs_labels(g, k, cfg):
    """Dense DDBS pipeline: formula -> eigh of D^-1/2 M D^-1/2 -> k-means."""
    m = dense_ddbs(g)
    dinv = _pseudo_inv_sqrt(m.sum(axis=1))
    _, vecs = np.linalg.eigh(dinv[:, None] * m * dinv[None, :])
    return tosca.kmeans(vecs[:, ::-1][:, :k] * dinv[:, None], k, cfg).labels


def skew_part(g):
    """C = A_nn - A_nn^T with A_nn = Do^-1/2 A Di^-1/2, densely."""
    a = g.adjacency.toarray()
    deg = tosca.degree_info(g)
    a_nn = (
        _pseudo_inv_sqrt(deg.out_degrees)[:, None]
        * a
        * _pseudo_inv_sqrt(deg.in_degrees)[None, :]
    )
    return a_nn - a_nn.T


def herm_features(g, k, monkeypatch):
    """The points herm_cluster hands to k-means."""
    seen = []

    def spy(points, k, cfg=None):
        seen.append(points)
        return tosca.kmeans(points, k, cfg)

    monkeypatch.setattr(baselines, "kmeans", spy)
    tosca.herm_cluster(g, k)
    return seen[0]


def projector(cols):
    q, _ = np.linalg.qr(cols)
    return q @ q.T


class TestSymmetrize:
    def test_naive_sum(self):
        g = tosca.from_edge_list(3, [(0, 1, 2.0), (2, 1, 1.0)])
        sym = tosca.symmetrize(g, "naive_sum")
        a = g.adjacency.toarray()
        assert np.array_equal(sym.m, a + a.T)

    def test_ddbs_symmetric_nonnegative(self, rng):
        g = random_directed_graph(20, rng)
        sym = tosca.symmetrize(g, "ddbs")
        assert np.array_equal(sym.m, sym.m.T)
        assert sym.m.min() >= 0.0

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_ddbs_matches_dense_formula(self, rng, self_loops):
        g = random_directed_graph(30, rng, density=0.2, self_loops=self_loops)
        sym = tosca.symmetrize(g, "ddbs")
        ref = dense_ddbs(g)
        assert np.abs(sym.m - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(sym.m, sym.m.T)
        assert sym.m.min() >= 0.0

    def test_pseudo_reciprocal(self):
        values = np.array([4.0, 0.0, 1.0])
        assert np.array_equal(_pseudo_inv_sqrt(values), [0.5, 0.0, 1.0])

    def test_zero_degree_vertices_tolerated(self):
        # vertex 2 has no in-edges and vertex 0 none out; both fine
        g = tosca.from_edge_list(3, [(2, 1, 1.0), (1, 0, 1.0)])
        sym = tosca.symmetrize(g, "ddbs")
        assert np.isfinite(sym.m).all()


class TestDdbsCluster:
    def test_matches_fb_on_undirected_blocks(self):
        e = np.array([[0.9, 0.05], [0.05, 0.9]])
        params = tosca.DSBMParams(r_b=2, n_b=40, e=e, seed=0)
        g = tosca.dsbm_sample(params)
        sym_triples = [(s, d, w) for s, d, w in g.edges] + [
            (d, s, w) for s, d, w in g.edges
        ]
        und = tosca.add_self_loops(
            tosca.from_edge_list(g.n, sym_triples, directed=False), 1.0
        )
        truth = params.block_labels()
        ddbs = tosca.ddbs_cluster(und, 2)
        fb = tosca.cluster_graph(und, 2)
        assert tosca.adjusted_rand_index(ddbs.labels, truth) == 1.0
        assert tosca.adjusted_rand_index(ddbs.labels, fb.labels) == 1.0

    def test_empty_graph_rejected(self):
        g = tosca.from_edge_list(4, [])
        with pytest.raises(ZeroDegreeError):
            tosca.ddbs_cluster(g, 2)

    def test_high_ari_on_diagonal_blocks(self):
        truth = np.repeat(np.arange(4), 50)
        aris = [
            tosca.adjusted_rand_index(
                tosca.ddbs_cluster(
                    diagonal_block_graph(seed), 4, tosca.KMeansConfig(seed=seed)
                ).labels,
                truth,
            )
            for seed in range(8)
        ]
        assert np.median(aris) > 0.9

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_labels_match_dense_pipeline(self, fixture):
        for seed in range(8):
            g = FIXTURES[fixture](seed)
            cfg = tosca.KMeansConfig(seed=seed)
            labels = tosca.ddbs_cluster(g, 4, cfg).labels
            assert tosca.adjusted_rand_index(labels, dense_ddbs_labels(g, 4, cfg)) == 1.0


class TestHermCluster:
    def test_symmetric_graph_degenerate(self, monkeypatch):
        # H = 0: every start vector is "zero" to ARPACK, so it is never asked
        g = tosca.from_edge_list(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], directed=False)
        monkeypatch.setattr(spla, "eigsh", None)
        with pytest.raises(DegenerateSpectrumError, match="^skew-symmetric part vanishes;"):
            tosca.herm_cluster(g, 2)

    def test_nearly_symmetric_graph_degenerate(self):
        # a nonzero skew part of rounding size is caught by its eigenvalue
        edges = [(0, 1, 1.0), (1, 0, 1.0 + 1e-15), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)]
        g = tosca.from_edge_list(4, edges)
        with pytest.raises(DegenerateSpectrumError, match="^skew-symmetric part vanishes;"):
            tosca.herm_cluster(g, 2)

    def test_directional_two_block(self):
        # dense one-way coupling block 1 -> block 2
        e = np.array([[0.05, 0.9], [0.05, 0.05]])
        truth = np.repeat([0, 1], 100)
        aris = []
        for seed in range(5):
            g = tosca.add_self_loops(
                tosca.dsbm_sample(tosca.DSBMParams(r_b=2, n_b=100, e=e, seed=seed)), 1.0
            )
            labels = tosca.herm_cluster(g, 2, tosca.KMeansConfig(seed=seed)).labels
            aris.append(tosca.adjusted_rand_index(labels, truth))
        assert np.median(aris) > 0.9

    def test_fails_on_diagonal_blocks(self):
        truth = np.repeat(np.arange(4), 50)
        aris = [
            tosca.adjusted_rand_index(
                tosca.herm_cluster(
                    diagonal_block_graph(seed), 4, tosca.KMeansConfig(seed=seed)
                ).labels,
                truth,
            )
            for seed in range(8)
        ]
        assert np.median(aris) < 0.3

    def test_succeeds_on_cyclic_blocks(self):
        truth = np.repeat(np.arange(4), 50)
        aris = [
            tosca.adjusted_rand_index(
                tosca.herm_cluster(
                    cyclic_block_graph(seed), 4, tosca.KMeansConfig(seed=seed)
                ).labels,
                truth,
            )
            for seed in range(8)
        ]
        assert np.median(aris) >= 0.9

    def test_skew_svd_pairing_identities(self, rng):
        g = random_directed_graph(25, rng, density=0.2)
        c = skew_part(g)
        u, sigma, vt = np.linalg.svd(c)
        for j in range(6):
            v = vt[j, :]
            assert np.abs(c @ v - sigma[j] * u[:, j]).max() < 1e-8
            assert np.abs(c @ u[:, j] + sigma[j] * v).max() < 1e-8

    def test_duplicated_singular_values(self, rng):
        g = random_directed_graph(20, rng, density=0.3)
        a = g.adjacency.toarray()
        c = a - a.T
        sigma = np.linalg.svd(c, compute_uv=False)
        paired = sigma[: 2 * (len(sigma) // 2)].reshape(-1, 2)
        assert np.abs(paired[:, 0] - paired[:, 1]).max() < 1e-8

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_features_span_singular_vector_pairs(self, rng, monkeypatch, k):
        g = random_directed_graph(40, rng, density=0.2)
        feats = herm_features(g, k, monkeypatch)
        u, _, vt = np.linalg.svd(skew_part(g))
        pairs = (k + 1) // 2
        ref = np.column_stack([col for j in range(pairs) for col in (u[:, 2 * j], vt[2 * j])])
        assert feats.shape == (g.n, 2 * pairs)
        assert np.abs(projector(feats) - projector(ref)).max() <= 1e-8

    def test_eigenvector_phase_fixed(self, rng, monkeypatch):
        g = random_directed_graph(40, rng, density=0.2)
        feats = herm_features(g, 6, monkeypatch)
        x = feats[:, 0::2] + 1j * feats[:, 1::2]
        for j in range(x.shape[1]):
            pivot = int(np.argmax(np.abs(x[:, j])))
            assert x[pivot, j].imag == 0.0
            assert x[pivot, j].real > 0.0


class TestPinnedBits:
    def test_herm_cluster(self):
        # SHA-256 of the labels' bytes and the exact inertia on one fixed graph
        clustering = tosca.herm_cluster(one_way_blocks_graph(), 4)
        assert sha256(clustering.labels) == "78f1ec498a32fdee0604504e83496745340a0f7e5deaebed48b7fa45f5022fb1"
        assert clustering.inertia.hex() == "0x1.0cd9bcce9d952p+0"


class TestDenseFallback:
    @pytest.mark.parametrize("cluster", [tosca.ddbs_cluster, tosca.herm_cluster])
    def test_arpack_error_is_not_converged(self, monkeypatch, cluster):
        # an ARPACK failure is a numerical error, with no dense solve behind it
        g = cyclic_block_graph(0)
        calls = []

        def failing(m, *args, **kwargs):
            calls.append(m.dtype)
            raise spla.ArpackError(-9999)

        monkeypatch.setattr(spla, "eigsh", failing)
        monkeypatch.setattr(np, "eye", None)  # a dense solve would fail on this
        with pytest.raises(NotConvergedError, match=r"^ARPACK failed \(ARPACK error -9999"):
            cluster(g, 4, tosca.KMeansConfig(seed=0))
        expected = np.complex128 if cluster is tosca.herm_cluster else np.float64
        assert calls == [expected]

    def test_hermitian_k_beyond_lanczos_gives_lanczos_labels(self):
        # k >= n - 1 sends _top_k to the dense solve; its leading
        # eigenvectors must cluster like the Lanczos ones herm_cluster uses
        g = cyclic_block_graph(0)
        cfg = tosca.KMeansConfig(seed=0)
        vals, x, _ = _top_k(1j * skew_part(g), g.n - 1, symmetric=True)
        assert len(vals) == g.n - 1
        x = x[:, :2].copy()
        _fix_signs(x)
        labels = tosca.kmeans(np.stack([x.real, x.imag], axis=2).reshape(g.n, -1), 4, cfg)
        assert np.array_equal(labels.labels, tosca.herm_cluster(g, 4, cfg).labels)

    def test_hermitian_tiny_graph_takes_dense_branch(self, monkeypatch):
        # ceil(k/2) = 2 >= n - 1 for n = 3: ARPACK is never asked
        g = tosca.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        monkeypatch.setattr(spla, "eigsh", None)
        labels = tosca.herm_cluster(tosca.add_self_loops(g, 1.0), 3).labels
        assert sorted(labels.tolist()) == [0, 1, 2]


class TestMemory:
    @pytest.mark.parametrize("cluster", [tosca.ddbs_cluster, tosca.herm_cluster])
    def test_no_dense_n_by_n(self, cluster):
        # one 4000 x 4000 float array alone would be 122 MiB
        g = cyclic_block_graph(0, n_b=500, p=0.05, q=0.003, r_b=8)
        assert peak_mib(cluster, g, 8) < 32
