import numpy as np
import pytest
import scipy.sparse.linalg as spla

import tosca
from tosca import spectral
from tosca.errors import (
    IndexOutOfRangeError,
    KOutOfRangeError,
    NotConvergedError,
    NotUndirectedError,
    TooFewValuesError,
    ZeroDegreeError,
)

from tosca.spectral import _fix_signs

from conftest import (
    random_directed_graph,
    random_undirected_graph,
    three_cycles_graph,
    two_triangles_graph,
)


def fb_setup(g, mu=None):
    s = tosca.transition_matrix(g)
    mu = mu or tosca.uniform_density(g.n)
    return s, mu


def dense_fb_reference(s, mu, k):
    """Top-k kappa and phi from a full dense SVD of D_mu^1/2 S D_nu^-1/2.

    Columns of phi are signed so that their first largest-magnitude
    entry is positive.
    """
    sqrt_mu = np.sqrt(mu.p)
    inv_sqrt_nu = 1.0 / np.sqrt(tosca.image_density(s, mu).p)
    u, sigma, _ = np.linalg.svd(sqrt_mu[:, None] * s.dense() * inv_sqrt_nu[None, :])
    phi = u[:, :k] / sqrt_mu[:, None]
    pivots = np.argmax(np.abs(phi), axis=0)
    phi *= np.sign(phi[pivots, np.arange(k)])
    return sigma[:k], phi


class TestFbSpectrum:
    def test_permutation_all_ones(self):
        g = tosca.from_edge_list(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
        s, mu = fb_setup(g)
        spec = tosca.fb_spectrum(s, mu, 4)
        assert np.abs(spec.lam - 1.0).max() < 1e-12

    def test_matches_dense_f_eigenvalues(self, rng):
        g = random_directed_graph(20, rng)
        s, mu = fb_setup(g)
        spec = tosca.fb_spectrum(s, mu, 20)
        f = tosca.forward_backward(s, mu).m
        oracle = np.sort(np.linalg.eigvals(f).real)[::-1]
        assert np.abs(spec.lam - oracle).max() < 1e-8

    def test_leading_pair(self, rng):
        g = random_directed_graph(15, rng)
        s, mu = fb_setup(g)
        spec = tosca.fb_spectrum(s, mu, 3)
        assert abs(spec.kappa[0] - 1.0) < 1e-10
        # phi_1 constant up to sign
        assert np.abs(spec.phi[:, 0] - spec.phi[0, 0]).max() < 1e-8

    def test_pairing_relations(self, rng):
        # K psi = kappa phi and T phi = kappa psi
        g = random_directed_graph(12, rng)
        s, mu = fb_setup(g)
        spec = tosca.fb_spectrum(s, mu, 5)
        k = s.dense()
        t = tosca.reweighted(s, mu).m
        for ell in range(5):
            assert np.abs(k @ spec.psi[:, ell] - spec.kappa[ell] * spec.phi[:, ell]).max() < 1e-8
            assert np.abs(t @ spec.phi[:, ell] - spec.kappa[ell] * spec.psi[:, ell]).max() < 1e-8

    def test_eigen_residuals(self, rng):
        g = random_directed_graph(18, rng)
        s, mu = fb_setup(g)
        spec = tosca.fb_spectrum(s, mu, 6)
        f = tosca.forward_backward(s, mu).m
        b = tosca.backward_forward(s, mu).m
        for ell in range(6):
            assert np.abs(f @ spec.phi[:, ell] - spec.lam[ell] * spec.phi[:, ell]).max() < 1e-8
            assert np.abs(b @ spec.psi[:, ell] - spec.lam[ell] * spec.psi[:, ell]).max() < 1e-8

    def test_weighted_orthonormality(self, rng):
        g = random_directed_graph(14, rng)
        s, mu = fb_setup(g)
        spec = tosca.fb_spectrum(s, mu, 6)
        nu = tosca.image_density(s, mu)
        gram_phi = spec.phi.T @ np.diag(mu.p) @ spec.phi
        gram_psi = spec.psi.T @ np.diag(nu.p) @ spec.psi
        assert np.abs(gram_phi - np.eye(6)).max() < 1e-10
        assert np.abs(gram_psi - np.eye(6)).max() < 1e-10

    def test_descending_and_in_range(self, rng):
        g = random_directed_graph(16, rng)
        s, mu = fb_setup(g)
        spec = tosca.fb_spectrum(s, mu, 16)
        assert (np.diff(spec.kappa) <= 1e-14).all()
        assert spec.kappa[0] <= 1.0 and spec.kappa[-1] >= 0.0
        assert np.array_equal(spec.lam, spec.kappa**2)

    def test_deterministic(self, rng):
        # ARPACK restarts on the two-triangle graph, drawing a new vector
        # each time; the draws must come from a fixed generator
        for g, k in ((random_directed_graph(10, rng), 4), (two_triangles_graph(), 3)):
            s, mu = fb_setup(g)
            a = tosca.fb_spectrum(s, mu, k)
            b = tosca.fb_spectrum(s, mu, k)
            assert np.array_equal(a.kappa, b.kappa)
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.psi, b.psi)

    def test_sign_convention(self, rng):
        g = random_directed_graph(10, rng)
        s, mu = fb_setup(g)
        spec = tosca.fb_spectrum(s, mu, 4)
        for ell in range(4):
            pivot = np.argmax(np.abs(spec.phi[:, ell]))
            assert spec.phi[pivot, ell] > 0

    def test_iterative_route_matches_dense(self, rng):
        g = random_directed_graph(60, rng)
        s, mu = fb_setup(g)
        kappa, phi = dense_fb_reference(s, mu, 5)
        spec = tosca.fb_spectrum(s, mu, 5)
        assert np.abs(kappa - spec.kappa).max() < 1e-9
        assert np.abs(phi - spec.phi).max() < 1e-6

    def test_degenerate_graph_falls_back_to_dense(self, monkeypatch):
        # two sparse blocks with unit self-loops: most vertices are
        # isolated, so sigma = 1 is highly degenerate and ARPACK gives up
        e = np.full((2, 2), 0.001)
        g = tosca.dsbm_sample(tosca.DSBMParams(r_b=2, n_b=100, e=e, seed=0))
        s, mu = fb_setup(tosca.add_self_loops(g, 1.0))
        failures = []
        eigsh = spla.eigsh

        def spy(*args, **kwargs):
            try:
                return eigsh(*args, **kwargs)
            except spla.ArpackError as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(spla, "eigsh", spy)
        spec = tosca.fb_spectrum(s, mu, 2)
        assert len(failures) == 1
        kappa, phi = dense_fb_reference(s, mu, 2)
        assert np.abs(kappa - spec.kappa).max() < 1e-9
        assert np.abs(phi - spec.phi).max() < 1e-6

    def test_dense_fallback_is_bounded(self, monkeypatch):
        # the graph of test_degenerate_graph_falls_back_to_dense, with the
        # dense bound set below its 200 vertices: no n x n array is formed
        e = np.full((2, 2), 0.001)
        g = tosca.dsbm_sample(tosca.DSBMParams(r_b=2, n_b=100, e=e, seed=0))
        s, mu = fb_setup(tosca.add_self_loops(g, 1.0))
        monkeypatch.setattr(spectral, "_DENSE_MAX_N", 199)
        monkeypatch.setattr(np, "eye", None)  # a dense solve would fail on this
        with pytest.raises(NotConvergedError) as caught:
            tosca.fb_spectrum(s, mu, 2)
        assert caught.value.exit_code == 4
        assert str(caught.value).startswith("ARPACK failed (ARPACK error")
        assert str(caught.value).endswith("the dense solve is limited to n <= 199 (n = 200)")

    def test_bound_names_the_largest_residual(self, rng, monkeypatch):
        g = random_directed_graph(60, rng)
        s, mu = fb_setup(g)
        eigsh = spla.eigsh

        def perturbed(*args, **kwargs):
            vals, x = eigsh(*args, **kwargs)
            return vals, x + 1e-4 * np.roll(x, 1, axis=0)

        monkeypatch.setattr(spla, "eigsh", perturbed)
        monkeypatch.setattr(spectral, "_DENSE_MAX_N", 59)
        with pytest.raises(NotConvergedError, match=r"^the largest Lanczos residual is \S+ > 1e-08, "
                           r"and the dense solve is limited to n <= 59 \(n = 60\)$"):
            tosca.fb_spectrum(s, mu, 5)

    def test_bound_applies_to_k_outside_arpack(self, monkeypatch):
        g = three_cycles_graph()
        s, mu = fb_setup(g)
        monkeypatch.setattr(spectral, "_DENSE_MAX_N", g.n - 1)
        with pytest.raises(NotConvergedError, match="k = 11 >= n - 1 is outside ARPACK's range"):
            tosca.fb_spectrum(s, mu, 11)
        # at the bound the dense solve still answers
        monkeypatch.setattr(spectral, "_DENSE_MAX_N", g.n)
        assert tosca.fb_spectrum(s, mu, 11).k == 11

    def test_inaccurate_lanczos_answer_is_replaced(self, rng, monkeypatch):
        g = random_directed_graph(60, rng)
        s, mu = fb_setup(g)
        eigsh = spla.eigsh

        def perturbed(*args, **kwargs):
            # tilt the Lanczos eigenvectors of m^T m out of their invariant subspace
            vals, x = eigsh(*args, **kwargs)
            return vals, x + 1e-4 * np.roll(x, 1, axis=0)

        monkeypatch.setattr(spla, "eigsh", perturbed)
        spec = tosca.fb_spectrum(s, mu, 5)
        kappa, phi = dense_fb_reference(s, mu, 5)
        assert np.abs(kappa - spec.kappa).max() < 1e-12
        assert np.abs(phi - spec.phi).max() < 1e-6

    def test_nonuniform_mu_matches_dense_f(self, rng):
        g = random_directed_graph(15, rng)
        s = tosca.transition_matrix(g)
        raw = rng.uniform(0.5, 2.0, 15)
        mu = tosca.Density(raw / raw.sum())
        spec = tosca.fb_spectrum(s, mu, 15)
        f = tosca.forward_backward(s, mu).m
        oracle = np.sort(np.linalg.eigvals(f).real)[::-1]
        assert np.abs(spec.lam - oracle).max() < 1e-8
        for ell in range(5):
            resid = f @ spec.phi[:, ell] - spec.lam[ell] * spec.phi[:, ell]
            assert np.abs(resid).max() < 1e-8

    def test_k_out_of_range(self):
        g = three_cycles_graph()
        s, mu = fb_setup(g)
        with pytest.raises(KOutOfRangeError):
            tosca.fb_spectrum(s, mu, 13)
        with pytest.raises(KOutOfRangeError):
            tosca.fb_spectrum(s, mu, 0)


class TestFixSigns:
    def test_real_columns_bitwise_sign_flip(self, rng):
        phi = rng.standard_normal((30, 6))
        phi[:2] = [[0.0] * 6, [-0.0] * 6]
        psi = rng.standard_normal((20, 6))
        psi[0] = -0.0
        ref_phi, ref_psi = phi.copy(), psi.copy()
        for j in range(6):
            pivot = np.argmax(np.abs(ref_phi[:, j]))
            if ref_phi[pivot, j] < 0.0:
                ref_phi[:, j] = -ref_phi[:, j]
                ref_psi[:, j] = -ref_psi[:, j]
        _fix_signs(phi, psi)
        assert phi.tobytes() == ref_phi.tobytes()
        assert psi.tobytes() == ref_psi.tobytes()

    def test_complex_pivot_real_positive(self, rng):
        x = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
        companion = x.copy()
        before = np.abs(x)
        _fix_signs(x, companion)
        assert np.abs(np.abs(x) - before).max() < 1e-15
        assert np.abs(companion - x).max() < 1e-15
        for j in range(5):
            pivot = int(np.argmax(np.abs(x[:, j])))
            assert x[pivot, j].imag == 0.0
            assert x[pivot, j].real > 0.0


class TestKoopmanSpectrum:
    def test_complete_graph_k3(self):
        g = tosca.from_edge_list(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], directed=False
        )
        spec = tosca.koopman_spectrum(g, 3)
        assert np.allclose(spec.values, [1.0, -0.5, -0.5], atol=1e-12)

    def test_lazy_nonnegative(self, rng):
        g = random_undirected_graph(15, rng)
        spec = tosca.koopman_spectrum(g, 15, lazy=True)
        assert spec.values.min() >= -1e-12

    def test_fb_eigenvalues_are_squares(self, rng):
        # undirected graph with mu = pi: eigenvalues of F are squares of
        # the Koopman eigenvalues
        g = random_undirected_graph(12, rng)
        pi = tosca.stationary_density(g)
        kspec = tosca.koopman_spectrum(g, 12)
        fspec = tosca.fb_spectrum(tosca.transition_matrix(g), pi, 12)
        assert np.abs(np.sort(kspec.values**2) - np.sort(fspec.lam)).max() < 1e-10

    def test_directed_rejected(self):
        g = tosca.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        with pytest.raises(NotUndirectedError, match="adjacency matrix is not symmetric"):
            tosca.koopman_spectrum(g, 2)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_graph_checked_before_k(self, k):
        # symmetry, then zero degree, then k: the stationary density's own checks come first
        directed = tosca.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        with pytest.raises(NotUndirectedError):
            tosca.koopman_spectrum(directed, k)
        isolated = tosca.from_edge_list(3, [(0, 1, 1.0)], directed=False)
        with pytest.raises(ZeroDegreeError, match="vertex 2 has zero degree"):
            tosca.koopman_spectrum(isolated, k)

    def test_pi_orthonormal_vectors(self, rng):
        g = random_undirected_graph(10, rng)
        pi = tosca.stationary_density(g)
        spec = tosca.koopman_spectrum(g, 5)
        gram = spec.vectors.T @ np.diag(pi.p) @ spec.vectors
        assert np.abs(gram - np.eye(5)).max() < 1e-10

    def test_iterative_route_matches_dense(self, rng):
        g = random_undirected_graph(40, rng)
        pi = tosca.stationary_density(g).p
        s = tosca.transition_matrix(g).dense()
        sym = np.sqrt(pi)[:, None] * s / np.sqrt(pi)[None, :]
        vals, vecs = np.linalg.eigh((sym + sym.T) / 2.0)
        values, vectors = vals[::-1][:4], vecs[:, ::-1][:, :4] / np.sqrt(pi)[:, None]
        spec = tosca.koopman_spectrum(g, 4)
        assert np.abs(values - spec.values).max() < 1e-9
        assert np.abs(np.abs(vectors) - np.abs(spec.vectors)).max() < 1e-6

    def test_subspace_agreement_lazy(self, rng):
        # same leading subspace from K and from F for the lazy walk
        import scipy.linalg as sla

        for _ in range(5):
            g = random_undirected_graph(int(rng.integers(8, 30)), rng)
            pi = tosca.stationary_density(g)
            s_lazy = tosca.lazy_chain(tosca.transition_matrix(g))
            kspec = tosca.koopman_spectrum(g, g.n, lazy=True)
            fspec = tosca.fb_spectrum(s_lazy, pi, g.n)
            gaps = -np.diff(kspec.values)
            k = int(np.argmax(gaps[: min(6, len(gaps))])) + 1
            angles = sla.subspace_angles(kspec.vectors[:, :k], fspec.phi[:, :k])
            assert angles.max() < 1e-6


class TestSpectralGap:
    def test_largest_drop(self):
        assert tosca.spectral_gap([1.0, 0.98, 0.4, 0.39], 10) == 2

    def test_published_four_cluster_spectrum(self):
        # the benchmark spectrum: three eigenvalues near the leading one,
        # then a clear gap
        assert tosca.spectral_gap([1.0, 0.72, 0.70, 0.69, 0.014, 0.013], 6) == 4

    def test_tie_prefers_smaller(self):
        assert tosca.spectral_gap([1.0, 0.5, 0.0], 10) == 1

    def test_max_k_limits_window(self):
        lam = [1.0, 0.9, 0.8, 0.1]
        assert tosca.spectral_gap(lam, 10) == 3
        assert tosca.spectral_gap(lam, 3) == 1

    def test_too_few(self):
        with pytest.raises(TooFewValuesError):
            tosca.spectral_gap([1.0], 5)


class TestEmbedCoordinates:
    def test_first_dim_constant(self, rng):
        g = random_directed_graph(10, rng)
        spec = tosca.fb_spectrum(*fb_setup(g), 3)
        coords = tosca.embed_coordinates(spec, [1])
        assert coords.shape == (10, 1)
        assert np.abs(coords - coords[0, 0]).max() < 1e-8

    def test_three_plateaus_on_cycle_fixture(self):
        g = three_cycles_graph()
        spec = tosca.fb_spectrum(*fb_setup(g), 3)
        coords = tosca.embed_coordinates(spec, [2])
        clusters = [coords[4 * c : 4 * c + 4, 0] for c in range(3)]
        spread = max(c.max() - c.min() for c in clusters)
        centers = sorted(float(c.mean()) for c in clusters)
        separation = min(b - a for a, b in zip(centers, centers[1:]))
        assert separation > 5 * spread

    def test_planar_embedding_separates_four_blocks(self):
        from conftest import dense_dsbm_edges, example_block_matrix

        # The separation holds on most sampled graphs, not all, so the
        # graph is a fixed draw of the reference sampler.
        params = tosca.DSBMParams(r_b=4, n_b=100, e=example_block_matrix(), seed=0)
        src, dst = dense_dsbm_edges(params)
        g = tosca.from_edge_list(params.n, np.column_stack([src, dst, np.ones(len(src))]))
        spec = tosca.fb_spectrum(*fb_setup(g), 3)
        coords = tosca.embed_coordinates(spec, [2, 3])
        truth = np.repeat(np.arange(4), 100)
        cents = np.array([coords[truth == b].mean(axis=0) for b in range(4)])
        spread = max(
            np.linalg.norm(coords[truth == b] - cents[b], axis=1).max()
            for b in range(4)
        )
        min_sep = min(
            np.linalg.norm(cents[i] - cents[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert min_sep > 2 * spread
        labels = tosca.kmeans(coords, 4, tosca.KMeansConfig(seed=0)).labels
        assert tosca.adjusted_rand_index(labels, truth) == 1.0

    def test_selects_requested_columns(self, rng):
        g = random_directed_graph(8, rng)
        spec = tosca.fb_spectrum(*fb_setup(g), 4)
        coords = tosca.embed_coordinates(spec, [2, 3])
        assert np.array_equal(coords[:, 0], spec.phi[:, 1])
        assert np.array_equal(coords[:, 1], spec.phi[:, 2])

    def test_out_of_range(self, rng):
        g = random_directed_graph(8, rng)
        spec = tosca.fb_spectrum(*fb_setup(g), 2)
        with pytest.raises(IndexOutOfRangeError):
            tosca.embed_coordinates(spec, [3])
        with pytest.raises(IndexOutOfRangeError):
            tosca.embed_coordinates(spec, [0])
