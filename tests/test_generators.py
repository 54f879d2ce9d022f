import sys
import tracemalloc

import numpy as np
import pytest

import tosca
from tosca.errors import ParseError, ToscaError

from conftest import example_block_matrix


class TestDsbmSample:
    def test_all_zero_probabilities(self):
        params = tosca.DSBMParams(r_b=2, n_b=5, e=np.zeros((2, 2)), seed=0)
        assert tosca.dsbm_sample(params).num_edges == 0

    def test_all_one_probabilities(self):
        params = tosca.DSBMParams(r_b=2, n_b=3, e=np.ones((2, 2)), seed=0)
        g = tosca.dsbm_sample(params)
        assert g.num_edges == 36  # every ordered pair, self-edges included

    def test_block_densities(self):
        e = example_block_matrix()
        params = tosca.DSBMParams(r_b=4, n_b=100, e=e, seed=0)
        g = tosca.dsbm_sample(params)
        a = g.adjacency.toarray()
        for bi in range(4):
            for bj in range(4):
                block = a[100 * bi : 100 * (bi + 1), 100 * bj : 100 * (bj + 1)]
                assert abs(block.mean() - e[bi, bj]) < 0.03

    def test_seed_determinism(self):
        e = example_block_matrix()
        params = tosca.DSBMParams(r_b=4, n_b=20, e=e, seed=5)
        a = tosca.dsbm_sample(params)
        b = tosca.dsbm_sample(params)
        assert a.edge_multiset() == b.edge_multiset()
        c = tosca.dsbm_sample(tosca.DSBMParams(r_b=4, n_b=20, e=e, seed=6))
        assert a.edge_multiset() != c.edge_multiset()

    def test_custom_weight(self):
        params = tosca.DSBMParams(r_b=1, n_b=4, e=np.ones((1, 1)), weight=2.5, seed=0)
        g = tosca.dsbm_sample(params)
        assert set(g.weight.tolist()) == {2.5}

    def test_invalid_probabilities(self):
        with pytest.raises(ToscaError):
            tosca.DSBMParams(r_b=2, n_b=3, e=np.full((2, 2), 1.5), seed=0)

    def test_planted_partition_recoverable(self):
        # dense-diagonal blocks at (p, q) = (0.8, 0.1) for 2..4 blocks
        for r_b in (2, 3, 4):
            e = 0.1 * np.ones((r_b, r_b)) + 0.7 * np.eye(r_b)
            truth = np.repeat(np.arange(r_b), 50)
            aris = []
            for seed in range(20):
                params = tosca.DSBMParams(r_b=r_b, n_b=50, e=e, seed=seed)
                g = tosca.add_self_loops(tosca.dsbm_sample(params), 1.0)
                labels = tosca.cluster_graph(
                    g, r_b, cfg=tosca.KMeansConfig(seed=seed)
                ).labels
                aris.append(tosca.adjusted_rand_index(labels, truth))
            assert np.median(aris) == 1.0


def dense_dsbm_edges(params):
    """Reference sampler: one n x n uniform draw against kron(e, ones)."""
    rng = np.random.default_rng(params.seed)
    blocks = np.ones((params.n_b, params.n_b))
    mask = rng.random((params.n, params.n)) < np.kron(params.e, blocks)
    return np.nonzero(mask)


class TestBlockRowSampler:
    @pytest.mark.parametrize(
        "r_b,n_b,e,seed",
        [
            (1, 30, [[0.3]], 0),
            (1, 5, [[1.0]], 1),
            (2, 6, [[0.0, 1.0], [1.0, 0.0]], 2),
            (3, 10, [[0.5, 0.0, 0.2], [0.1, 0.9, 0.0], [1.0, 0.05, 0.4]], 4),
            (4, 25, "example", 11),
            (5, 1, [[0.5] * 5] * 5, 9),
            (0, 4, np.zeros((0, 0)), 1),
            (2, 0, [[0.5, 0.5], [0.5, 0.5]], 1),
        ],
    )
    def test_edges_equal_dense_reference(self, r_b, n_b, e, seed):
        e = example_block_matrix() if isinstance(e, str) else np.asarray(e)
        params = tosca.DSBMParams(r_b=r_b, n_b=n_b, e=e, weight=1.5, seed=seed)
        g = tosca.dsbm_sample(params)
        src, dst = dense_dsbm_edges(params)
        assert np.array_equal(g.src, src)
        assert np.array_equal(g.dst, dst)
        assert g.weight.tolist() == [1.5] * len(src)

    def test_memory_is_one_block_row(self):
        e = np.full((16, 16), 0.001) + 0.049 * np.eye(16)
        params = tosca.DSBMParams(r_b=16, n_b=250, e=e, seed=0)
        tracemalloc.start()
        try:
            tosca.dsbm_sample(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n x n float draw alone would be 122 MiB
        assert peak < 32 * 2**20


class TestTwoBlockSweep:
    def test_corner_recovers_blocks(self):
        rows = tosca.two_block_sweep(50, [0.99], [0.01], seeds=range(5))
        assert np.median([r.ari for r in rows]) == 1.0
        assert all(r.kappa2 > 0.9 for r in rows)

    def test_center_fails(self):
        rows = tosca.two_block_sweep(50, [0.5], [0.5], seeds=range(5))
        assert abs(np.median([r.ari for r in rows])) < 0.1

    def test_row_fields(self):
        rows = tosca.two_block_sweep(20, [0.9], [0.1], seeds=[3])
        assert len(rows) == 1
        row = rows[0]
        assert (row.p, row.q, row.seed) == (0.9, 0.1, 3)
        assert 0.0 <= row.kappa2 <= 1.0

    def test_psi_sign_flips_between_regimes(self):
        # subdominant phi/psi correlate positively for p > q and
        # negatively for q > p
        def corr_sign(p, q, seed=1):
            e = np.array([[p, q], [q, p]])
            g = tosca.add_self_loops(
                tosca.dsbm_sample(tosca.DSBMParams(r_b=2, n_b=100, e=e, seed=seed)), 1.0
            )
            spec = tosca.fb_spectrum(
                tosca.transition_matrix(g), tosca.uniform_density(200), 2
            )
            return np.sign(spec.phi[:, 1] @ spec.psi[:, 1])

        assert corr_sign(0.99, 0.01) == 1.0
        assert corr_sign(0.01, 0.99) == -1.0

    def test_one_spectrum_per_cell(self, monkeypatch):
        # wrap fb_spectrum wherever a tosca module bound it
        calls = []
        original = tosca.spectral.fb_spectrum

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("tosca") and getattr(module, "fb_spectrum", None) is original:
                monkeypatch.setattr(module, "fb_spectrum", counting)
        rows = tosca.two_block_sweep(20, [0.9, 0.5], [0.1], seeds=[0, 1, 2])
        assert len(rows) == 6
        assert len(calls) == 6

    def test_kappa2_is_that_of_the_clustered_spectrum(self):
        row = tosca.two_block_sweep(30, [0.9], [0.1], seeds=[4])[0]
        params = tosca.DSBMParams(r_b=2, n_b=30, e=np.array([[0.9, 0.1], [0.1, 0.9]]), seed=4)
        g = tosca.add_self_loops(tosca.dsbm_sample(params), 1.0)
        spec = tosca.fb_spectrum(tosca.transition_matrix(g), tosca.uniform_density(60), 2)
        assert row.kappa2 == float(spec.kappa[1])

    def test_empty_grid_rejected(self):
        with pytest.raises(ToscaError):
            tosca.two_block_sweep(10, [], [0.5], seeds=[0])


class TestProbMatrixIO:
    def test_read(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("0.8,0.1\n0.1,0.8\n")
        e = tosca.generators.read_prob_matrix(path)
        assert np.array_equal(e, [[0.8, 0.1], [0.1, 0.8]])

    @pytest.mark.parametrize(
        "text",
        [
            "# blocks\n0.8, 0.1\n\n0.1 ,0.8 # last row\n",
            "0.3\n",
            "0.1,0.2\r\n0.3,0.4\r\n",
        ],
    )
    def test_loads_as_loadtxt(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        e = tosca.generators.read_prob_matrix(path)
        assert np.array_equal(e, np.loadtxt(path, delimiter=",", ndmin=2))

    def test_benchmark_format_round_trip(self, tmp_path):
        probs = np.full((32, 32), 0.001)
        np.fill_diagonal(probs, 0.05)
        probs[0, 1] = 0.1 + 0.2
        path = tmp_path / "probs.csv"
        np.savetxt(path, probs, delimiter=",", fmt="%.17g")
        assert np.array_equal(tosca.generators.read_prob_matrix(path), probs)

    @pytest.mark.parametrize(
        "text,line",
        [("0.5,0.5\n0.5,x\n", 2), ("# c\n0.5,0.5\n\n0.5\n", 4), ("0.5,,0.5\n", 1)],
    )
    def test_malformed_rows_raise_parse_error(self, tmp_path, text, line):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            tosca.generators.read_prob_matrix(path)
        assert info.value.line == line

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("0.5,0.5\n")
        with pytest.raises(ToscaError, match="square"):
            tosca.generators.read_prob_matrix(path)

    def test_sweep_csv(self, tmp_path):
        rows = tosca.two_block_sweep(10, [0.9], [0.1], seeds=[0, 1])
        path = tmp_path / "sweep.csv"
        tosca.generators.write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,q,seed,kappa2,ari"
        assert len(lines) == 3

    def test_sweep_csv_bytes(self, tmp_path):
        rows = tosca.two_block_sweep(10, [0.9], [0.1], seeds=[0])
        rows += [
            tosca.SweepRow(p=-0.0, q=0.0, seed=-3, kappa2=float("nan"), ari=5e-324),
            tosca.SweepRow(p=0.1 + 0.2, q=-0.0, seed=2**40, kappa2=0.0, ari=-0.5),
        ]
        path = tmp_path / "sweep.csv"
        tosca.generators.write_sweep_csv(rows, path)
        assert path.read_text() == "p,q,seed,kappa2,ari\n" + "".join(
            f"{r.p:.17g},{r.q:.17g},{r.seed},{r.kappa2:.17g},{r.ari:.17g}\n" for r in rows
        )
