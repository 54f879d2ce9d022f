import sys
import tracemalloc

import numpy as np
import pytest

import tosca
from tosca import generators
from tosca.errors import NonPositiveWeightError, ParseError, ToscaError

from conftest import example_block_matrix


class TestDsbmSample:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_weight_positive_and_finite(self, weight):
        with pytest.raises(NonPositiveWeightError, match=f"got {weight}$"):
            tosca.DSBMParams(r_b=2, n_b=3, e=np.zeros((2, 2)), weight=weight)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities(self, bad):
        e = np.full((2, 2), 0.5)
        e[1, 0] = bad
        with pytest.raises(ToscaError, match=r"must lie in \[0, 1\]"):
            tosca.DSBMParams(r_b=2, n_b=3, e=e, seed=0)

    @pytest.mark.parametrize("r_b,n_b", [(-1, 3), (2, -1)])
    def test_negative_sizes(self, r_b, n_b):
        with pytest.raises(ToscaError, match="nonnegative"):
            tosca.DSBMParams(r_b=r_b, n_b=n_b, e=np.full((2, 2), 0.5), seed=0)

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


class TestBernoulliSampler:
    CASES = [
        (1, 30, [[0.3]]),
        (2, 6, [[0.0, 1.0], [1.0, 0.0]]),
        (3, 10, [[0.5, 0.0, 0.2], [0.1, 0.9, 0.0], [1.0, 0.05, 0.4]]),
        (4, 25, "example"),
        (5, 1, [[0.5] * 5] * 5),
    ]

    @staticmethod
    def params(r_b, n_b, e, seed, weight=1.5):
        e = example_block_matrix() if isinstance(e, str) else np.asarray(e)
        return tosca.DSBMParams(r_b=r_b, n_b=n_b, e=e, weight=weight, seed=seed)

    @pytest.mark.parametrize("r_b,n_b,e", CASES)
    def test_seed_determines_edges(self, r_b, n_b, e):
        params = self.params(r_b, n_b, e, seed=3)
        a, b = tosca.dsbm_sample(params), tosca.dsbm_sample(params)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        if ((params.e > 0.0) & (params.e < 1.0)).any():  # else nothing is left to chance
            others = [tosca.dsbm_sample(self.params(r_b, n_b, e, seed=s)) for s in (4, 5)]
            assert all(a.edge_multiset() != o.edge_multiset() for o in others)

    def test_zero_and_one_probabilities(self):
        # blocks 0 -> 1 and 2 -> 0 full, everything else empty
        e = np.zeros((3, 3))
        e[0, 1] = e[2, 0] = 1.0
        g = tosca.dsbm_sample(self.params(3, 7, e, seed=0))
        a = g.adjacency.toarray()
        full = np.kron(e, np.ones((7, 7)))
        assert np.array_equal(a, 1.5 * full)

    @pytest.mark.parametrize("r_b,n_b,e", CASES)
    def test_edges_distinct_and_inside_their_block_pair(self, r_b, n_b, e):
        params = self.params(r_b, n_b, e, seed=7)
        g = tosca.dsbm_sample(params)
        # a duplicate draw would be summed into a heavier edge
        assert g.weight.tolist() == [1.5] * g.num_edges
        assert len(set(zip(g.src.tolist(), g.dst.tolist()))) == g.num_edges
        assert (params.e[g.src // n_b, g.dst // n_b] > 0.0).all()
        assert ((0 <= g.src) & (g.src < params.n) & (0 <= g.dst) & (g.dst < params.n)).all()

    def test_pair_counts_binomial(self):
        # z-scores of every block pair's edge count under Binomial(n_b^2, p)
        e = np.array([[0.3, 0.01, 0.0005], [0.9, 0.05, 0.2], [0.002, 0.5, 0.99]])
        n_b = 60
        cells = n_b * n_b
        z = []
        for seed in range(8):
            a = tosca.dsbm_sample(self.params(3, n_b, e, seed)).adjacency.toarray()
            counts = a.reshape(3, n_b, 3, n_b).astype(bool).sum(axis=(1, 3))
            z.append((counts - cells * e) / np.sqrt(cells * e * (1.0 - e)))
        z = np.array(z)
        assert np.abs(z).max() < 4.5
        assert abs(z.mean()) < 0.5  # 72 z-scores: the mean has sd 0.12
        assert 0.5 < (z**2).mean() < 1.6

    def test_batches_continue_until_past_the_last_cell(self):
        class UnitGaps:
            def geometric(self, p, size):
                return np.ones(size, dtype=np.int64)

        # p = 0.001 sizes each batch at 23 gaps, so 1000 cells take 44 batches
        cells = generators._bernoulli_cells(UnitGaps(), 1000, 0.001)
        assert np.array_equal(cells, np.arange(1000))

    @pytest.mark.parametrize("cells,p", [(1, 0.5), (10, 1.0), (5000, 0.02), (10**6, 3e-5)])
    def test_cells_ascending_and_in_range(self, cells, p):
        hits = generators._bernoulli_cells(np.random.default_rng(1), cells, p)
        assert (np.diff(hits) > 0).all()
        assert len(hits) == 0 or 0 <= hits[0] <= hits[-1] < cells

    def test_memory_proportional_to_edges(self):
        # one block of 4M cells at p = 0.02: 80k edges, where a permutation
        # of the cells alone would take 32 MiB
        params = tosca.DSBMParams(r_b=1, n_b=2000, e=[[0.02]], seed=0)
        tracemalloc.start()
        try:
            g = tosca.dsbm_sample(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(g.num_edges - 80000) < 2000
        assert peak < 16 * 2**20

    def test_hundred_thousand_vertices(self):
        # 32 blocks of 3125: about 2.2M edges among 10^10 cells
        e = np.full((32, 32), 1e-4)
        np.fill_diagonal(e, 0.004)
        params = tosca.DSBMParams(r_b=32, n_b=3125, e=e, seed=0)
        tracemalloc.start()
        try:
            g = tosca.dsbm_sample(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = 3125**2 * e.sum()
        assert abs(g.num_edges - expected) < 6 * np.sqrt(expected)
        assert peak < 256 * 2**20

    @pytest.mark.parametrize("r_b,n_b", [(0, 4), (2, 0)])
    def test_empty_model(self, r_b, n_b):
        g = tosca.dsbm_sample(self.params(r_b, n_b, np.full((r_b, r_b), 0.5), seed=1))
        assert (g.n, g.num_edges) == (0, 0)


class TestBlockRowSampler:
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
