import sys

import numpy as np
import pytest

import tosca
from tosca.errors import ToscaError

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

    def test_sweep_csv(self, tmp_path):
        rows = tosca.two_block_sweep(10, [0.9], [0.1], seeds=[0, 1])
        path = tmp_path / "sweep.csv"
        tosca.generators.write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,q,seed,kappa2,ari"
        assert len(lines) == 3
