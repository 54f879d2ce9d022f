import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tosca
from tosca import clustering
from tosca.clustering import _assign, _lloyd, _sq_dist
from tosca.errors import (
    DegeneratePointsError,
    EmptySubsetError,
    IndexOutOfRangeError,
    KTooLargeError,
    NonPositiveDensityError,
)

from conftest import example_block_matrix, random_directed_graph, three_cycles_graph


class TestKMeans:
    def test_separated_duplicates(self):
        points = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
        result = tosca.kmeans(points, 2)
        assert result.inertia == 0.0
        assert len(set(result.labels[:5])) == 1
        assert len(set(result.labels[5:])) == 1
        assert result.labels[0] != result.labels[5]

    def test_single_cluster_inertia(self, rng):
        points = rng.normal(size=(30, 3))
        result = tosca.kmeans(points, 1)
        expected = ((points - points.mean(axis=0)) ** 2).sum()
        assert abs(result.inertia - expected) < 1e-10

    def test_matches_brute_force_two_partition(self):
        points = np.array([0.0, 0.1, 0.9, 1.0])
        result = tosca.kmeans(points, 2)
        # oracle: enumerate all 2-partitions, minimize inertia
        best_inertia, best_split = np.inf, None
        for assignment in itertools.product([0, 1], repeat=4):
            if len(set(assignment)) < 2:
                continue
            inertia = 0.0
            for label in (0, 1):
                members = points[[a == label for a in assignment]]
                inertia += ((members - members.mean()) ** 2).sum()
            if inertia < best_inertia:
                best_inertia, best_split = inertia, assignment
        assert abs(result.inertia - best_inertia) < 1e-12
        assert (result.labels[0] == result.labels[1]) and (
            result.labels[2] == result.labels[3]
        )
        assert result.labels[0] != result.labels[2]

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            tosca.kmeans(np.zeros((3, 2)), 4)

    def test_degenerate_points(self):
        points = np.array([[1.0, 1.0]] * 6)
        with pytest.raises(DegeneratePointsError):
            tosca.kmeans(points, 2)

    def test_inertia_nonincreasing_per_iteration(self, rng):
        points = rng.normal(size=(100, 4))
        for restart in range(5):
            _, _, history = _lloyd(
                points, 5, np.random.default_rng([7, restart]), 300, 1e-9
            )
            diffs = np.diff(history)
            assert (diffs <= 1e-12).all()

    def test_restart_determinism(self, rng):
        points = rng.normal(size=(60, 3))
        cfg = tosca.KMeansConfig(seed=3)
        a = tosca.kmeans(points, 4, cfg)
        b = tosca.kmeans(points, 4, cfg)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_every_cluster_nonempty(self, rng):
        points = rng.normal(size=(50, 2))
        result = tosca.kmeans(points, 7)
        assert set(result.labels.tolist()) == set(range(7))


def broadcast_distances(points, centroids):
    """Brute force: every point-centroid distance from one (n, k, d) array."""
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def broadcast_assign(points, centroids):
    """``_assign`` by brute force: the argmin of the broadcast distances,
    and the chosen distance less ||x||^2 as its score."""
    d2 = broadcast_distances(points, centroids)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(points)), labels] - (points**2).sum(axis=1)


def patch_assign(monkeypatch):
    """Route the Lloyd loop's labels through ``broadcast_assign``; the
    returned list grows by one entry per call."""
    calls = []

    def counting(points, centroids):
        calls.append(None)
        return broadcast_assign(points, centroids)

    monkeypatch.setattr(clustering, "_assign", counting)
    return calls


def _layout(a, order):
    return np.asfortranarray(a) if order == "F" else np.ascontiguousarray(a)


@st.composite
def points_and_centroids(draw):
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    order = draw(st.sampled_from("CF"))
    points = _layout(draw(arrays(np.float64, (n, d), elements=unit)), order)
    centroids = draw(arrays(np.float64, (k, d), elements=unit))
    return points, centroids


class TestGemmAssign:
    @settings(max_examples=300, deadline=None)
    @given(points_and_centroids())
    def test_matches_brute_force_off_ties(self, case):
        points, centroids = case
        labels, best = _assign(points, centroids)
        d2 = broadcast_distances(points, centroids)
        best_two = np.sort(d2, axis=1)[:, :2]
        clear = (
            np.ones(len(points), dtype=bool)
            if d2.shape[1] == 1
            else best_two[:, 1] - best_two[:, 0] > 1e-12
        )
        assert np.array_equal(labels[clear], np.argmin(d2, axis=1)[clear])
        chosen = d2[np.arange(len(points)), labels]
        # the score plus ||x||^2 is the chosen distance up to rounding ...
        assert np.allclose(best + (points**2).sum(axis=1), chosen, rtol=0.0, atol=1e-12)
        # ... and _sq_dist is the broadcast one, bit for bit, near-ties included
        assert np.array_equal(_sq_dist(points, centroids, labels), chosen)

    @pytest.mark.parametrize("order", ["C", "F", "F-slice", "rows"])
    def test_distances_bitwise_in_every_layout(self, rng, order):
        # row-major points are reduced pairwise by numpy, column-major
        # ones column by column; the distances follow either way
        base = rng.normal(size=(400, 33))
        points = {
            "C": np.ascontiguousarray(base[:, :32]),
            "F": np.asfortranarray(base[:, :32]),
            "F-slice": np.asfortranarray(base)[:, 1:],
            "rows": base[::2, :32],
        }[order]
        centroids = rng.normal(size=(32, 32))
        labels, _ = _assign(points, centroids)
        d2 = broadcast_distances(points, centroids)
        assert np.array_equal(labels, np.argmin(d2, axis=1))
        assert np.array_equal(
            _sq_dist(points, centroids, labels), d2[np.arange(len(points)), labels]
        )

    @pytest.mark.parametrize(
        "n,k,d,order",
        [(200, 4, 1, "C"), (12, 12, 3, "C"), (600, 16, 32, "C"), (600, 16, 32, "F")],
    )
    def test_kmeans_bitwise_equal_to_broadcast_assign(self, monkeypatch, n, k, d, order):
        rng = np.random.default_rng(n + k + d)
        centres = rng.normal(scale=3.0, size=(k, d))
        points = _layout(centres[rng.integers(k, size=n)] + rng.normal(size=(n, d)), order)
        cfg = tosca.KMeansConfig(restarts=4, seed=5)
        gemm = tosca.kmeans(points, k, cfg)
        calls = patch_assign(monkeypatch)
        brute = tosca.kmeans(points, k, cfg)
        assert calls
        assert np.array_equal(gemm.labels, brute.labels)
        assert gemm.inertia == brute.inertia

    def test_cluster_graph_bitwise_equal_to_broadcast_assign(self, monkeypatch):
        # the spectral solver's phi is column-major, as in the CLI
        e = 0.02 + 0.3 * np.eye(6)
        g = tosca.add_self_loops(
            tosca.dsbm_sample(tosca.DSBMParams(r_b=6, n_b=40, e=e, seed=2)), 1.0
        )
        gemm = tosca.cluster_graph(g, 6)
        calls = patch_assign(monkeypatch)
        brute = tosca.cluster_graph(g, 6)
        assert calls
        assert np.array_equal(gemm.labels, brute.labels)
        assert gemm.inertia == brute.inertia


def mask_loop_lloyd(points, k, rng, max_iter, tol):
    """Reference Lloyd restart: reseed by the broadcast-equal distances,
    centroid update by one boolean mask per cluster, history from the
    scores."""
    centroids = clustering._kmeanspp_init(points, k, rng)
    sq = (points**2).sum(axis=1)
    history = []
    labels, best = clustering._assign(points, centroids)
    for _ in range(max_iter):
        dist2 = _sq_dist(points, centroids, labels)
        for j in range(k):
            if not (labels == j).any():
                far = int(np.argmax(dist2))
                centroids[j] = points[far]
                labels[far] = j
                dist2[far] = 0.0
                best[far] = -sq[far]
        history.append(float(best.sum() + sq.sum()))
        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = points[members].mean(axis=0)
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        labels, best = clustering._assign(points, centroids)
        if shift <= tol:
            break
    history.append(float(best.sum() + sq.sum()))
    return labels, float(_sq_dist(points, centroids, labels).sum()), history


def assert_same_restart(a, b):
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]
    assert a[2] == b[2]


class TestCentroidUpdate:
    @pytest.mark.parametrize("d", [2, 3, 32])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_equal_to_mask_loop(self, d, order):
        rng = np.random.default_rng(d)
        for trial in range(6):
            n = int(rng.integers(20, 600))
            k = int(rng.integers(1, 17))
            points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
            if trial % 2:
                points = np.round(points, 0)  # duplicates and ties
            points = _layout(points, order)
            assert_same_restart(
                _lloyd(points, k, np.random.default_rng([1, trial]), 300, 1e-9),
                mask_loop_lloyd(points, k, np.random.default_rng([1, trial]), 300, 1e-9),
            )

    def test_reseed_that_empties_a_later_cluster(self, monkeypatch):
        # Centroid 1 duplicates centroid 0, so cluster 1 starts empty and
        # is reseeded at the farthest point, (100, 0). That point was the
        # only member of cluster 2, which must be reseeded in the same pass.
        points = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [100.0, 0.0]])
        init = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]])
        monkeypatch.setattr(clustering, "_kmeanspp_init", lambda p, k, rng: init.copy())
        rng = np.random.default_rng(0)
        for max_iter in (1, 300):
            restart = _lloyd(points, 3, rng, max_iter, 1e-9)
            assert_same_restart(restart, mask_loop_lloyd(points, 3, rng, max_iter, 1e-9))
        assert restart[0].tolist() == [0, 0, 2, 1]
        assert restart[2][0] == 1.0


class TestClusterGraph:
    def test_three_cycles_recovered(self):
        g = three_cycles_graph()
        truth = np.repeat([0, 1, 2], 4)
        result = tosca.cluster_graph(g, 3)
        assert tosca.adjusted_rand_index(result.labels, truth) == 1.0

    def test_four_block_dsbm_recovered(self):
        params = tosca.DSBMParams(r_b=4, n_b=100, e=example_block_matrix(), seed=0)
        g = tosca.dsbm_sample(params)
        truth = params.block_labels()
        result = tosca.cluster_graph(g, 4)
        assert tosca.adjusted_rand_index(result.labels, truth) == 1.0

    def test_dense_off_diagonal_two_block(self):
        e = np.array([[0.01, 0.99], [0.99, 0.01]])
        params = tosca.DSBMParams(r_b=2, n_b=100, e=e, seed=1)
        g = tosca.add_self_loops(tosca.dsbm_sample(params), 1.0)
        result = tosca.cluster_graph(g, 2)
        truth = params.block_labels()
        assert tosca.adjusted_rand_index(result.labels, truth) == 1.0

    def test_feature_variants(self):
        g = three_cycles_graph()
        truth = np.repeat([0, 1, 2], 4)
        for use in ("psi", "both"):
            result = tosca.cluster_graph(g, 3, use=use)
            assert tosca.adjusted_rand_index(result.labels, truth) == 1.0

    def test_drop_first(self):
        g = three_cycles_graph()
        truth = np.repeat([0, 1, 2], 4)
        result = tosca.cluster_graph(g, 3, drop_first=True)
        assert tosca.adjusted_rand_index(result.labels, truth) == 1.0

    def test_invariant_under_vertex_permutation(self, rng):
        g = three_cycles_graph()
        perm = rng.permutation(12)
        relabeled = tosca.from_edge_list(
            12,
            [(int(perm[s]), int(perm[d]), w) for s, d, w in g.edges],
            directed=True,
        )
        base = tosca.cluster_graph(g, 3).labels
        permuted = tosca.cluster_graph(relabeled, 3).labels
        assert tosca.adjusted_rand_index(base, permuted[perm]) == 1.0

    @pytest.mark.parametrize("use,drop_first", [("phi", False), ("both", True)])
    def test_spectrum_is_fb_spectrum(self, rng, use, drop_first):
        g = random_directed_graph(30, rng)
        raw = rng.uniform(0.5, 2.0, 30)
        mu = tosca.Density(raw / raw.sum())
        result = tosca.cluster_graph(g, 3, mu=mu, use=use, drop_first=drop_first)
        spec = tosca.fb_spectrum(tosca.transition_matrix(g), mu, 3)
        for field in ("kappa", "lam", "phi", "psi"):
            assert np.array_equal(getattr(result.spectrum, field), getattr(spec, field))

    def test_two_block_median_ari(self):
        e = np.array([[0.99, 0.01], [0.01, 0.99]])
        truth = np.repeat([0, 1], 50)
        aris = []
        for seed in range(20):
            params = tosca.DSBMParams(r_b=2, n_b=50, e=e, seed=seed)
            g = tosca.add_self_loops(tosca.dsbm_sample(params), 1.0)
            labels = tosca.cluster_graph(g, 2, cfg=tosca.KMeansConfig(seed=seed)).labels
            aris.append(tosca.adjusted_rand_index(labels, truth))
        assert np.median(aris) == 1.0


class TestCoherenceScore:
    def test_permutation_graph_any_subset(self):
        g = tosca.from_edge_list(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
        assert tosca.coherence_score(g, None, {0, 2}) == pytest.approx(1.0, abs=1e-12)

    def test_cycle_fixture_ordering(self):
        # a whole cycle is coherent; a straddling set is dispersed
        g = three_cycles_graph()
        coherent = tosca.coherence_score(g, None, range(0, 4))
        straddling = tosca.coherence_score(g, None, range(6, 10))
        assert coherent > straddling

    def test_isolated_self_loop_vertex(self):
        g = tosca.from_edge_list(
            3, [(0, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0)]
        )
        assert tosca.coherence_score(g, None, {0}) == pytest.approx(1.0, abs=1e-12)

    def test_empty_subset(self):
        g = three_cycles_graph()
        with pytest.raises(EmptySubsetError):
            tosca.coherence_score(g, None, set())

    @pytest.mark.parametrize("subset, bad", [([-1, 2], -1), ([2, 5, 3], 3), ([0, 4, -2], -2)])
    def test_vertex_outside_graph_named(self, subset, bad):
        # the first vertex outside [0, n) in sorted order, not the largest vertex
        g = tosca.from_edge_list(3, [(i, (i + 1) % 3, 1.0) for i in range(3)])
        with pytest.raises(IndexOutOfRangeError, match=rf"^vertex index {bad} outside \[0, 3\)$"):
            tosca.coherence_score(g, None, subset)

    def test_matches_dense_forward_backward(self, rng):
        for _ in range(5):
            n = int(rng.integers(5, 40))
            g = random_directed_graph(n, rng, density=0.2)
            raw = rng.uniform(0.2, 3.0, n)
            mu = tosca.Density(raw / raw.sum())
            f = tosca.forward_backward(tosca.transition_matrix(g), mu).m
            subset = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            dense = f[np.ix_(subset, subset)].sum() / len(subset)
            assert abs(tosca.coherence_score(g, mu, subset) - dense) < 1e-12

    def test_zero_density_rejected(self):
        g = three_cycles_graph()
        with pytest.raises(NonPositiveDensityError):
            tosca.coherence_score(g, tosca.Density(np.eye(12)[0]), {0, 1})
        # vertex 0 has no in-edges, so nu vanishes there
        g = tosca.from_edge_list(2, [(0, 1, 1.0), (1, 1, 1.0)])
        with pytest.raises(NonPositiveDensityError) as info:
            tosca.coherence_score(g, None, {0})
        assert info.value.which == "nu"

    def test_in_unit_interval(self, rng):
        g = random_directed_graph(15, rng)
        subset = rng.choice(15, size=5, replace=False)
        score = tosca.coherence_score(g, None, subset)
        assert 0.0 <= score <= 1.0 + 1e-12
