import hashlib
import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tosca
from tosca import clustering
from tosca.cli import main
from tosca.clustering import _assign, _kmeanspp_init, _lloyd
from tosca.errors import (
    DegeneratePointsError,
    EmptySubsetError,
    IndexOutOfRangeError,
    KTooLargeError,
    NonPositiveDensityError,
    ToscaError,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, bad):
        # rejected before k-means++ draws with NaN probabilities
        points = np.arange(12.0).reshape(6, 2)
        points[4, 1] = bad
        points[5, 0] = np.nan
        with pytest.raises(DegeneratePointsError, match=r"^row 4 is not finite$"):
            tosca.kmeans(points, 2)

    def test_three_dimensional_points_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(4, 3, 2\)"):
            tosca.kmeans(np.zeros((4, 3, 2)), 2)

    def test_points_without_coordinates_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(5, 0\)"):
            tosca.kmeans(np.zeros((5, 0)), 2)

    def test_complex_points_rejected(self):
        # rejected before a cast would drop the imaginary parts
        points = np.arange(6.0).reshape(3, 2) * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="complex128"):
                tosca.kmeans(points, 2)

    def test_inertia_nonincreasing_per_iteration(self, rng):
        points = rng.normal(size=(100, 4))
        for r in range(5):
            start = _kmeanspp_init(points, 5, np.random.default_rng([7, r]))
            _, _, history = _lloyd(points, start, 300, 1e-9)
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

    def test_no_iterations_keeps_the_init_assignment(self, rng):
        points = rng.normal(size=(40, 3))
        result = tosca.kmeans(points, 4, tosca.KMeansConfig(restarts=1, max_iter=0, seed=2))
        init = _kmeanspp_init(points, 4, np.random.default_rng([2, 0]))
        assert np.array_equal(result.labels, broadcast_assign(points, init)[0])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"restarts": 0}, "restarts"),
            ({"max_iter": -1}, "max_iter"),
            ({"restarts": 2.5}, "restarts must be an integer"),
            ({"max_iter": 2.5}, "max_iter must be an integer"),
            ({"tol": float("nan")}, "tol"),
            ({"tol": -1e-9}, "tol"),
        ],
    )
    def test_config_rejects_values_out_of_range(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            tosca.KMeansConfig(**kwargs)

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 3)),
            elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, np.nan]),
        ),
        st.integers(1, 12),
    )
    def test_distinct_rows_verdict_matches_unique(self, points, k):
        # grid points repeat rows; -0.0 equals 0.0 there and NaN rows differ
        assert clustering._has_k_distinct_rows(points, k) == (
            len(np.unique(points, axis=0)) >= k
        )

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 10), st.integers(1, 3)),
            elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
        ),
        st.data(),
    )
    def test_kmeans_rejects_exactly_the_degenerate_inputs(self, points, data):
        k = data.draw(st.integers(1, len(points)))
        cfg = tosca.KMeansConfig(restarts=1, max_iter=2)
        if len(np.unique(points, axis=0)) < k:
            with pytest.raises(DegeneratePointsError):
                tosca.kmeans(points, k, cfg)
        else:
            assert len(set(tosca.kmeans(points, k, cfg).labels.tolist())) == k

    def test_distinct_rows_check_holds_no_copy_of_the_points(self):
        # np.unique(points, axis=0) peaked at about 15 MB here
        points = np.asfortranarray(np.random.default_rng(0).normal(size=(20000, 32)))
        clustering._has_k_distinct_rows(points[:8], 2)  # first-use imports
        tracemalloc.start()
        try:
            assert clustering._has_k_distinct_rows(points, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < points.nbytes / 4

    def test_peak_memory_does_not_grow_with_restarts_times_k(self):
        # one (n, restarts * k) score array would take 51 MB here; the
        # restarts run one at a time and the row blocks keep the scores
        # near 64k floats
        n, k, restarts = 20000, 32, 10
        points = np.asfortranarray(np.random.default_rng(0).normal(size=(n, 32)))
        cfg = tosca.KMeansConfig(restarts=restarts, max_iter=3)
        tosca.kmeans(points[:64], 2, cfg)  # loads what kmeans imports on first use
        tracemalloc.start()
        try:
            tosca.kmeans(points, k, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * restarts * k * 8 / 2


def broadcast_distances(points, centroids):
    """Brute force: every point-centroid distance from one (n, k, d) array."""
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def broadcast_assign(points, centroids):
    """``_assign`` by brute force: the argmin of the broadcast distances,
    and the chosen distance."""
    d2 = broadcast_distances(points, centroids)
    chosen = np.argmin(d2, axis=1)
    return chosen, d2[np.arange(len(points)), chosen]


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
        labels, dist2 = _assign(points, centroids)
        d2 = broadcast_distances(points, centroids)
        best_two = np.sort(d2, axis=1)[:, :2]
        clear = (
            np.ones(len(points), dtype=bool)
            if d2.shape[1] == 1
            else best_two[:, 1] - best_two[:, 0] > 1e-12
        )
        assert np.array_equal(labels[clear], np.argmin(d2, axis=1)[clear])
        # the chosen distance, up to rounding, near-ties included
        chosen = d2[np.arange(len(points)), labels]
        assert np.allclose(dist2, chosen, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "n,k,d",
        [
            (1, 1, 40),
            (2, 1, 40),
            (700, 9, 33),
            (4099, 32, 32),
            (300, 17, 64),
            (600, 41, 16),
            (2049, 32, 32),
            (2049, 1, 3),
        ],
    )
    def test_scores_do_not_depend_on_the_batch(self, monkeypatch, order, n, k, d):
        # a point's label and distance are the same whichever batch of
        # rows it is assigned in, and so in any row blocking: one row per
        # block, seven, or all in one (4099 and 2049 rows leave short
        # last blocks)
        rng = np.random.default_rng(n + k + d)
        points = _layout(rng.normal(size=(n, d)), order)
        centroids = rng.normal(size=(k, d))
        labels, dist2 = _assign(points, centroids)
        for lo, hi in ((0, 1), (n - 1, n), (n // 3, n), (0, n // 2 + 1), (n // 4, 3 * n // 4 + 1)):
            alone = _assign(points[lo:hi], centroids)
            assert np.array_equal(alone[0], labels[lo:hi])
            assert np.array_equal(alone[1], dist2[lo:hi])
        width = max(k, d)
        for block in (width, 7 * width, n * width):
            monkeypatch.setattr(clustering, "_BLOCK", block)
            reblocked = _assign(points, centroids)
            assert np.array_equal(reblocked[0], labels)
            assert np.array_equal(reblocked[1], dist2)

    def test_scores_equal_one_product_over_all_points(self, rng):
        # row blocks of 2048 cut 4100 points; a 32-column product over
        # all of them gives the same labels, and the distances are those
        # of the chosen centroids (numpy sums a row in another order)
        points = rng.normal(size=(4100, 32))
        centroids = rng.normal(size=(32, 32))
        labels, dist2 = _assign(points, centroids)
        scores = (centroids**2).sum(axis=1) - 2.0 * (points @ centroids.T)
        assert np.array_equal(labels, scores.argmin(axis=1))
        chosen = ((points - centroids[labels]) ** 2).sum(axis=1)
        np.testing.assert_allclose(dist2, chosen, rtol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocked_distances_equal_broadcast(self, rng, order):
        # more rows than one block holds at k = 32, and a remainder of one row
        points = _layout(rng.normal(size=(4097, 32)), order)
        centroids = rng.normal(size=(32, 32))
        labels, dist2 = _assign(points, centroids)
        d2 = broadcast_distances(points, centroids)
        assert np.array_equal(labels, np.argmin(d2, axis=1))
        chosen = d2[np.arange(len(points)), labels]
        # the broadcast sums each distance in another order
        np.testing.assert_allclose(dist2, chosen, rtol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F", "F-slice", "rows"])
    def test_distances_bitwise_in_every_layout(self, rng, order):
        # _lloyd and kmeans take the points row-major once, so labels,
        # distances, histories and inertia are the same bits in any layout
        base = rng.normal(size=(400, 33))
        points = {
            "C": np.ascontiguousarray(base[:, :32]),
            "F": np.asfortranarray(base[:, :32]),
            "F-slice": np.asfortranarray(base)[:, 1:],
            "rows": base[::2, :32],
        }[order]
        reference = np.ascontiguousarray(points)
        start = rng.normal(size=(3, 8, 32))
        for centroids in start:
            run = _lloyd(points, centroids, 300, 1e-9)
            ref = _lloyd(reference, centroids, 300, 1e-9)
            assert np.array_equal(run[0], ref[0])
            assert run[1] == ref[1]
            assert run[2] == ref[2]
        d2 = broadcast_distances(reference, start[0])
        first = _lloyd(points, start[0], 0, 1e-9)
        assert np.array_equal(first[0], np.argmin(d2, axis=1))
        cfg = tosca.KMeansConfig(restarts=3, seed=4)
        got, want = tosca.kmeans(points, 8, cfg), tosca.kmeans(reference, 8, cfg)
        assert np.array_equal(got.labels, want.labels)
        assert got.inertia == want.inertia

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
        # the broadcast sums each distance in another order
        assert gemm.inertia == pytest.approx(brute.inertia, rel=1e-12, abs=0.0)

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
        # the broadcast sums each distance in another order
        assert gemm.inertia == pytest.approx(brute.inertia, rel=1e-12, abs=0.0)


def mask_loop_lloyd(points, centroids, max_iter, tol):
    """Reference Lloyd restart from the start ``centroids``: reseed at the
    farthest point, centroid update by one boolean mask per cluster with
    the members summed in row order, history and inertia from
    ``_assign``'s distances."""
    centroids = centroids.copy()
    history = []
    labels, dist2 = clustering._assign(points, centroids)
    for _ in range(max_iter):
        for j in range(len(centroids)):
            if not (labels == j).any():
                far = int(np.argmax(dist2))
                centroids[j] = points[far]
                labels[far] = j
                dist2[far] = 0.0
        history.append(float(dist2.sum()))
        new_centroids = centroids.copy()
        for j in range(len(centroids)):
            members = labels == j
            if members.any():
                new_centroids[j] = np.cumsum(points[members], axis=0)[-1] / members.sum()
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        labels, dist2 = clustering._assign(points, centroids)
        if shift <= tol:
            break
    history.append(float(dist2.sum()))
    return labels, history[-1], history


def assert_same_restart(a, b):
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]
    assert a[2] == b[2]


def best_restart(runs):
    """The restart kmeans keeps: the first with the lowest inertia."""
    best = runs[0]
    for run in runs[1:]:
        if run[1] < best[1]:
            best = run
    return best


def kmeanspp_starts(points, k, seed, restarts):
    """The k-means++ start of every restart, each from its own stream."""
    return [_kmeanspp_init(points, k, np.random.default_rng([seed, r])) for r in range(restarts)]


@st.composite
def kmeans_cases(draw):
    """Points with duplicate rows and ties (from a small grid) or without
    (any floats), in either layout, with a k from 1 to the number of
    distinct rows."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 4))
    grid = st.integers(-2, 2).map(float)
    elements = draw(st.sampled_from([grid, st.floats(-1e3, 1e3, allow_nan=False)]))
    points = draw(arrays(np.float64, (n, d), elements=elements))
    points = _layout(points, draw(st.sampled_from("CF")))
    k = draw(st.integers(1, len(np.unique(points, axis=0))))
    return points, k


class TestRestarts:
    @settings(max_examples=200, deadline=None)
    @given(kmeans_cases(), st.integers(1, 4), st.integers(0, 2**16))
    def test_kmeans_is_the_best_reference_restart(self, case, restarts, seed):
        points, k = case
        cfg = tosca.KMeansConfig(restarts=restarts, seed=seed)
        init = kmeanspp_starts(points, k, seed, restarts)
        refs = [mask_loop_lloyd(points, start, cfg.max_iter, cfg.tol) for start in init]
        for start, ref in zip(init, refs):
            assert_same_restart(_lloyd(points, start, cfg.max_iter, cfg.tol), ref)
        result = tosca.kmeans(points, k, cfg)
        labels, inertia, _ = best_restart(refs)
        assert np.array_equal(result.labels, labels)
        assert result.inertia == inertia

    def test_permuted_starts_tie_exactly(self, rng):
        # one partition under two label orders has one inertia, bit for
        # bit, so kmeans' tie rule picks the lower restart, far from 0 too
        points = 1e3 + rng.normal(size=(300, 5))
        start = points[:6]
        runs = [_lloyd(points, s, 300, 1e-9) for s in (start, start[::-1])]
        assert np.array_equal(runs[0][0], 5 - runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    @settings(max_examples=200, deadline=None)
    @given(kmeans_cases(), st.data())
    def test_any_starts_match_the_reference(self, case, data):
        # starts drawn from the points with repeats leave clusters empty,
        # so some runs reseed and others do not
        points, k = case
        restarts = data.draw(st.integers(1, 4))
        rows = data.draw(arrays(np.int64, (restarts, k), elements=st.integers(0, len(points) - 1)))
        max_iter = data.draw(st.sampled_from([0, 1, 2, 300]))
        for start in np.asarray(points)[rows]:
            run = _lloyd(points, start, max_iter, 1e-9)
            assert_same_restart(run, mask_loop_lloyd(points, start, max_iter, 1e-9))


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
            for start in kmeanspp_starts(points, k, trial, 3):
                run = _lloyd(points, start, 300, 1e-9)
                assert_same_restart(run, mask_loop_lloyd(points, start, 300, 1e-9))

    def test_reseed_that_empties_a_later_cluster(self):
        # Centroid 1 duplicates centroid 0, so cluster 1 starts empty and
        # is reseeded at the farthest point, (100, 0). That point was the
        # only member of cluster 2, which must be reseeded in the same pass.
        # The other start needs no reseed.
        points = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [100.0, 0.0]])
        init = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]])
        other = np.array([[0.0, 0.0], [5.0, 0.0], [100.0, 0.0]])
        for max_iter in (1, 300):
            runs = [_lloyd(points, start, max_iter, 1e-9) for start in (other, init)]
            for run, start in zip(runs, (other, init)):
                assert_same_restart(run, mask_loop_lloyd(points, start, max_iter, 1e-9))
        assert runs[1][0].tolist() == [0, 0, 2, 1]
        assert runs[1][2][0] == 1.0


# k-means++ weights: zeros, and masses spread over 1e-18..1e3
d2_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-18, 1e3), st.sampled_from([1e-18, 1.0, 1e3])),
    min_size=1, max_size=50,
)


class TestKMeansppDraw:
    @settings(max_examples=300, deadline=None)
    @given(d2_weights, st.integers(0, 2**32 - 1), st.integers(0, 49))
    def test_equals_generator_choice(self, weights, seed, nonzero):
        d2 = np.asarray(weights)
        if d2.sum() == 0.0:
            d2[nonzero % len(d2)] = 1.0
        p = d2 / d2.sum()
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert clustering._choice(p, ours) == numpys.choice(len(p), p=p)
        assert ours.random() == numpys.random()

    @settings(max_examples=200, deadline=None)
    @given(d2_weights, st.integers(0, 49))
    def test_equals_generator_choice_at_every_cdf_value(self, weights, nonzero):
        # uniforms that hit a cum exactly, 0 and the largest double below 1
        # decide ties and zero weights, which random uniforms almost never do
        d2 = np.asarray(weights)
        if d2.sum() == 0.0:
            d2[nonzero % len(d2)] = 1.0
        p = d2 / d2.sum()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        for u in (0.0, np.nextafter(1.0, 0.0), *cdf[cdf < 1.0]):
            assert clustering._choice(p, _FixedUniform(u)) == _FixedUniform(u).choice(len(p), p=p)

    @pytest.mark.parametrize("n", [1, 7])
    def test_one_nonzero_entry(self, n):
        for i in range(n):
            p = np.eye(n)[i]
            assert clustering._choice(p, np.random.default_rng(i)) == i


class _FixedUniform(np.random.Generator):
    """A Generator whose every uniform is u; ``Generator.choice`` draws through it too."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u


def clustered_points(seed, n, d, blobs):
    """n points around ``blobs`` random centres, unit noise."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=3.0, size=(blobs, d))
    return centres[rng.integers(blobs, size=n)] + rng.normal(size=(n, d))


class TestKMeansPinned:
    # SHA-256 of the int64 labels and float.hex of the inertia of kmeans
    # with restarts=10 and seed=3, so a change to what a seed produces
    # fails here. On the Cauchy points the winning restart (2) reseeds an
    # empty cluster, left by a far outlier.
    CASES = {
        "blobs_2d": (
            lambda: clustered_points(0, 300, 2, 5),
            5,
            "77a23c093df9faeb20ae924217638e020e4c45e312241528d0df7c23d8979c65",
            "0x1.f466429ad8cb0p+8",
        ),
        "blobs_8d": (
            lambda: clustered_points(1, 500, 8, 8),
            8,
            "0c36f854b28f2f9539076ebb52127253556d010b41c9772714330d42b290182b",
            "0x1.f23effc6423abp+11",
        ),
        "cauchy_reseed": (
            lambda: np.random.default_rng(5392).standard_cauchy(size=(16, 2)),
            6,
            "4392ed58d0330d58c03a651c8fe4dadb58ba30b559be038139410a4a693a0678",
            "0x1.548c15bf1f161p+2",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_labels_and_inertia_pinned(self, case):
        make, k, labels_sha, inertia_hex = self.CASES[case]
        result = tosca.kmeans(make(), k, tosca.KMeansConfig(restarts=10, seed=3))
        assert hashlib.sha256(result.labels.astype(np.int64).tobytes()).hexdigest() == labels_sha
        assert result.inertia.hex() == inertia_hex

    def test_reseed_case_empties_a_cluster(self, monkeypatch):
        points = self.CASES["cauchy_reseed"][0]()
        start = _kmeanspp_init(points, 6, np.random.default_rng([3, 2]))
        emptied = []

        def recording(points, centroids):
            labels, dist2 = _assign(points, centroids)
            emptied.append(len(np.unique(labels)) < len(centroids))
            return labels, dist2

        monkeypatch.setattr(clustering, "_assign", recording)
        _lloyd(points, start, 300, 1e-9)
        # every assignment but the last is followed by a round that reseeds
        assert any(emptied[:-1])


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

    def test_unknown_feature_choice_rejected_before_solving(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("fb_spectrum called")

        monkeypatch.setattr(clustering, "fb_spectrum", unreachable)
        with pytest.raises(ValueError, match=r"^unknown feature choice 'bogus'$"):
            tosca.cluster_graph(three_cycles_graph(), 3, use="bogus")

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

    def test_cli_dsbm_graph_of_seed_300_finds_the_planted_blocks(self, tmp_path):
        # the cli-dsbm-8k graph of seed 300: ten k-means++ restarts merged
        # blocks there, at ARI 0.8946 and inertia 34655 against the
        # planted blocks' 20302
        blocks, size = 32, 250
        probs = np.full((blocks, blocks), 0.001)
        np.fill_diagonal(probs, 0.05)
        np.savetxt(tmp_path / "probs.csv", probs, delimiter=",", fmt="%.17g")
        assert main([
            "generate", "dsbm", "--blocks", str(blocks), "--block-size", str(size),
            "--probs", str(tmp_path / "probs.csv"), "--mtx", "-o", str(tmp_path / "g.mtx"),
            "--seed", "300",
        ]) == 0
        g = tosca.add_self_loops(tosca.read_matrix_market(tmp_path / "g.mtx"), 1.0)
        result = tosca.cluster_graph(g, blocks)
        truth = np.repeat(np.arange(blocks), size)
        phi = result.spectrum.phi
        centres = np.stack([phi[truth == j].mean(axis=0) for j in range(blocks)])
        planted = float(((phi - centres[truth]) ** 2).sum())
        assert tosca.adjusted_rand_index(result.labels, truth) >= 0.999
        # up to the order in which the squared distances are summed
        assert result.inertia <= planted * (1 + 1e-12)

    def test_max_iter_zero_keeps_the_pivoted_qr_start(self):
        g = three_cycles_graph()
        result = tosca.cluster_graph(g, 3, cfg=tosca.KMeansConfig(max_iter=0))
        start = clustering._cpqr_start(result.spectrum.phi, 3)
        assert np.array_equal(result.labels, broadcast_assign(result.spectrum.phi, start)[0])

    def test_pivoted_qr_start_takes_one_row_per_cycle(self):
        phi = tosca.cluster_graph(three_cycles_graph(), 3).spectrum.phi
        start = clustering._cpqr_start(phi, 3)
        assert start.shape == (3, 3)
        rows = [np.flatnonzero((phi == row).all(axis=1))[0] for row in start]
        assert sorted(row // 4 for row in rows) == [0, 1, 2]


def hard_dsbm(seed: int, p: float, q: float) -> tosca.Graph:
    """4 blocks of 100 with unit self-loops, p inside a block and q across."""
    e = np.full((4, 4), q)
    np.fill_diagonal(e, p)
    return tosca.add_self_loops(
        tosca.dsbm_sample(tosca.DSBMParams(r_b=4, n_b=100, e=e, seed=seed)), 1.0
    )


hard_cases = st.tuples(st.sampled_from([(0.12, 0.06), (0.1, 0.07)]), st.integers(0, 2**16))


class TestClusterGraphProperties:
    @settings(max_examples=12, deadline=None)
    @given(hard_cases, st.integers(0, 2**32 - 1))
    def test_relabelled_graph_gets_the_same_partition(self, case, perm_seed):
        # k-means++ draws by row index, and agreed in only 4 of 12 such
        # cases; phi itself agrees across numberings only to about 1e-13
        (p, q), seed = case
        g = hard_dsbm(seed, p, q)
        perm = np.random.default_rng(perm_seed).permutation(g.n)
        relabelled = tosca.from_edge_list(
            g.n, zip(perm[g.src].tolist(), perm[g.dst].tolist(), g.weight.tolist())
        )
        base = tosca.cluster_graph(g, 4).labels
        moved = tosca.cluster_graph(relabelled, 4).labels
        assert tosca.adjusted_rand_index(base, moved[perm]) == 1.0

    @settings(max_examples=8, deadline=None)
    @given(hard_cases, st.integers(0, 2**32 - 1), st.integers(1, 10))
    def test_labels_ignore_the_kmeans_seed_and_restarts(self, case, seed, restarts):
        (p, q), graph_seed = case
        g = hard_dsbm(graph_seed, p, q)
        base = tosca.cluster_graph(g, 4)
        other = tosca.cluster_graph(g, 4, cfg=tosca.KMeansConfig(restarts=restarts, seed=seed))
        assert np.array_equal(base.labels, other.labels)
        assert base.inertia == other.inertia


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

    @pytest.mark.parametrize("subset, bad", [
        ([0.5], "0.5"), ([1, np.nan], "nan"), ([5, np.inf], "inf"), (np.array([2.0, -0.5]), "-0.5"),
        # strings that are no numbers, from a list or a one-shot iterator
        (["x"], "x"), ([0, "y", 0.5], "y"), (iter(["2", "1e"]), "1e"),
        # values that float() rejects, though np.float64 takes them
        ([0, [1, 2]], "[1, 2]"), ([np.array([2.0])], "[2.]"),
    ])
    def test_non_integer_vertex_rejected(self, subset, bad):
        # checked before the range check, in the given order
        g = tosca.from_edge_list(3, [(i, (i + 1) % 3, 1.0) for i in range(3)])
        with pytest.raises(ToscaError) as caught:
            tosca.coherence_score(g, None, subset)
        assert type(caught.value) is ToscaError
        assert str(caught.value) == f"vertex {bad} is not an integer"
        assert caught.value.exit_code == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("subset, bad", [
        ([1e300], "1e+300"), ([0, 2**70], "1.1805916207174113e+21"),
        # numbers beyond float's range are named as given
        pytest.param([0, 10**400], str(10**400), id="int-beyond-float"),
        pytest.param([Fraction(10**400)], str(10**400), id="fraction-beyond-float"),
    ])
    def test_huge_vertex_named_not_cast(self, subset, bad):
        g = tosca.from_edge_list(3, [(i, (i + 1) % 3, 1.0) for i in range(3)])
        with pytest.raises(IndexOutOfRangeError) as caught:
            tosca.coherence_score(g, None, subset)
        assert str(caught.value) == f"vertex index {bad} outside [0, 3)"

    def test_integer_valued_floats_name_vertices(self):
        g = three_cycles_graph()
        assert tosca.coherence_score(g, None, [0.0, 1.0, 2]) == tosca.coherence_score(g, None, {0, 1, 2})
        assert tosca.coherence_score(g, None, ["0", "1.0", 2]) == tosca.coherence_score(g, None, {0, 1, 2})

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
