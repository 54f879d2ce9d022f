import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tosca
from tosca import datadriven
from tosca.errors import (
    DanglingVertexError,
    EmptySampleError,
    IndexOutOfRangeError,
    LengthMismatchError,
    ParseError,
)

from conftest import example_block_matrix, peak_mib, random_undirected_graph


def five_vertex_setup(rng=None):
    triples = [
        (0, 1, 2.0), (0, 2, 1.0), (1, 0, 1.0), (1, 3, 3.0), (2, 4, 1.0),
        (2, 0, 1.0), (3, 2, 2.0), (3, 3, 1.0), (4, 0, 1.0), (4, 4, 2.0),
    ]
    g = tosca.from_edge_list(5, triples)
    s = tosca.transition_matrix(g)
    mu = tosca.uniform_density(5)
    return g, s, mu


def dsbm_self_loop_graph():
    params = tosca.DSBMParams(r_b=3, n_b=40, e=example_block_matrix()[:3, :3], seed=5)
    return tosca.add_self_loops(tosca.dsbm_sample(params), 1.0)


def hub_graph(n, seed=0):
    """Vertex 0 links to all n vertices; every other vertex to its successor and 0."""
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, n)
    triples = [(0, j, float(weights[j])) for j in range(n)]
    triples += [(i, (i + 1) % n, 1.0) for i in range(1, n)]
    triples += [(i, 0, 0.5) for i in range(1, n)]
    return tosca.from_edge_list(n, triples)


def sparse_graph(n, out_degree, seed=0):
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, n, (n, out_degree))
    triples = [(i, int(j), 1.0) for i in range(n) for j in targets[i]]
    return tosca.add_self_loops(tosca.from_edge_list(n, triples), 1.0)


def dense_reference_walk(s, start, m, seed, trajectory):
    """The samplers' definition on dense cumulative rows, with their RNG call order."""
    rng = np.random.default_rng(seed)
    cum_rows = np.cumsum(s.dense(), axis=1)
    cum_start = np.cumsum(start.p)
    if trajectory:
        path = [np.searchsorted(cum_start, rng.random(1)[0], side="right")]
        for u in rng.random(m):
            path.append(np.searchsorted(cum_rows[path[-1]], u, side="right"))
        path = np.asarray(path)
        return path[:-1], path[1:]
    xs = np.searchsorted(cum_start, rng.random(m), side="right")
    ys = np.array([
        np.searchsorted(cum_rows[x], u, side="right")
        for x, u in zip(xs, rng.random(m))
    ])
    return xs, ys


def weighted_density(n):
    """Masses 1..7 in turn, and none on every fifth vertex from vertex 1 on."""
    w = 1.0 + np.arange(n) % 7
    w[1::5] = 0.0
    return tosca.Density(w / w.sum())


def fallback_graph():
    """Vertex 0 has 10 equal out-edges, whose cumulative sum ends below 1."""
    triples = [(0, j, 1.0) for j in range(1, 11)] + [(j, 0, 1.0) for j in range(1, 12)]
    return tosca.transition_matrix(tosca.from_edge_list(12, triples))


class _TopRng:
    """Stands in for default_rng: every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class _ListRng:
    """Stands in for default_rng: hands out the given uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size):
        drawn, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        return np.array(drawn)


class TestDrawsPinned:
    GRAPHS = {
        "five_vertex": lambda: five_vertex_setup()[0],
        "dsbm_self_loops": dsbm_self_loop_graph,
        "hub": lambda: hub_graph(150),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("trajectory", [False, True])
    def test_bitwise_equal_to_dense_inverse_cdf(self, graph, trajectory):
        self.check(self.GRAPHS[graph](), trajectory, tosca.uniform_density)

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("trajectory", [False, True])
    def test_weighted_start_bitwise_equal_to_dense_inverse_cdf(self, graph, trajectory):
        self.check(self.GRAPHS[graph](), trajectory, weighted_density)

    @staticmethod
    def check(g, trajectory, density):
        s = tosca.transition_matrix(g)
        mu = density(g.n)
        sampler = tosca.sample_trajectory if trajectory else tosca.sample_pairs
        for seed in (0, 1, 7, 123):
            sample = sampler(s, mu, 1500, seed=seed)
            xs, ys = dense_reference_walk(s, mu, 1500, seed, trajectory)
            assert np.array_equal(sample.xs, xs)
            assert np.array_equal(sample.ys, ys)
            assert sample.xs.dtype == sample.ys.dtype == np.int64

    def test_cumulative_rows_match_dense_cumsum(self):
        for g in (dsbm_self_loop_graph(), hub_graph(150)):
            s = tosca.transition_matrix(g)
            rows = s._cumulative_rows
            dense = np.cumsum(s.dense(), axis=1)
            row_of = np.repeat(np.arange(g.n), np.diff(rows.indptr))
            assert np.array_equal(rows.cum, dense[row_of, rows.indices])


class TestDrawFallback:
    def test_draw_at_row_total_stays_on_neighbour(self):
        rows = fallback_graph()._cumulative_rows
        assert rows.cum[rows.indptr[1] - 1] < 1.0
        u = np.array([np.nextafter(1.0, 0.0)])
        width = datadriven._row_width(rows)
        assert datadriven._draw_in_rows(rows, np.array([0]), u, width).tolist() == [10]

    def test_samplers_fall_back_to_last_support_vertex(self, monkeypatch):
        s = fallback_graph()
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _TopRng())
        at_zero = tosca.Density(np.eye(12)[0])
        assert tosca.sample_pairs(s, at_zero, 3).ys.tolist() == [10] * 3
        # ten masses of 0.1 sum to 1 - 2^-53; vertices 10 and 11 carry none
        tenths = tosca.Density(np.r_[np.full(10, 0.1), 0.0, 0.0])
        assert tosca.sample_pairs(s, tenths, 2).xs.tolist() == [9, 9]
        walk = tosca.sample_trajectory(s, tenths, 4)
        assert walk.xs.tolist() == [9, 0, 10, 0]
        assert walk.ys.tolist() == [0, 10, 0, 10]


# Weights spanning 20 orders of magnitude: a 1e-18 next to masses near 1
# leaves two equal consecutive cums; equal weights sum below 1 in floating point.
weights = st.one_of(
    st.floats(0.1, 10.0),
    st.sampled_from([1e-18, 1e-9, 1.0, 1.0, 3.0]),
)


@st.composite
def weighted_rows(draw):
    """A graph as rows of (column, weight) entries, possibly with a hub row."""
    n = draw(st.integers(1, 12))
    rows = [
        draw(st.lists(st.tuples(st.integers(0, n - 1), weights), min_size=1, max_size=2 * n))
        for _ in range(n)
    ]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [(j, draw(weights)) for j in range(n)]
    triples = [(i, j, w) for i, row in enumerate(rows) for j, w in row]
    return tosca.transition_matrix(tosca.from_edge_list(n, triples))


@st.composite
def densities(draw):
    """Masses with zeros, with tiny ones, and with heavy ones that crowd the
    remaining cums into few guide-table buckets."""
    masses = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-12, 1e-9), st.floats(0.01, 1.0), st.just(1e3)),
        min_size=1, max_size=60,
    ))
    p = np.asarray(masses)
    if p.sum() == 0.0:
        p[draw(st.integers(0, len(p) - 1))] = 1.0
    return p / p.sum()


def kernel_uniforms(data, stored):
    """Random uniforms, every stored cum below 1 exactly, 0 and the largest double below 1."""
    stored = stored[stored < 1.0]
    random = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
    return np.r_[random, stored, 0.0, np.nextafter(1.0, 0.0)]


def step_rule(s):
    """The draw rule of one walk step on S, per walker: from a row of d
    equal positive probabilities, entry min(floor(u d), d - 1); from any
    other row, searchsorted(cum, u, side="right") with the last-entry
    fallback. Read from S's own stored values, not from its cumulative rows."""
    csr = s.s.copy()
    csr.sum_duplicates()

    def step(v, u):
        lo, hi = csr.indptr[v], csr.indptr[v + 1]
        probs = csr.data[lo:hi]
        if probs.min() == probs.max() > 0.0:
            k = int(u * len(probs))
        else:
            k = np.searchsorted(np.cumsum(probs), u, side="right")
        return int(csr.indices[lo + min(k, len(probs) - 1)])

    return step


def density_rule(p, u):
    """The draw rule from a probability vector: support[min(floor(u d), d - 1)]
    on a support of d equal masses, else support[searchsorted(cum, u,
    side="right")] with the last-support fallback."""
    support = np.flatnonzero(p)
    masses = p[support]
    if masses.min() == masses.max():
        k = int(u * len(support))
    else:
        k = np.searchsorted(np.cumsum(masses), u, side="right")
    return int(support[min(k, len(support) - 1)])


class TestDrawKernels:
    """Each kernel follows the draw rule (``step_rule``, ``density_rule``):
    in rows and densities of unequal probabilities, a per-walker
    searchsorted(..., side="right") with the last-neighbour (last-support)
    fallback."""

    @settings(max_examples=200, deadline=None)
    @given(weighted_rows(), st.data())
    def test_in_rows_matches_searchsorted(self, s, data):
        rows = s._cumulative_rows
        u = kernel_uniforms(data, rows.cum)
        v = np.asarray(data.draw(st.lists(st.integers(0, s.n - 1), min_size=len(u), max_size=len(u))))
        step = step_rule(s)
        expected = [step(x, ux) for x, ux in zip(v, u)]
        width = datadriven._row_width(rows)
        assert datadriven._draw_in_rows(rows, v, u, width).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(weighted_rows(), st.data())
    def test_trajectory_matches_searchsorted(self, s, data):
        rows = s._cumulative_rows
        u = kernel_uniforms(data, rows.cum)
        start = data.draw(st.integers(0, s.n - 1))
        step = step_rule(s)
        v, expected = start, []
        for ux in u:
            v = step(v, ux)
            expected.append(v)
        at_start = tosca.Density(np.eye(s.n)[start])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "default_rng", lambda seed=None: _ListRng([0.5, *u]))
            walk = tosca.sample_trajectory(s, at_start, len(u))
        assert walk.xs[0] == start
        assert walk.ys.tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(densities(), st.data())
    def test_density_matches_searchsorted(self, p, data):
        support = np.flatnonzero(p)
        cum = np.cumsum(p[support])
        u = kernel_uniforms(data, cum)
        expected = [density_rule(p, ux) for ux in u]
        assert datadriven._draw_density(datadriven._guide_table(p), u).tolist() == expected

    def test_many_masses_in_one_bucket(self):
        # 199 masses share the first of 200 buckets; the heavy last one
        # takes nearly all the rest
        p = np.r_[np.full(199, 1e-9), 1.0]
        p /= p.sum()
        cum = np.cumsum(p)
        u = np.r_[cum[:-1], np.nextafter(cum[:-1], 0.0), np.linspace(0.0, 1.0, 50, endpoint=False)]
        expected = np.minimum(np.searchsorted(cum, u, side="right"), 199)
        assert np.array_equal(datadriven._draw_density(datadriven._guide_table(p), u), expected)


def boundary_uniforms(d):
    """The uniforms at the cell edges k/d of d equal probabilities and just
    below them: k/d for k < d, nextafter(k/d, 0) for 0 < k <= d, so 0 and
    nextafter(1, 0) among them."""
    edges = np.arange(d + 1) / d
    return np.r_[edges[:-1], np.nextafter(edges[1:], 0.0)]


def hubs_and_leaves(top):
    """S on hubs h = 1..top (vertex h - 1) and their leaves: hub h steps to
    each of its own h leaves with probability 1/h; a leaf of hub h steps
    back to it or on to hub h + 1, 1/2 each (a leaf of the last hub only
    back). Returns S and the first leaf of every hub."""
    import scipy.sparse as sp

    d = np.arange(1, top + 1)
    first_leaf = top + np.r_[0, np.cumsum(d)[:-1]]
    n = top + int(d.sum())
    hub_of_leaf = np.repeat(np.arange(top), d)
    on = hub_of_leaf < top - 1
    leaf_degree = 1 + on
    indptr = np.r_[0, np.cumsum(np.r_[d, leaf_degree])]
    leaf_rows = np.c_[hub_of_leaf, hub_of_leaf + 1][np.c_[np.ones_like(on), on]]
    indices = np.r_[np.arange(top, n), leaf_rows]
    data = np.concatenate([np.repeat(1.0 / d, d), np.repeat(1.0 / leaf_degree, leaf_degree)])
    s = tosca.TransitionMatrix(s=sp.csr_matrix((data, indices, indptr), shape=(n, n)))
    return s, first_leaf


class TestEqualProbabilityRows:
    """From a row or density of d equal probabilities a draw takes entry
    min(floor(u d), d - 1), with no search; every other row or density is
    searched as before."""

    TOP = 1000

    def test_even_counts_rows_of_equal_positive_probabilities(self):
        import scipy.sparse as sp

        rows = [[0.25, 0.25, 0.25, 0.25], [0.5, 0.25, 0.25], [1.0], [0.0, 0.5, 0.5],
                [np.nan, np.nan], [0.3, 0.3], [0.5, 0.0, 0.5]]
        indptr = np.r_[0, np.cumsum([len(r) for r in rows])]
        indices = np.concatenate([np.arange(len(r)) for r in rows])
        s = tosca.TransitionMatrix(
            s=sp.csr_matrix((np.concatenate(rows), indices, indptr), shape=(7, 7))
        )
        assert s._cumulative_rows.even.tolist() == [4, 0, 1, 0, 0, 2, 0]
        assert s._cumulative_rows.even.dtype == np.int64
        # [0.3, 0.3] sums to 0.6 but is drawn uniformly: u = 0.35 takes
        # entry 0, where its cums 0.3, 0.6 would give entry 1
        rows = s._cumulative_rows
        got = datadriven._draw_in_rows(rows, np.array([5, 5]), np.array([0.35, 0.65]), 1)
        assert got.tolist() == [0, 1]

    @settings(max_examples=100, deadline=None)
    @given(weighted_rows())
    def test_even_is_read_from_the_stored_values(self, s):
        csr = s.s.copy()
        csr.sum_duplicates()
        expected = [
            len(r) if r.min() == r.max() > 0.0 else 0
            for r in np.split(csr.data, csr.indptr[1:-1])
        ]
        assert s._cumulative_rows.even.tolist() == expected

    def test_index_of_the_largest_uniform_is_the_last_entry(self):
        # int(u d) <= d - 1 for every u < 1: the trajectory does not clamp
        top = np.nextafter(1.0, 0.0)
        d = np.r_[np.arange(1, 10**6 + 1), [2**k + j for k in range(20, 53) for j in (-1, 1)]]
        assert np.array_equal((top * d.astype(np.float64)).astype(np.int64), d - 1)
        # Python floats, as the trajectory multiplies them
        assert all(int(top * float(x)) == x - 1 for x in d[::999].tolist() + d[-66:].tolist())

    def test_in_rows_at_every_cell_edge(self):
        s, first_leaf = hubs_and_leaves(self.TOP)
        rows = s._cumulative_rows
        assert rows.even[: self.TOP].tolist() == list(range(1, self.TOP + 1))
        d = np.repeat(np.arange(1, self.TOP + 1), 2 * np.arange(1, self.TOP + 1))
        u = np.concatenate([boundary_uniforms(k) for k in range(1, self.TOP + 1)])
        expected = first_leaf[d - 1] + np.minimum((u * d).astype(np.int64), d - 1)
        got = datadriven._draw_in_rows(rows, d - 1, u, datadriven._row_width(rows))
        assert np.array_equal(got, expected)

    def test_trajectory_at_every_cell_edge(self, monkeypatch):
        # hub d's leaves step back with 0.25 and on with 0.75
        s, first_leaf = hubs_and_leaves(self.TOP)
        uniforms, expected = [0.5], []
        for d in range(1, self.TOP + 1):
            u = boundary_uniforms(d)
            back = np.full(len(u), 0.25)
            back[-1] = 0.75
            uniforms += np.c_[u, back].ravel().tolist()
            hubs = np.full(len(u), d - 1)
            hubs[-1] = min(d, self.TOP - 1)
            leaves = first_leaf[d - 1] + np.minimum((u * d).astype(np.int64), d - 1)
            expected += np.c_[leaves, hubs].ravel().tolist()
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _ListRng(uniforms))
        at_first_hub = tosca.Density(np.r_[1.0, np.zeros(s.n - 1)])
        walk = tosca.sample_trajectory(s, at_first_hub, len(uniforms) - 1)
        assert walk.xs[0] == 0
        assert walk.ys.tolist() == expected

    def test_density_at_every_cell_edge(self):
        for d in range(1, self.TOP + 1):
            p = np.zeros(2 * d + 1)
            p[1::2] = 1.0 / d
            u = boundary_uniforms(d)
            expected = 1 + 2 * np.minimum((u * d).astype(np.int64), d - 1)
            assert np.array_equal(datadriven._draw_density(datadriven._guide_table(p), u), expected)

    @staticmethod
    def mixed_graph():
        """Unit-weight rows with unit self-loops, and every third row weighted."""
        g = sparse_graph(400, 5, seed=3)
        weight = np.where(g.src % 3 == 0, 1.0 + np.random.default_rng(4).uniform(size=g.num_edges), 1.0)
        return tosca.from_edge_list(g.n, zip(g.src.tolist(), g.dst.tolist(), weight.tolist()))

    @pytest.mark.parametrize("density", [tosca.uniform_density, weighted_density],
                             ids=["uniform", "zero_masses"])
    @pytest.mark.parametrize("trajectory", [False, True])
    def test_mixed_rows_follow_the_rule(self, density, trajectory, monkeypatch):
        s = tosca.transition_matrix(self.mixed_graph())
        even = s._cumulative_rows.even
        assert 0 < (even > 0).sum() < s.n
        mu = density(s.n)
        step = step_rule(s)
        sampler = tosca.sample_trajectory if trajectory else tosca.sample_pairs
        # every stored cum and the cell edges of the even rows, then random uniforms
        edges = np.concatenate([boundary_uniforms(d) for d in np.unique(even[even > 0])])
        stored = s._cumulative_rows.cum[s._cumulative_rows.cum < 1.0]
        rng_uniforms = np.random.default_rng(8).random(3000)
        uniforms = np.r_[edges, stored, np.nextafter(stored, 0.0), rng_uniforms].tolist()
        m = len(uniforms) // 2 - 1
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _ListRng(uniforms))
        sample = sampler(s, mu, m)
        if trajectory:
            path = [density_rule(mu.p, uniforms[0])]
            for u in uniforms[1 : m + 1]:
                path.append(step(path[-1], u))
            xs, ys = path[:-1], path[1:]
        else:
            xs = [density_rule(mu.p, u) for u in uniforms[:m]]
            ys = [step(x, u) for x, u in zip(xs, uniforms[m : 2 * m])]
        assert sample.xs.tolist() == xs
        assert sample.ys.tolist() == ys
        visited = even[sample.xs]
        assert (visited > 0).any() and (visited == 0).any()

    @pytest.mark.parametrize("trajectory", [False, True])
    def test_without_even_rows_every_draw_is_searched(self, trajectory, monkeypatch):
        # random weights leave no row of equal probabilities: both samplers
        # draw as searchsorted on the dense cumulative rows at every stored
        # cum, and every walker of sample_pairs is searched.
        g = sparse_graph(150, 3, seed=5)
        weight = np.random.default_rng(6).uniform(0.5, 1.5, g.num_edges)
        s = tosca.transition_matrix(tosca.Graph(g.n, g.src, g.dst, weight))
        assert not s._cumulative_rows.even.any()
        stored = s._cumulative_rows.cum[s._cumulative_rows.cum < 1.0]
        uniforms = np.r_[stored, np.nextafter(stored, 0.0), 0.0].tolist()
        m = len(uniforms) // 2
        searched, first_above = [], datadriven._first_above
        monkeypatch.setattr(datadriven, "_first_above",
                            lambda *args: searched.append(len(args[3])) or first_above(*args))
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _ListRng(uniforms))
        mu = weighted_density(s.n)
        sampler = tosca.sample_trajectory if trajectory else tosca.sample_pairs
        sample = sampler(s, mu, m)
        xs, ys = dense_reference_walk(s, mu, m, None, trajectory)
        assert np.array_equal(sample.xs, xs)
        assert np.array_equal(sample.ys, ys)
        assert searched == ([1] if trajectory else [m, m])


class TestDanglingRows:
    def test_samplers_reject_an_empty_row(self):
        import scipy.sparse as sp

        s = tosca.TransitionMatrix(s=sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 0], [0.5, 0, 0.5]])))
        at_one = tosca.Density(np.eye(3)[1])
        for sampler in (tosca.sample_pairs, tosca.sample_trajectory):
            with pytest.raises(DanglingVertexError) as caught:
                sampler(s, at_one, 5)
            assert caught.value.vertex == 1

    def test_samplers_reject_a_row_of_stored_zeros(self):
        import scipy.sparse as sp

        # Row 1 stores one explicit 0.0 at column 2 and nothing else.
        s = tosca.TransitionMatrix(
            s=sp.csr_matrix(([1.0, 0.0, 0.5, 0.5], [1, 2, 0, 2], [0, 1, 2, 4]), shape=(3, 3))
        )
        at_one = tosca.Density(np.eye(3)[1])
        for sampler in (tosca.sample_pairs, tosca.sample_trajectory):
            with pytest.raises(DanglingVertexError) as caught:
                sampler(s, at_one, 5)
            assert caught.value.vertex == 1

    def test_first_empty_row_is_named(self):
        import scipy.sparse as sp

        s = tosca.TransitionMatrix(s=sp.csr_matrix((4, 4)))
        with pytest.raises(DanglingVertexError) as caught:
            s._cumulative_rows
        assert caught.value.vertex == 0


class TestSamplingTables:
    """One S builds its cumulative rows once; the draws do not depend on
    whether they were built before."""

    GRAPHS = {
        "five_vertex": lambda: five_vertex_setup()[0],
        "dsbm_self_loops": dsbm_self_loop_graph,
        "hub": lambda: hub_graph(150),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("density", [tosca.uniform_density, weighted_density],
                             ids=["uniform", "zero_masses"])
    def test_first_repeated_and_fresh_calls_agree(self, graph, density):
        s = tosca.transition_matrix(self.GRAPHS[graph]())
        mu = density(s.n)
        for seed in (0, 1, 7, 123):
            for sampler in (tosca.sample_pairs, tosca.sample_trajectory, tosca.sample_pairs):
                first = sampler(s, mu, 1500, seed)
                again = sampler(s, mu, 1500, seed)
                fresh = sampler(tosca.TransitionMatrix(s=s.s), mu, 1500, seed)
                for other in (again, fresh):
                    assert np.array_equal(first.xs, other.xs)
                    assert np.array_equal(first.ys, other.ys)

    def test_tables_built_once(self):
        s = tosca.transition_matrix(hub_graph(50))
        mu = tosca.uniform_density(50)
        tosca.sample_trajectory(s, mu, 100, 0)
        rows = s._cumulative_rows
        tosca.sample_pairs(s, mu, 100, 1)
        tosca.sample_trajectory(s, mu, 100, 2)
        assert s._cumulative_rows is rows
        assert tosca.transition_matrix(hub_graph(50))._cumulative_rows is not rows

    def test_tables_held_after_a_trajectory(self):
        # What S keeps after one trajectory at the benchmark size (167792
        # stored entries): the cumulative rows, nnz floats, n + 1 int64 row
        # starts and n int64 counts of even rows (1.40 MiB); 1.41 MiB
        # measured, bounded at 2 MiB. The walk's own
        # lists are freed when it returns: kept as per-vertex lists they
        # held 8.15 MiB, and a second copy of the cums (1.28 MiB) would not
        # fit either.
        s = tosca.transition_matrix(sparse_graph(8000, 20))
        tracemalloc.start()
        try:
            tosca.sample_trajectory(s, tosca.uniform_density(8000), 200_000, 3)
            held = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
        assert held < 2.0


def scipy_pair_counts(xs, ys, n):
    import scipy.sparse as sp

    return sp.csr_matrix((np.ones(len(xs)), (xs, ys)), shape=(n, n))


@st.composite
def pair_lists(draw):
    """m >= 1 pairs on n vertices, drawn from a few rows so that rows repeat
    pairs and others hold none, as int32 or int64 arrays."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(rows), st.integers(0, n - 1)), min_size=1, max_size=80,
    ))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    xs, ys = (np.array(column, dtype=dtype) for column in zip(*pairs))
    return xs, ys, n


class TestPairCounts:
    @settings(max_examples=200, deadline=None)
    @given(pair_lists(), st.data())
    def test_equals_scipy_coo_to_csr(self, pairs, data):
        # the class pair counts an indicator basis reads its Grams from
        xs, ys, n = pairs
        # each vertex its own class, or a map of vertices into fewer classes
        classes = data.draw(st.one_of(
            st.just(np.arange(n)),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(np.array),
        ))
        used = np.unique(classes)
        r = data.draw(st.integers(0, len(used)))  # the other classes: vertices in no set
        basis = tosca.indicator_basis(n, [np.flatnonzero(classes == c) for c in used[:r]])
        relabel = np.full(n, r)
        for i, c in enumerate(used[:r]):
            relabel[classes == c] = i
        assert np.array_equal(basis.classes, relabel)
        sample = tosca.WalkSample(xs=xs, ys=ys, mode="independent_pairs", seed=0)
        grams = tosca.empirical_grams(sample, basis)
        counts = scipy_pair_counts(relabel[xs], relabel[ys], r + 1).toarray()
        m = len(xs)
        for got, want in ((grams.gxy, counts[:-1, :-1]), (grams.gxx, np.diag(counts.sum(1)[:-1])),
                          (grams.gyy, np.diag(counts.sum(0)[:-1]))):
            assert got.dtype == want.dtype and got.shape == (r, r)
            assert got.tobytes() == (want / m).tobytes()


class TestMemory:
    BOUND_MIB = 32.0

    @pytest.mark.parametrize("make_graph", [
        lambda: sparse_graph(5000, 6), lambda: hub_graph(5000),
    ], ids=["out_degree_6", "hub"])
    def test_sampling_peak(self, make_graph):
        s = tosca.transition_matrix(make_graph())
        mu = tosca.uniform_density(s.n)
        for sampler in (tosca.sample_pairs, tosca.sample_trajectory):
            assert peak_mib(sampler, s, mu, 100_000, 3) < self.BOUND_MIB

    @pytest.mark.parametrize("sampler, m, bound_mib", [
        (tosca.sample_pairs, 500_000, 13.0),
        (tosca.sample_trajectory, 200_000, 20.0),
    ], ids=["pairs", "trajectory"])
    def test_sampling_peak_at_benchmark_size(self, sampler, m, bound_mib):
        # Pairs drawn in blocks of uniforms peak at about 12.3 MiB here: the
        # two int64 outputs (7.6 MiB), one block's temporaries, and S's
        # cumulative rows, built on this first draw. Drawing all m starts,
        # then all m steps, at once peaked at about 25 MiB. The trajectory
        # bound is just below the peak of a plain bisection sampler (20.7
        # MiB); its flat lists reach about 12.5 MiB.
        s = tosca.transition_matrix(sparse_graph(8000, 20))
        assert peak_mib(sampler, s, tosca.uniform_density(8000), m, 3) < bound_mib

    def test_grams_peak(self):
        s = tosca.transition_matrix(sparse_graph(5000, 6))
        sample = tosca.sample_pairs(s, tosca.uniform_density(5000), 100_000, seed=3)
        sets = [range(100 * j, 100 * (j + 1)) for j in range(50)]
        basis = tosca.indicator_basis(5000, sets)
        assert peak_mib(tosca.empirical_grams, sample, basis) < self.BOUND_MIB

    def test_grams_peak_at_benchmark_size(self):
        # Counted per set, in blocks of _WALK_CHUNK pairs, the peak is about
        # 1.0 MiB here: one block's keys and bincount. One sort of all m
        # int64 keys into a sparse count matrix peaked at about 4.5 MiB,
        # counting per vertex at 10.5 MiB.
        s = tosca.transition_matrix(sparse_graph(8000, 20))
        sample = tosca.sample_pairs(s, tosca.uniform_density(8000), 500_000, seed=3)
        basis = tosca.indicator_basis(8000, np.arange(8000).reshape(64, 125))
        assert peak_mib(tosca.empirical_grams, sample, basis) < 2.0

    def test_grams_peak_with_a_thousand_sets(self):
        # A 1001 x 1001 count table is 7.6 MiB. Counted in one block of all
        # m pairs, and freed before the Grams are formed, the peak is about
        # 22.9 MiB. Blocks of 2^16 pairs, each adding a fresh table, with
        # the table held beside the three Grams, peaked at about 30.9 MiB.
        s = tosca.transition_matrix(sparse_graph(8000, 20))
        sample = tosca.sample_pairs(s, tosca.uniform_density(8000), 500_000, seed=3)
        basis = tosca.indicator_basis(8000, np.arange(8000).reshape(1000, 8))
        assert peak_mib(tosca.empirical_grams, sample, basis) < 26.0


def one_shot_pairs(s, mu, m, seed):
    """``sample_pairs`` with all m starts, then all m steps, drawn at once."""
    rng = np.random.default_rng(seed)
    rows = s._cumulative_rows
    xs = datadriven._draw_density(datadriven._guide_table(mu.p), rng.random(m))
    ys = datadriven._draw_in_rows(rows, xs, rng.random(m), datadriven._row_width(rows))
    return xs, ys


class TestSamplePairs:
    @pytest.mark.parametrize("m", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
    def test_blocked_draws_equal_one_shot_draws(self, m, skewed):
        s = tosca.transition_matrix(sparse_graph(3000, 6))
        if skewed:
            # masses over dozens of orders of magnitude, and a third of the vertices without any
            p = np.random.default_rng(1).uniform(size=3000) ** 30
            p[::3] = 0.0
            mu = tosca.Density(p / p.sum())
        else:
            mu = tosca.uniform_density(3000)
        sample = tosca.sample_pairs(s, mu, m, seed=11)
        xs, ys = one_shot_pairs(s, mu, m, seed=11)
        for got, want in ((sample.xs, xs), (sample.ys, ys)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_permutation_applies_map(self):
        g = tosca.from_edge_list(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
        s = tosca.transition_matrix(g)
        sample = tosca.sample_pairs(s, tosca.uniform_density(4), 500, seed=9)
        assert np.array_equal(sample.ys, (sample.xs + 1) % 4)

    def test_empty_sample(self):
        _, s, mu = five_vertex_setup()
        sample = tosca.sample_pairs(s, mu, 0, seed=1)
        assert sample.m == 0
        with pytest.raises(EmptySampleError):
            tosca.empirical_grams(sample, tosca.indicator_basis(5, [[0], [1]]))

    def test_law_of_large_numbers(self):
        _, s, mu = five_vertex_setup()
        m = 100_000
        sample = tosca.sample_pairs(s, mu, m, seed=0)
        dense = s.dense()
        bound = 3.0 / np.sqrt(m)
        for i in range(5):
            mask = sample.xs == i
            rows = sample.ys[mask]
            freq = np.bincount(rows, minlength=5) / mask.sum()
            assert np.abs(freq - dense[i]).max() < bound
        # start marginal follows mu
        start = np.bincount(sample.xs, minlength=5) / m
        assert np.abs(start - mu.p).max() < bound

    def test_determinism(self):
        _, s, mu = five_vertex_setup()
        a = tosca.sample_pairs(s, mu, 1000, seed=4)
        b = tosca.sample_pairs(s, mu, 1000, seed=4)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        c = tosca.sample_pairs(s, mu, 1000, seed=5)
        assert not np.array_equal(a.ys, c.ys)


@pytest.mark.parametrize("sample", [tosca.sample_pairs, tosca.sample_trajectory])
@pytest.mark.parametrize("m", [-1, -2])
def test_negative_walk_length_rejected(sample, m):
    _, s, mu = five_vertex_setup()
    with pytest.raises(ValueError) as caught:
        sample(s, mu, m, seed=1)
    assert str(caught.value) == f"m must be >= 0, got {m}"


class TestSampleTrajectory:
    def test_single_step(self):
        _, s, mu = five_vertex_setup()
        sample = tosca.sample_trajectory(s, mu, 1, seed=2)
        assert sample.m == 1
        assert sample.mode == "single_trajectory"

    def test_no_steps(self):
        _, s, mu = five_vertex_setup()
        sample = tosca.sample_trajectory(s, mu, 0, seed=4)
        for walk in (sample.xs, sample.ys):
            assert walk.dtype == np.int64 and walk.shape == (0,)
        assert (sample.m, sample.n, sample.mode, sample.seed) == (0, 5, "single_trajectory", 4)

    def test_consecutive_pair_structure(self):
        _, s, mu = five_vertex_setup()
        sample = tosca.sample_trajectory(s, mu, 200, seed=3)
        assert np.array_equal(sample.ys[:-1], sample.xs[1:])

    def test_permutation_cycles(self):
        g = tosca.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        s = tosca.transition_matrix(g)
        start = tosca.Density(np.array([1.0, 0.0, 0.0]))
        sample = tosca.sample_trajectory(s, start, 9, seed=0)
        assert np.array_equal(sample.xs, np.tile([0, 1, 2], 3))

    def test_marginal_converges_to_stationary(self, rng):
        g = random_undirected_graph(8, rng, density=0.5)
        g = tosca.add_self_loops(g, 1.0)  # aperiodic for sure
        pi = tosca.stationary_density(g)
        s = tosca.transition_matrix(g)
        m = 100_000
        sample = tosca.sample_trajectory(s, tosca.uniform_density(8), m, seed=1)
        marginal = np.bincount(sample.xs, minlength=8) / m
        assert np.abs(marginal - pi.p).max() < 5.0 / np.sqrt(m)


class TestEmpiricalGrams:
    def test_counting_identity_exact(self):
        _, s, mu = five_vertex_setup()
        basis = tosca.indicator_basis(5, [[i] for i in range(5)])
        for seed in range(5):
            sample = tosca.sample_pairs(s, mu, 2000, seed=seed)
            grams = tosca.empirical_grams(sample, basis)
            counts = np.zeros((5, 5))
            np.add.at(counts, (sample.xs, sample.ys), 1.0)
            assert np.array_equal(grams.gxy, counts / sample.m)
            visits_x = np.bincount(sample.xs, minlength=5)
            visits_y = np.bincount(sample.ys, minlength=5)
            assert np.array_equal(grams.gxx, np.diag(visits_x) / sample.m)
            assert np.array_equal(grams.gyy, np.diag(visits_y) / sample.m)

    def test_indicator_basis_bitwise_equal_to_gather(self):
        g = dsbm_self_loop_graph()
        s = tosca.transition_matrix(g)
        sets = [range(0, 40), range(40, 80), range(85, 120)]
        basis = tosca.indicator_basis(g.n, sets)
        for sampler in (tosca.sample_pairs, tosca.sample_trajectory):
            sample = sampler(s, tosca.uniform_density(g.n), 4000, seed=2)
            grams = tosca.empirical_grams(sample, basis)
            reference = gather_grams(sample, basis)
            assert np.array_equal(grams.gxx, reference.gxx)
            assert np.array_equal(grams.gyy, reference.gyy)
            assert np.array_equal(grams.gxy, reference.gxy)

    def test_dense_basis_matches_gather(self):
        g = dsbm_self_loop_graph()
        sample = tosca.sample_pairs(
            tosca.transition_matrix(g), tosca.uniform_density(g.n), 5000, seed=4
        )
        phi = np.random.default_rng(8).standard_normal((6, g.n))
        grams = tosca.empirical_grams(sample, tosca.Basis(phi_v=phi))
        reference = gather_grams(sample, tosca.Basis(phi_v=phi))
        for got, want in ((grams.gxx, reference.gxx), (grams.gyy, reference.gyy),
                          (grams.gxy, reference.gxy)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "xs, ys, bad", [([0, 5], [1, 2], 5), ([0, 1], [2, -1], -1), ([7, 6], [1, 2], 7)]
    )
    def test_vertex_outside_basis_rejected(self, xs, ys, bad):
        sample = tosca.WalkSample(
            xs=np.array(xs), ys=np.array(ys), mode="independent_pairs", seed=0
        )
        with pytest.raises(IndexOutOfRangeError, match=rf"^walk vertex {bad} outside \[0, 5\)$"):
            tosca.empirical_grams(sample, tosca.indicator_basis(5, [[0, 1], [2, 3, 4]]))

    def test_symmetric_psd(self):
        _, s, mu = five_vertex_setup()
        basis = tosca.indicator_basis(5, [[0, 1], [2, 3, 4]])
        grams = tosca.empirical_grams(tosca.sample_pairs(s, mu, 500, seed=7), basis)
        for gram in (grams.gxx, grams.gyy):
            assert np.abs(gram - gram.T).max() < 1e-12
            assert np.linalg.eigvalsh(gram).min() > -1e-12

    def test_converges_to_weighted_gram(self):
        _, s, mu = five_vertex_setup()
        basis = tosca.indicator_basis(5, [[i] for i in range(5)])
        m = 100_000
        grams = tosca.empirical_grams(tosca.sample_pairs(s, mu, m, seed=11), basis)
        g_xy = np.diag(mu.p) @ s.dense()
        assert np.abs(grams.gxy - g_xy).max() < 0.01
        g_xx = np.diag(mu.p)
        assert np.abs(grams.gxx - g_xx).max() < 0.01


def gather_grams(sample, basis):
    """Grams from the basis gathered at every walk position, r x 2^16 at a time."""
    r, m = basis.r, sample.m
    gxx, gyy, gxy = np.zeros((r, r)), np.zeros((r, r)), np.zeros((r, r))
    for lo in range(0, m, 1 << 16):
        phi_x = basis.phi_v[:, sample.xs[lo : lo + (1 << 16)]]
        phi_y = basis.phi_v[:, sample.ys[lo : lo + (1 << 16)]]
        gxx += phi_x @ phi_x.T
        gyy += phi_y @ phi_y.T
        gxy += phi_x @ phi_y.T
    return tosca.EmpiricalGrams(gxx=gxx / m, gyy=gyy / m, gxy=gxy / m, m=m)


def vertex_grams(sample, basis):
    """The Grams counted per vertex, with visit bincounts and the n x n pair
    counts: the computation before counting per basis class."""
    phi, n, m = basis.phi_v, basis.n, sample.m
    xs, ys = np.asarray(sample.xs), np.asarray(sample.ys)
    return tosca.EmpiricalGrams(
        gxx=(phi * np.bincount(xs, minlength=n)) @ phi.T / m,
        gyy=(phi * np.bincount(ys, minlength=n)) @ phi.T / m,
        gxy=phi @ (scipy_pair_counts(xs, ys, n) @ phi.T) / m,
        m=m,
    )


def assert_same_grams(got, want):
    for name in ("gxx", "gyy", "gxy"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


@st.composite
def walks_on(draw, n):
    """m >= 1 pairs of vertices in [0, n), as int32 or int64 arrays."""
    m = draw(st.integers(1, 60))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    xs, ys = (
        np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=dtype)
        for _ in range(2)
    )
    return tosca.WalkSample(xs=xs, ys=ys, mode="independent_pairs", seed=0)


@st.composite
def set_lists(draw, n):
    """0..n disjoint nonempty sets of shuffled vertices, not always covering [0, n)."""
    order = draw(st.permutations(range(n)))
    covered = draw(st.integers(0, n))
    if covered == 0:
        return []
    r = draw(st.integers(1, covered))
    cuts = []
    if r > 1:
        cuts = sorted(draw(st.sets(st.integers(1, covered - 1), min_size=r - 1, max_size=r - 1)))
    return [order[a:b] for a, b in zip([0, *cuts], [*cuts, covered])]


class TestGramsByClass:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(set_lists(n), walks_on(n), st.just(n))))
    def test_indicator_basis_equals_gather(self, case):
        sets, sample, n = case
        basis = tosca.indicator_basis(n, sets)
        r = len(sets)
        assert set(basis.classes) <= set(range(r + 1))  # the sets and the uncovered vertices
        assert np.array_equal(np.eye(r, r + 1)[:, basis.classes], basis.phi_v)
        grams = tosca.empirical_grams(sample, basis)
        assert_same_grams(grams, gather_grams(sample, basis))
        assert_same_grams(grams, vertex_grams(sample, basis))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(walks_on(n), st.just(n))),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_dense_basis_equals_per_vertex_counting(self, case, r, seed):
        sample, n = case
        phi = np.random.default_rng(seed).standard_normal((r, n))
        basis = tosca.Basis(phi_v=phi)
        assert basis.classes is None
        assert_same_grams(tosca.empirical_grams(sample, basis), vertex_grams(sample, basis))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(set_lists(n), walks_on(n), st.just(n))),
           st.data())
    def test_near_indicator_basis_counts_per_vertex(self, case, data):
        sets, sample, n = case
        assume(sets)
        phi = tosca.indicator_basis(n, sets).phi_v.copy()
        row, column = data.draw(st.tuples(st.integers(0, len(sets) - 1), st.integers(0, n - 1)))
        if len(sets) > 1 and data.draw(st.booleans()):
            phi[:, column] = 0.0
            phi[[row, (row + 1) % len(sets)], column] = 1.0  # a vertex in two sets
        else:
            phi[row, column] = 2.0
        basis = tosca.Basis(phi_v=phi)
        assert basis.classes is None
        assert_same_grams(tosca.empirical_grams(sample, basis), vertex_grams(sample, basis))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(set_lists(n), walks_on(n), st.just(n))))
    def test_hand_built_indicator_basis_keeps_the_bits(self, case):
        # counted per vertex, not per set: the counts are exact integers either way
        sets, sample, n = case
        basis = tosca.indicator_basis(n, sets)
        hand_built = tosca.Basis(phi_v=basis.phi_v.copy())
        assert hand_built.classes is None
        assert_same_grams(tosca.empirical_grams(sample, hand_built), tosca.empirical_grams(sample, basis))

    def test_one_pair_and_benchmark_size(self):
        # per set and, hand-built, per vertex; at the benchmark size the
        # 5e5 pairs span several blocks of _WALK_CHUNK
        one = tosca.WalkSample(xs=np.array([3]), ys=np.array([1]), mode="independent_pairs", seed=0)
        grams = tosca.empirical_grams(one, tosca.indicator_basis(5, [[i] for i in range(5)]))
        assert np.flatnonzero(grams.gxy).tolist() == [16] and grams.gxy[3, 1] == 1.0
        assert np.diag(grams.gxx).tolist() == [0, 0, 0, 1, 0]
        assert np.diag(grams.gyy).tolist() == [0, 1, 0, 0, 0]
        s = tosca.transition_matrix(sparse_graph(8000, 20))
        many = tosca.sample_pairs(s, tosca.uniform_density(8000), 500_000, 3)
        for sample, basis in ((one, tosca.indicator_basis(5, [[i] for i in range(5)])),
                              (many, tosca.indicator_basis(8000, np.arange(8000).reshape(64, 125)))):
            for counted in (basis, tosca.Basis(phi_v=basis.phi_v.copy())):
                grams = tosca.empirical_grams(sample, counted)
                assert_same_grams(grams, gather_grams(sample, basis))
                assert_same_grams(grams, vertex_grams(sample, basis))

    def test_indicator_basis_is_read_only(self):
        basis = tosca.indicator_basis(5, [[0, 1], [3]])
        assert basis.classes.tolist() == [0, 0, 2, 1, 2]
        with pytest.raises(ValueError, match="read-only"):
            basis.phi_v[0, 2] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            basis.classes[2] = 0
        with pytest.raises(AttributeError):
            basis.classes = None


def exact_grams(s, mu, basis):
    """Infinite-data limits computed from the matrices themselves."""
    nu = tosca.image_density(s, mu)
    phi = basis.phi_v
    return tosca.EmpiricalGrams(
        gxx=phi @ np.diag(mu.p) @ phi.T,
        gyy=phi @ np.diag(nu.p) @ phi.T,
        gxy=phi @ np.diag(mu.p) @ s.dense() @ phi.T,
        m=0,
    )


class TestEstimatedOperators:
    def test_exact_grams_full_basis_recover_operators(self):
        _, s, mu = five_vertex_setup()
        basis = tosca.indicator_basis(5, [[i] for i in range(5)])
        est = tosca.estimated_operators(exact_grams(s, mu, basis), ridge=0.0)
        f = tosca.forward_backward(s, mu).m
        b = tosca.backward_forward(s, mu).m
        assert np.abs(est.f - f).max() < 1e-10
        assert np.abs(est.b - b).max() < 1e-10
        assert np.abs(est.k - s.dense()).max() < 1e-10

    def test_permutation_exact_grams_unit_eigenvalues(self):
        g = tosca.from_edge_list(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
        s = tosca.transition_matrix(g)
        mu = tosca.uniform_density(4)
        basis = tosca.indicator_basis(4, [[i] for i in range(4)])
        est = tosca.estimated_operators(exact_grams(s, mu, basis), ridge=0.0)
        vals = np.sort(np.linalg.eigvals(est.f).real)
        assert np.abs(vals - 1.0).max() < 1e-10

    def test_default_ridge_handles_unvisited_set(self):
        _, s, mu = five_vertex_setup()
        # visit vertices 0/1 only: basis set {4} never sampled
        sample = tosca.WalkSample(
            xs=np.array([0, 1, 0]), ys=np.array([1, 0, 1]),
            mode="independent_pairs", seed=0,
        )
        basis = tosca.indicator_basis(5, [[0], [1], [4]])
        grams = tosca.empirical_grams(sample, basis)
        est = tosca.estimated_operators(grams)  # default ridge
        assert np.isfinite(est.f).all()
        assert np.abs(est.k[2]).max() == 0.0

    def test_estimated_eigenvalues_bounded(self):
        params = tosca.DSBMParams(r_b=4, n_b=100, e=example_block_matrix(), seed=2)
        g = tosca.dsbm_sample(params)
        s = tosca.transition_matrix(g)
        mu = tosca.uniform_density(400)
        sets = [range(100 * j, 100 * (j + 1)) for j in range(4)]
        basis = tosca.indicator_basis(400, sets)
        for m in (1000, 10_000):
            sample = tosca.sample_pairs(s, mu, m, seed=3)
            est = tosca.estimated_operators(tosca.empirical_grams(sample, basis))
            vals = np.linalg.eigvals(est.f).real
            assert vals.min() > -0.05 and vals.max() < 1.05

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        _, s, mu = five_vertex_setup()
        basis = tosca.indicator_basis(5, [[0, 1], [2, 3, 4]])
        grams = tosca.empirical_grams(tosca.sample_pairs(s, mu, 500, seed=7), basis)
        with pytest.raises(ValueError) as caught:
            tosca.estimated_operators(grams, ridge)
        assert str(caught.value) == f"ridge must be a finite number >= 0, got {ridge}"

    def test_grams_deterministic_bitwise(self):
        _, s, mu = five_vertex_setup()
        basis = tosca.indicator_basis(5, [[0, 1], [2, 3, 4]])
        a = tosca.empirical_grams(tosca.sample_pairs(s, mu, 5000, seed=6), basis)
        b = tosca.empirical_grams(tosca.sample_pairs(s, mu, 5000, seed=6), basis)
        assert np.array_equal(a.gxy, b.gxy)
        assert np.array_equal(a.gxx, b.gxx)


class TestWalkIO:
    def test_round_trip(self, tmp_path):
        _, s, mu = five_vertex_setup()
        sample = tosca.sample_pairs(s, mu, 100, seed=13)
        path = tmp_path / "walks.csv"
        tosca.write_walks(sample, path)
        back = tosca.read_walks(path)
        assert back.mode == sample.mode
        assert back.seed == sample.seed
        assert back.n == sample.n == 5
        assert np.array_equal(back.xs, sample.xs)
        assert np.array_equal(back.ys, sample.ys)

    def test_written_bytes(self, tmp_path):
        # every line ends in '\n', rows included
        sample = tosca.WalkSample(
            xs=np.array([0, 12, 3]), ys=np.array([1, 0, 3]), mode="single_trajectory", seed=-4
        )
        path = tmp_path / "walks.csv"
        tosca.write_walks(sample, path)
        assert path.read_bytes() == b"# mode=single_trajectory seed=-4\nx,y\n0,1\n12,0\n3,3\n"

    @pytest.mark.parametrize("row", ["-1,2", "0,-3"])
    def test_negative_vertex_rejected(self, tmp_path, row):
        path = tmp_path / "walks.csv"
        path.write_text(f"x,y\n0,1\n{row}\n")
        with pytest.raises(ParseError) as info:
            tosca.read_walks(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("sampler, digest", [
        (tosca.sample_pairs, "216a762a19799b71183f70b20a9628bf93061a3c0fc37157f720560257b32722"),
        (tosca.sample_trajectory, "b007ed03ab9556a4b35fc1dfbeb344d257ea5e190e823c079f4940f3ddd53cd1"),
    ], ids=["pairs", "trajectory"])
    def test_written_walks_pinned(self, tmp_path, sampler, digest):
        # A seed names one walk file: these digests were taken from a plain
        # per-walker bisection, so a faster draw must keep every byte.
        s = tosca.transition_matrix(dsbm_self_loop_graph())
        path = tmp_path / "walks.csv"
        tosca.write_walks(sampler(s, weighted_density(s.n), 2000, seed=11), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_samplers_record_vertex_count(self):
        _, s, mu = five_vertex_setup()
        assert tosca.sample_pairs(s, mu, 3).n == 5
        assert tosca.sample_trajectory(s, mu, 3).n == 5
        assert tosca.sample_trajectory(s, mu, 0).n == 5

    def test_written_bytes_with_vertex_count(self, tmp_path):
        sample = tosca.WalkSample(
            xs=np.array([0, 2]), ys=np.array([1, 0]), mode="independent_pairs", seed=1, n=3
        )
        path = tmp_path / "walks.csv"
        tosca.write_walks(sample, path)
        assert path.read_bytes() == b"# mode=independent_pairs seed=1 n=3\nx,y\n0,1\n2,0\n"

    @pytest.mark.parametrize("row", ["3,0", "0,4"])
    def test_vertex_outside_recorded_count_rejected(self, tmp_path, row):
        path = tmp_path / "walks.csv"
        path.write_text(f"# n=3\nx,y\n0,1\n{row}\n")
        with pytest.raises(ParseError, match=r"line 4: vertex \d outside \[0, 3\)"):
            tosca.read_walks(path)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(LengthMismatchError):
            tosca.WalkSample(
                xs=np.array([0, 1, 2]), ys=np.array([1, 2]),
                mode="independent_pairs", seed=0,
            )

    @pytest.mark.parametrize("header", ["# mode=pairs seed=2", "# seed=two", "# n=-2"])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "walks.csv"
        path.write_text(f"x,y\n{header}\n0,1\n")
        with pytest.raises(ParseError) as info:
            tosca.read_walks(path)
        assert info.value.line == 2
