import urllib.request
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tosca
from tosca import cli as cli_module, graph as graph_module
from tosca.errors import (
    DanglingVertexError,
    EmptyMatrixError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonPositiveWeightError,
    ParseError,
    ToscaError,
)

from tosca.graph import _from_arrays, _shift_weights

from conftest import peak_mib, random_undirected_graph


def assert_same_graph(a, b):
    assert (a.n, a.directed) == (b.n, b.directed)
    for name in ("src", "dst", "weight"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


# A handle left open, on the line parser's path too, fails the test: its
# ResourceWarning is raised where the handle is collected, as an unraisable
# exception, and both are errors.
NO_LEAKED_HANDLES = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


class TestFromEdgeList:
    def test_undirected_materializes_both_directions(self):
        g = tosca.from_edge_list(2, [(0, 1, 1.0)], directed=False)
        assert g.edge_multiset() == {(0, 1): 1.0, (1, 0): 1.0}

    def test_duplicates_summed(self):
        g = tosca.from_edge_list(2, [(0, 1, 1.0), (0, 1, 2.0)], directed=True)
        assert g.edge_multiset() == {(0, 1): 3.0}

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            tosca.from_edge_list(3, [(0, 5, 1.0)], directed=True)

    def test_non_positive_weight(self):
        with pytest.raises(NonPositiveWeightError):
            tosca.from_edge_list(2, [(0, 1, 0.0)])
        with pytest.raises(NonPositiveWeightError):
            tosca.from_edge_list(2, [(0, 1, -2.0)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, pytest.param(10**400, id="int-beyond-float")])
    def test_non_finite_weight(self, weight):
        with pytest.raises(NonPositiveWeightError, match="positive and finite"):
            tosca.from_edge_list(2, [(0, 1, 1.0), (1, 0, weight)])

    def test_undirected_adjacency_symmetric_exactly(self, rng):
        # duplicate, reversed, and looped entries must still produce a
        # bitwise-symmetric matrix
        triples = []
        for _ in range(200):
            i, j = rng.integers(0, 10, 2)
            triples.append((int(i), int(j), float(rng.uniform(0.1, 2.0))))
        g = tosca.from_edge_list(10, triples, directed=False)
        a = g.adjacency.toarray()
        assert (a == a.T).all()

    def test_empty_graph(self):
        g = tosca.from_edge_list(4, [])
        assert g.num_edges == 0
        assert g.adjacency.nnz == 0

    def test_undirected_self_loop_not_doubled(self):
        g = tosca.from_edge_list(2, [(0, 0, 1.5)], directed=False)
        assert g.edge_multiset() == {(0, 0): 1.5}

    @pytest.mark.parametrize("triples, message", [
        ([(0.5, 1, 2.0)], "vertex 0.5 is not an integer"),
        ([(1.9, 2, 1.0)], "vertex 1.9 is not an integer"),
        ([(0, 1, 1.0), (np.nan, 1, 1.0)], "vertex nan is not an integer"),
        ([(1, np.inf, 1.0)], "vertex inf is not an integer"),
        ([(-np.inf, 1, 1.0)], "vertex -inf is not an integer"),
        # the first in row order, src before dst, and before any range fault
        ([(0, 1, 1.0), (1, 2.5, 1.0), (0.5, 1, 1.0)], "vertex 2.5 is not an integer"),
        ([(0.25, 1.5, 1.0)], "vertex 0.25 is not an integer"),
        ([(7, 1, 1.0), (0, 0.5, 1.0)], "vertex 0.5 is not an integer"),
    ])
    def test_non_integer_vertex_rejected(self, triples, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast of nan or inf to int64
            with pytest.raises(ToscaError) as caught:
                tosca.from_edge_list(3, triples)
        assert type(caught.value) is ToscaError
        assert caught.value.exit_code == 3
        assert str(caught.value) == message

    @pytest.mark.parametrize("triples, message", [
        ([(1e300, 1, 1.0)], "vertex index 1e+300 outside [0, 3)"),
        ([(0, 1e19, 1.0)], "vertex index 1e+19 outside [0, 3)"),
        ([(0, 1, 1.0), (-1e19, 2, 1.0)], "vertex index -1e+19 outside [0, 3)"),
        # all src are checked before any dst, as for int64 arrays
        ([(0, 1e300, 1.0), (5.0, 1, 1.0)], "vertex index 5 outside [0, 3)"),
        # ints beyond float's range are named as given
        pytest.param([(0, 10**400, 1.0)], f"vertex index {10**400} outside [0, 3)", id="int-beyond-float"),
        pytest.param([(0, 1, 1.0), (-10**400, 2, 1.0)], f"vertex index {-10**400} outside [0, 3)",
                     id="negative-int-beyond-float"),
    ])
    def test_huge_vertex_named_before_the_cast(self, triples, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast of 1e300 to int64
            with pytest.raises(IndexOutOfRangeError) as caught:
                tosca.from_edge_list(3, triples)
        assert str(caught.value) == message

    def test_integer_valued_floats_name_vertices(self):
        g = tosca.from_edge_list(3, [(2.0, 1, 1.0), (0, np.float64(2.0), 1.0)])
        assert g.edge_multiset() == {(2, 1): 1.0, (0, 2): 1.0}
        g = tosca.from_edge_list(3, [("2", "1", "1.0"), (b"0", "2.0", " 2.5 ")])  # numeric strings
        assert g.edge_multiset() == {(2, 1): 1.0, (0, 2): 2.5}

    @pytest.mark.parametrize("triples, message", [
        ([(0, 1), (2, 0), (1, 2)], "edge row 0 has 2 values, not a (src, dst, weight) triple"),
        ([(0, 1, 1.0, 2.0)], "edge row 0 has 4 values, not a (src, dst, weight) triple"),
        ([(0, 1, 1.0), [1, 2, 1.0], (2, 0)], "edge row 2 has 2 values, not a (src, dst, weight) triple"),
        ([(0, 1, 1.0), (1, 2, 1.0, 0.5), (2,)], "edge row 1 has 4 values, not a (src, dst, weight) triple"),
        ([(0, 1, 1.0), ()], "edge row 1 has 0 values, not a (src, dst, weight) triple"),
        ([0, 1, 1.0, 1, 2, 1.0], "edge row 0 has 1 value, not a (src, dst, weight) triple"),
        (((0, 1, 1.0) if i < 5 else 7 for i in range(9)),
         "edge row 5 has 1 value, not a (src, dst, weight) triple"),
        (np.zeros((4, 2)), "edge row 0 has 2 values, not a (src, dst, weight) triple"),
        ([(0, 1, 1.0), "012"], "edge row 1 has 1 value, not a (src, dst, weight) triple"),
        ([b"012"], "edge row 0 has 1 value, not a (src, dst, weight) triple"),
    ], ids=["pairs", "four_tuple", "ragged", "ragged_longer", "empty_row", "flat_numbers",
            "generator", "two_columns", "string_row", "bytes_row"])
    def test_misaligned_rows_rejected(self, triples, message):
        with pytest.raises(ToscaError) as caught:
            tosca.from_edge_list(3, triples)
        assert type(caught.value) is ToscaError
        assert caught.value.exit_code == 3
        assert str(caught.value) == message

    @pytest.mark.parametrize("triples, message", [
        ([("x", "1", 1.0)], "edge row 0 has src 'x', not a number"),
        ([(0, 1, 1.0), (0, "y", 1.0)], "edge row 1 has dst 'y', not a number"),
        ([(0, 1, "w")], "edge row 0 has weight 'w', not a number"),
        (((0, 1, 1.0) if i < 4 else ("0", "q", 1.0) for i in range(9)),
         "edge row 4 has dst 'q', not a number"),
        # in row order, before a later short row
        ([(0, 1, 1.0), (b"", 1, 1.0), (2, 0)], "edge row 1 has src b'', not a number"),
        # values that float() rejects, though np.float64 takes them
        ([(0, [1, 2], 1.0)], "edge row 0 has dst [1, 2], not a number"),
        ([(0, 1, 1.0), (np.array([2.0]), 1, 1.0)], "edge row 1 has src array([2.]), not a number"),
        # None alone reads as nan; in a row with a value that is no number, it is named
        ([(None, "x", 1.0)], "edge row 0 has src None, not a number"),
    ], ids=["src", "dst", "weight", "generator", "before_short_row", "list", "array", "none_before_str"])
    def test_value_that_is_no_number_rejected(self, triples, message):
        with pytest.raises(ToscaError) as caught:
            tosca.from_edge_list(3, triples)
        assert type(caught.value) is ToscaError
        assert caught.value.exit_code == 3
        assert str(caught.value) == message


def parent_from_edge_list(n, triples, directed):
    """The list-based parse that ``from_edge_list`` replaced, for well-formed triples."""
    arr = np.asarray(list(triples), dtype=np.float64).reshape(-1, 3)
    src, dst = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)
    return _from_arrays(n, src, dst, arr[:, 2], directed)


ROW_FORMS = {
    "tuples": lambda s, d, w: list(zip(s, d, w)),
    "lists": lambda s, d, w: [[a, b, c] for a, b, c in zip(s, d, w)],
    "generator": lambda s, d, w: ((a, b, c) for a, b, c in zip(s, d, w)),
    "zip": lambda s, d, w: zip(s, d, w),
    "ndarray": lambda s, d, w: np.column_stack([s, d, w]),
    "numpy_scalars": lambda s, d, w: [
        (np.int64(a), np.int32(b), np.float64(c)) for a, b, c in zip(s, d, w)
    ],
}


class TestRowForms:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(ROW_FORMS)),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(1e-3, 1e3)),
                 max_size=40),
        st.booleans(),
    )
    def test_same_graph_as_list_parse(self, form, triples, directed):
        s, d, w = ([t[i] for t in triples] for i in range(3))
        expected = parent_from_edge_list(8, ROW_FORMS[form](s, d, w), directed)
        assert_same_graph(tosca.from_edge_list(8, ROW_FORMS[form](s, d, w), directed), expected)


class TestArrayBuilder:
    @pytest.mark.parametrize("directed", [True, False])
    def test_equals_triples_builder(self, rng, directed):
        # duplicates, reversed pairs and loops, with weights whose sums
        # depend on the order they are added in
        m = 300
        src = rng.integers(0, 12, m)
        dst = rng.integers(0, 12, m)
        weight = rng.uniform(0.1, 2.0, m)
        triples = list(zip(src.tolist(), dst.tolist(), weight.tolist()))
        assert_same_graph(
            _from_arrays(12, src, dst, weight, directed),
            tosca.from_edge_list(12, triples, directed=directed),
        )

    @pytest.mark.parametrize("directed", [True, False])
    def test_empty_input(self, directed):
        empty_int = np.empty(0, dtype=np.int64)
        g = _from_arrays(4, empty_int, empty_int, np.empty(0), directed)
        assert_same_graph(g, tosca.from_edge_list(4, [], directed=directed))
        assert g.num_edges == 0


class TestSelfLoops:
    def test_loops_only(self):
        g = tosca.add_self_loops(tosca.from_edge_list(2, []), 1.0)
        assert np.array_equal(g.adjacency.toarray(), np.eye(2))

    def test_additive(self):
        g = tosca.add_self_loops(tosca.from_edge_list(2, [(0, 1, 1.0)]), 1.0)
        assert np.array_equal(g.adjacency.toarray(), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveWeightError):
            tosca.add_self_loops(tosca.from_edge_list(2, []), 0.0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_rejects_non_finite(self, weight):
        with pytest.raises(NonPositiveWeightError, match="positive and finite"):
            tosca.add_self_loops(tosca.from_edge_list(2, []), weight)


class TestTransitionMatrix:
    def test_row_normalization(self):
        g = tosca.from_edge_list(2, [(0, 0, 2.0), (0, 1, 2.0), (1, 0, 1.0)])
        s = tosca.transition_matrix(g).dense()
        assert np.allclose(s, [[0.5, 0.5], [1.0, 0.0]], atol=0)

    def test_permutation_graph(self):
        g = tosca.from_edge_list(2, [(0, 1, 1.0), (1, 0, 1.0)])
        s = tosca.transition_matrix(g).dense()
        assert np.array_equal(s, [[0.0, 1.0], [1.0, 0.0]])

    def test_dangling_vertex(self):
        g = tosca.from_edge_list(2, [(0, 1, 1.0)])
        with pytest.raises(DanglingVertexError, match="self_loops"):
            tosca.transition_matrix(g)

    def test_row_sums_one(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            mask = rng.random((n, n)) < 0.4
            triples = [
                (int(i), int(j), float(rng.uniform(0.1, 3.0)))
                for i, j in zip(*np.nonzero(mask))
            ]
            g = tosca.add_self_loops(tosca.from_edge_list(n, triples), 1.0)
            s = tosca.transition_matrix(g)
            rows = np.asarray(s.s.sum(axis=1)).ravel()
            assert np.abs(rows - 1.0).max() < 1e-12

    def test_sparsity_matches_edges(self):
        g = tosca.from_edge_list(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0), (2, 2, 1.0)])
        s = tosca.transition_matrix(g).dense()
        assert ((s > 0) == (g.adjacency.toarray() > 0)).all()

    def test_lazy_chain(self):
        g = tosca.from_edge_list(2, [(0, 1, 1.0), (1, 0, 1.0)])
        lazy = tosca.lazy_chain(tosca.transition_matrix(g)).dense()
        assert np.allclose(lazy, [[0.5, 0.5], [0.5, 0.5]], atol=0)


class TestDegrees:
    def test_exact_sums_integer_weights(self, rng):
        # integer weights make every summation order exact, so the
        # degree vectors must match dense row/column sums bitwise
        n = 12
        mask = rng.random((n, n)) < 0.5
        triples = [
            (int(i), int(j), float(rng.integers(1, 9)))
            for i, j in zip(*np.nonzero(mask))
        ]
        g = tosca.from_edge_list(n, triples)
        a = g.adjacency.toarray()
        info = tosca.degree_info(g)
        assert np.array_equal(info.out_degrees, a.sum(axis=1))
        assert np.array_equal(info.in_degrees, a.sum(axis=0))

    def test_sums_float_weights(self, rng):
        n = 12
        mask = rng.random((n, n)) < 0.5
        triples = [
            (int(i), int(j), float(rng.uniform(0.1, 3.0)))
            for i, j in zip(*np.nonzero(mask))
        ]
        g = tosca.from_edge_list(n, triples)
        a = g.adjacency.toarray()
        info = tosca.degree_info(g)
        assert np.allclose(info.out_degrees, a.sum(axis=1), rtol=1e-15, atol=0)
        assert np.allclose(info.in_degrees, a.sum(axis=0), rtol=1e-15, atol=0)

    def test_bitwise_equal_to_add_at(self, rng):
        g = random_undirected_graph(40, rng, density=0.4)
        info = tosca.degree_info(g)
        for got, index in ((info.out_degrees, g.src), (info.in_degrees, g.dst)):
            want = np.zeros(g.n)
            np.add.at(want, index, g.weight)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_graph_has_float_zero_degrees(self, n):
        info = tosca.degree_info(tosca.from_edge_list(n, []))
        for degrees in (info.out_degrees, info.in_degrees):
            assert degrees.dtype == np.float64
            assert degrees.tolist() == [0.0] * n


def two_sort_aggregate(src, dst, weight, n):
    """``_aggregate`` as it was: the sorted keys sorted again by ``np.unique``."""
    key = src.astype(np.int64) * n + dst.astype(np.int64)
    order = np.argsort(key, kind="stable")
    key, weight = key[order], weight[order]
    uniq, start = np.unique(key, return_index=True)
    summed = np.add.reduceat(weight, start)
    return (uniq // n).astype(np.int64), (uniq % n).astype(np.int64), summed


@st.composite
def duplicate_heavy_edges(draw):
    """Edges on at most 3 x 3 pairs, so most pairs repeat, with weights of mixed scale."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    weight = st.one_of(
        st.sampled_from([1e16, 1.0, 0.1, 3.0, 1e-300]),
        st.floats(min_value=1e-300, max_value=1e300),
    )
    src = draw(st.lists(vertex, min_size=m, max_size=m))
    dst = draw(st.lists(vertex, min_size=m, max_size=m))
    weights = draw(st.lists(weight, min_size=m, max_size=m))
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(weights)


class TestAggregate:
    @settings(max_examples=300, deadline=None)
    @given(edges=duplicate_heavy_edges())
    @example(edges=(1, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
                    np.array([1e16, 1.0, 1.0])))
    def test_bitwise_equal_to_two_sort_version(self, edges):
        n, src, dst, weight = edges
        got = graph_module._aggregate(src, dst, weight, n)
        want = two_sort_aggregate(src, dst, weight, n)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_reduceat_is_not_left_to_right(self):
        # why _aggregate keeps reduceat: a left-to-right bincount would give 1e16 here
        zeros = np.zeros(3, dtype=np.int64)
        _, _, summed = graph_module._aggregate(zeros, zeros, np.array([1e16, 1.0, 1.0]), 1)
        assert summed.tolist() == [1e16 + 2.0]
        assert np.bincount(zeros, np.array([1e16, 1.0, 1.0])).tolist() == [1e16]


def reduceat_sum(weights):
    """The sum ``np.add.reduceat`` forms for one run: its first weight plus
    numpy's pairwise sum of the rest, so [1e16, 1, 1] sums to 1e16 + 2."""
    w = np.array(weights)
    return w[0] + np.add.reduce(w[1:]) if len(w) > 1 else w[0]


def per_pair_graph(n, src, dst, weight, directed):
    """The graph as one sum per pair of the pair's weights in input order;
    undirected pairs are summed unordered and mirrored."""
    groups = {}
    for s, d, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
        pair = (int(s), int(d)) if directed else (int(min(s, d)), int(max(s, d)))
        groups.setdefault(pair, []).append(w)
    sums = {pair: reduceat_sum(ws) for pair, ws in groups.items()}
    if not directed:
        sums.update({(d, s): w for (s, d), w in list(sums.items())})
    pairs = sorted(sums)
    return tosca.Graph(
        n=n,
        src=np.array([s for s, _ in pairs], dtype=np.int64),
        dst=np.array([d for _, d in pairs], dtype=np.int64),
        weight=np.array([sums[pair] for pair in pairs], dtype=np.float64),
        directed=directed,
    )


@st.composite
def unsorted_edges(draw):
    """Edges in any order, most pairs repeated, with int64 or integer-valued
    float64 vertex columns and weights of mixed scale."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 40))
    vertex = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    weight = st.one_of(
        st.sampled_from([1e16, 1.0, 0.1, 3.0, 1e-300]),
        st.floats(min_value=1e-300, max_value=1e300),
    )
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    src, dst = (np.array(draw(vertex), dtype=dtype) for _ in range(2))
    return n, src, dst, np.array(draw(st.lists(weight, min_size=m, max_size=m)), dtype=np.float64)


class TestAggregateReference:
    @settings(max_examples=300, deadline=None)
    @given(edges=unsorted_edges(), directed=st.booleans())
    @example(edges=(1, np.zeros(3), np.zeros(3), np.array([1e16, 1.0, 1.0])), directed=True)
    @example(edges=(3, np.empty(0), np.empty(0), np.empty(0)), directed=False)
    # two sorted runs sharing keys 0 and 4, as add_self_loops passes edges and loops
    @example(edges=(3, np.array([0, 0, 1, 2, 0, 1, 2]), np.array([0, 2, 1, 1, 0, 1, 2]),
                    np.array([1e16, 0.5, 3.0, 0.1, 1.0, 1.0, 1.0])), directed=True)
    # a non-increasing key, its repeats summed in input order
    @example(edges=(3, np.array([2.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.0]),
                    np.array([1.0, 1.0, 0.0, 2.0, 1.0, 1.0, 1.0]),
                    np.array([1.0, 3.0, 0.1, 3.0, 1e16, 1.0, 1.0])), directed=True)
    # one key throughout
    @example(edges=(2, np.ones(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
                    np.array([1.0, 1e16, 1.0, 1.0])), directed=True)
    @example(edges=(3, np.array([2, 0, 2, 1]), np.array([0, 2, 1, 2]),
                    np.array([1e16, 1.0, 1.0, 0.5])), directed=False)
    def test_bitwise_equal_to_per_pair_sums(self, edges, directed):
        n, src, dst, weight = edges
        want = per_pair_graph(n, src, dst, weight, directed)
        got = _from_arrays(n, src, dst, weight, directed)
        assert (got.n, got.directed) == (want.n, want.directed)
        for name in ("src", "dst", "weight"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        if directed:
            for x, y in zip(graph_module._aggregate(src, dst, weight, n), (want.src, want.dst, want.weight)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_inputs_are_not_changed(self):
        src, dst, weight = np.array([2.0, 0.0, 2.0]), np.array([1, 1, 1]), np.array([1.0, 2.0, 3.0])
        copies = [a.copy() for a in (src, dst, weight)]
        graph_module._aggregate(src, dst, weight, 3)
        for a, b in zip((src, dst, weight), copies):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def benchmark_size_edges(m=163_554, n=8000, seed=5):
    """As many distinct unit-weight (src, dst) pairs as the walks benchmark's
    graph has, sorted by pair."""
    key = np.sort(np.random.default_rng(seed).choice(n * n, m, replace=False))
    return n, key // n, key % n


class TestIngestMemory:
    """tracemalloc peaks of ingest at benchmark size, 163,554 edges on 8000 vertices.

    The bounds sit a little above what one key buffer per ``_aggregate``
    and a streamed reader measure: about 7.6, 9.4 and 7.6 MiB. Building the
    key from int64 copies of both columns, with ``np.diff`` run starts,
    peaked at 17.8, 13.2 and, with the file's lines held as strings,
    26.2 MiB.
    """

    def test_from_edge_list(self):
        n, src, dst = benchmark_size_edges()
        assert peak_mib(tosca.from_edge_list, n, zip(src.tolist(), dst.tolist(), repeat(1.0))) < 8.5

    def test_add_self_loops(self):
        n, src, dst = benchmark_size_edges()
        g = tosca.from_edge_list(n, zip(src.tolist(), dst.tolist(), repeat(1.0)))
        assert peak_mib(tosca.add_self_loops, g, 1.0) < 10.5

    def test_read_matrix_market(self, tmp_path):
        n, src, dst = benchmark_size_edges()
        weight = np.random.default_rng(1).uniform(0.5, 2.0, len(src))
        tosca.write_matrix_market(tosca.Graph(n, src, dst, weight), tmp_path / "g.mtx")
        assert peak_mib(tosca.read_matrix_market, tmp_path / "g.mtx") < 8.5


class TestMatrixMarket:
    pytestmark = NO_LEAKED_HANDLES

    def test_shift_applied(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 2.0\n"
            "2 1 -1.0\n"
        )
        g = tosca.read_matrix_market(path)
        weights = sorted(g.weight)
        assert weights == pytest.approx([0.003, 3.003], abs=1e-15)

    def test_all_positive_unchanged(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 2.0\n"
            "2 1 1.0\n"
        )
        g = tosca.read_matrix_market(path)
        assert sorted(g.weight) == [1.0, 2.0]

    def test_symmetric_expanded(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 1.5\n"
            "3 3 2.0\n"
        )
        g = tosca.read_matrix_market(path)
        assert not g.directed
        assert g.edge_multiset() == {(0, 1): 1.5, (1, 0): 1.5, (2, 2): 2.0}

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 nonsense\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            tosca.read_matrix_market(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("not a matrix market file\n1 1 1\n1 1 1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            tosca.read_matrix_market(path)

    @pytest.mark.parametrize(
        "entries,message",
        [
            # the entry after the count is reported as one too many, even out of range
            ("1 2 1.0\n4 1 1.0\n", "line 4: more than 1 entries"),
            ("4 1 1.0\nx\n", "line 3: index (4, 1) outside 1..3"),
            ("1 99999999999999999999 1.0\n", "line 3: cannot parse entry '1 99999999999999999999 1.0'"),
        ],
    )
    def test_first_bad_entry_named(self, tmp_path, entries, message):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n" + entries)
        with pytest.raises(ParseError) as info:
            tosca.read_matrix_market(path)
        assert str(info.value) == message

    def test_negative_entry_count(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n% c\n2 2 -1\n1 2 1.0\n")
        with pytest.raises(ParseError, match="line 3: negative entry count -1"):
            tosca.read_matrix_market(path)

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
        with pytest.raises(EmptyMatrixError):
            tosca.read_matrix_market(path)

    def test_round_trip_weight_multiset(self, tmp_path, rng):
        n = 15
        mask = rng.random((n, n)) < 0.3
        triples = [
            (int(i), int(j), float(rng.uniform(0.1, 5.0)))
            for i, j in zip(*np.nonzero(mask))
        ]
        g = tosca.from_edge_list(n, triples)
        path = tmp_path / "g.mtx"
        tosca.write_matrix_market(g, path)
        back = tosca.read_matrix_market(path)
        assert back.n == g.n
        assert np.abs(np.sort(back.weight) - np.sort(g.weight)).max() < 1e-9


    @pytest.mark.parametrize("symmetric", [False, True])
    def test_read_equals_triples_builder(self, tmp_path, rng, symmetric):
        # negative entries exercise the shift; duplicates the summation
        rows = [(int(i), int(j), float(rng.normal())) for i, j in rng.integers(1, 9, (40, 2))]
        if symmetric:
            rows = [(max(i, j), min(i, j), v) for i, j, v in rows]
        kind = "symmetric" if symmetric else "general"
        path = tmp_path / "m.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate real {kind}\n8 8 {len(rows)}\n"
            + "".join(f"{i} {j} {v!r}\n" for i, j, v in rows)
        )
        shifted = _shift_weights(np.array([v for _, _, v in rows]))
        triples = [(i - 1, j - 1, w) for (i, j, _), w in zip(rows, shifted.tolist())]
        assert_same_graph(
            tosca.read_matrix_market(path),
            tosca.from_edge_list(8, triples, directed=not symmetric),
        )

    def test_written_bytes(self, tmp_path):
        g = tosca.from_edge_list(
            3, [(0, 1, 0.1 + 0.2), (2, 0, 1 / 3), (1, 1, 3.0), (1, 2, 2.5e20)]
        )
        path = tmp_path / "g.mtx"
        tosca.write_matrix_market(g, path, comments=["seed=4"])
        assert path.read_text() == (
            "%%MatrixMarket matrix coordinate real general\n% seed=4\n3 3 4\n"
            "1 2 0.30000000000000004\n2 2 3\n2 3 2.5e+20\n3 1 0.33333333333333331\n"
        )


MM_GENERAL = "%%MatrixMarket matrix coordinate real general\n"
MM_SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric\n"


def read_outcome(path):
    """The graph read_matrix_market returns, or (error type, message, line)."""
    try:
        return tosca.read_matrix_market(path)
    except ToscaError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None))


def line_parser_outcome(path):
    """read_outcome with the one-call parse switched off: every entry
    block goes through the line-by-line parser."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_load_rows", lambda *args: None)
        return read_outcome(path)


def assert_same_outcome(fast, slow):
    if isinstance(slow, tuple):
        assert fast == slow
        return
    assert (fast.n, fast.directed) == (slow.n, slow.directed)
    for name in ("src", "dst", "weight"):
        x, y = getattr(fast, name), getattr(slow, name)
        assert x.dtype == y.dtype
        assert np.array_equal(x, y, equal_nan=True)


MM_INDEX = ["1", "2", "3", "+1", "03"]
MM_VALUE = ["2.5", "-0.5", "1e3", ".5", "inf", "0"]
MM_ODD = ["-1", "0", "4", "1.0", "1e0", "nan", "x", "#", "%", "1_0", ""]


@st.composite
def mm_entry_line(draw):
    """Mostly well-formed entries, with blank, '%' and malformed lines."""
    kind = draw(st.sampled_from(["entry"] * 6 + ["blank", "percent", "odd"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if kind == "percent":
        return "% note"
    if kind == "odd":
        tokens = draw(st.lists(st.sampled_from(MM_INDEX + MM_VALUE + MM_ODD), max_size=4))
    else:
        tokens = [draw(st.sampled_from(MM_INDEX)) for _ in range(2)]
        tokens.append(draw(st.sampled_from(MM_VALUE)))
    sep = draw(st.sampled_from([" ", "\t", "  ", "\x0b", "\xa0"]))
    return draw(st.sampled_from(["", " "])) + sep.join(tokens)


class TestMatrixMarketLineParserEquivalence:
    pytestmark = NO_LEAKED_HANDLES

    @pytest.mark.parametrize(
        "text",
        [
            MM_GENERAL + "% c\n3 3 4\n1 2 0.5\n2 3 1e-3\n3 1 2.5e20\n1 2 0.25\n",
            MM_SYMMETRIC + "3 3 3\n2 1 1.5\n3 3 2.0\n3 2 0.1\n",
            # non-positive values take the shift
            MM_GENERAL + "3 3 3\n1 2 -1.0\n2 3 0\n3 1 2.0\n",
            MM_SYMMETRIC + "3 3 2\n2 1 -0.5\n3 1 -2.0\n",
            # blank lines, tabs, padding, CRLF, signs and leading zeros
            MM_GENERAL + "3 3 3\n\n  1\t2\t1.0  \n\n+2 03 2.0\r\n3 1 .5\n   \n",
            # a '%' line among the entries is skipped
            MM_GENERAL + "3 3 2\n1 2 1.0\n% between\n2 3 2.0\n",
        ],
    )
    def test_same_graph(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        fast = read_outcome(path)
        assert isinstance(fast, tosca.Graph)
        assert_same_outcome(fast, line_parser_outcome(path))

    @pytest.mark.parametrize(
        "entries,line",
        [
            ("1.0 2 1.0\n", 3),
            ("1 2 1.0\n# note\n", 4),
            ("1 2\n", 3),
            ("1 2 1.0\n2 3 1.0 7\n", 4),
            ("0 2 1.0\n", 3),
            ("1 2 1.0\n2 4 1.0\n", 4),
            ("1 2 1.0\n2 3 1.0\n3 1 1.0\n", 5),
            ("1 2 1.0\n\n", 4),
            ("1 2 1_0\n2 1 x\n", 4),
            # a non-finite value is rejected before the shift
            ("1 2 1.0\n2 3 1e400\n", 4),
            ("1 2 nan\n2 3 -inf\n", 3),
        ],
    )
    def test_rejected_at_the_line_parsers_line(self, tmp_path, entries, line):
        path = tmp_path / "m.mtx"
        path.write_text(MM_GENERAL + "3 3 2\n" + entries)
        fast = read_outcome(path)
        assert isinstance(fast, tuple) and fast[2] == line
        assert fast == line_parser_outcome(path)

    @settings(max_examples=300, deadline=None)
    @given(symmetric=st.booleans(), nnz=st.integers(1, 4), lines=st.lists(mm_entry_line(), max_size=6))
    def test_any_entry_block_same_outcome(self, tmp_path_factory, symmetric, nnz, lines):
        path = tmp_path_factory.mktemp("mm") / "m.mtx"
        body = "".join(line + "\n" for line in lines)
        header = MM_SYMMETRIC if symmetric else MM_GENERAL
        path.write_text(header + f"3 3 {nnz}\n" + body)
        assert_same_outcome(read_outcome(path), line_parser_outcome(path))


def outcome(read, *args):
    """What ``read(*args)`` returns, or (error type, message, line)."""
    try:
        return read(*args)
    except ToscaError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None))


def forced_line_parser_outcome(read, *args):
    """``outcome`` with the one-call parse switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_load_rows", lambda *args: None)
        return outcome(read, *args)


def assert_same_result(a, b):
    """Equal error tuples, or equal arrays (dtype and NaNs included)."""
    assert type(a) is type(b)
    if isinstance(a, tuple) or isinstance(a, list):
        assert a == b
    elif isinstance(a, tosca.Graph):
        assert_same_outcome(a, b)
    elif isinstance(a, tosca.WalkSample):
        assert (a.mode, a.seed, a.n) == (b.mode, b.seed, b.n)
        for x, y in ((a.xs, b.xs), (a.ys, b.ys)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    else:
        p, q = (getattr(v, "p", v) for v in (a, b))  # a Density or an array
        assert p.dtype == q.dtype and p.shape == q.shape
        assert np.array_equal(p, q, equal_nan=True)


VERTEX = ["0", "1", "2", "+1", "02", "-1", "3", "5"]
VALUE = ["2.5", "-0.5", "1e3", ".5", "inf", "0", "nan", "1e400"]
ODD = ["1.0", "1e0", "x", "#", "%", "1_0", "", "99999999999999999999", "٣"]


@st.composite
def table_line(draw, columns, seps, extra, width=None):
    """Mostly rows of ``columns`` tokens, with blank, ``extra`` and malformed lines;
    rows and malformed lines may end in an inline comment.

    ``width`` (min, max) draws rows of that many tokens from the first
    column, for files without fixed columns.
    """
    kind = draw(st.sampled_from(["row"] * 6 + ["blank", "extra", "odd"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if kind == "extra":
        return draw(st.sampled_from(extra))
    if kind == "odd":
        tokens = draw(st.lists(st.sampled_from(sum(columns, []) + ODD), max_size=4))
    elif width is not None:
        tokens = draw(st.lists(st.sampled_from(columns[0]), min_size=width[0], max_size=width[1]))
    else:
        tokens = [draw(st.sampled_from(column)) for column in columns]
    line = draw(st.sampled_from(["", " "])) + draw(st.sampled_from(seps)).join(tokens)
    return line + draw(st.sampled_from(["", " # c", "#"]))


def _read_mu(path):
    return cli_module._resolve_mu(str(path), tosca.from_edge_list(3, []))


# name -> (reader, line strategy); each reader is called as reader(path)
TABLE_FORMATS = {
    "tsv": (
        tosca.read_edge_list,
        table_line(
            [VERTEX, VERTEX, VALUE], ["\t", "\t ", " "],
            ["# n=3", "# n=6 directed=0", "# directed=1", "# note", "# n=x", "#directed=2"],
        ),
    ),
    "walks": (
        tosca.read_walks,
        table_line(
            [VERTEX, VERTEX], [",", ", "],
            ["x,y", "# mode=single_trajectory seed=3", "# seed=-2", "# seed=x", "# mode=pairs", "#",
             "# n=4", "# seed=1 n=x", "# n=-1"],
        ),
    ),
    "labels": (
        tosca.galerkin.read_labels,
        table_line([VERTEX, VERTEX], [",", ", "], ["vertex_index,label", "# seed=1", "x,y"]),
    ),
    "partition": (
        tosca.galerkin.read_partition,
        table_line([VERTEX, VERTEX], [",", ", "], ["vertex_index,set_index", "# c", "x,y"]),
    ),
    "partition-n": (
        lambda path: tosca.galerkin.read_partition(path, 4),
        table_line([VERTEX, VERTEX], [","], ["vertex_index,set_index", "# c"]),
    ),
    "mu": (_read_mu, table_line([VALUE], [" ", "\t", "  "], ["# c", " # c"], width=(1, 3))),
    "probs": (
        tosca.generators.read_prob_matrix,
        table_line([VALUE], [",", ", "], ["# c", "0.5,,0.5"], width=(1, 3)),
    ),
}


class TestLineParserEquivalence:
    """Every reader gives the same outcome from the one-call parse and the
    line parser, on row blocks with blank, comment, header and malformed lines."""

    pytestmark = NO_LEAKED_HANDLES

    @pytest.mark.parametrize("name", sorted(TABLE_FORMATS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_table_same_outcome(self, tmp_path_factory, name, data):
        read, line = TABLE_FORMATS[name]
        lines = data.draw(st.lists(line, max_size=6))
        path = tmp_path_factory.mktemp("table") / "t.txt"
        path.write_text("".join(text + "\n" for text in lines))
        assert_same_result(outcome(read, path), forced_line_parser_outcome(read, path))

    @pytest.mark.parametrize("name", sorted(TABLE_FORMATS))
    def test_clean_rows_take_one_call(self, tmp_path, name):
        # a file of well-formed rows after its header never reaches the line parser
        read, _ = TABLE_FORMATS[name]
        text = {
            "tsv": "# n=3 directed=1\n# seed=2\n0\t1\t0.5\n2\t0\t1.5\n",
            "walks": "# mode=independent_pairs seed=4\nx,y\n0,1\n2,0\n",
            "labels": "# seed=4\nvertex_index,label\n1,0\n0,1\n2,1\n",
            "partition": "vertex_index,set_index\n0,1\n2,0\n1,1\n",
            "partition-n": "vertex_index,set_index\n0,1\n2,0\n",
            "mu": "0.25\n0.25\n0.5\n",
            "probs": "0.5,0.1\n0.2,0.5\n",
        }[name]
        path = tmp_path / "t.txt"
        path.write_text(text)
        load, loaded = graph_module._load_rows, []

        def spy(*args):
            loaded.append(load(*args))
            return loaded[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "_load_rows", spy)
            fast = read(path)
        assert len(loaded) == 1 and loaded[0] is not None
        assert_same_result(fast, forced_line_parser_outcome(read, path))

    @pytest.mark.parametrize("name", sorted(TABLE_FORMATS) + ["mm"])
    def test_blank_lines_after_the_first_row_take_one_call(self, tmp_path, name):
        # numpy skips the blank lines and the rows are taken as it returns
        # them; where fields split on whitespace, whitespace-only lines too
        read = tosca.read_matrix_market if name == "mm" else TABLE_FORMATS[name][0]
        text = {
            "mm": MM_GENERAL + "3 3 3\n1 2 0.5\n\n \t\n2 3 1.5\n\x0c\n3 1 2.0\n\xa0\n",
            "tsv": "# n=3 directed=1\n0\t1\t0.5\n\n\n2\t0\t1.5\n\n",
            "walks": "x,y\n0,1\n\n2,0\n\n",
            "labels": "vertex_index,label\n1,0\n\n0,1\n\n2,1\n",
            "partition": "vertex_index,set_index\n0,1\n\n2,0\n1,1\n\n",
            "partition-n": "vertex_index,set_index\n0,1\n\n\n2,0\n",
            "mu": "0.25\n \n0.25\n\x0b\n0.5\n\u3000\n",
            "probs": "0.5,0.1\n\n0.2,0.5\n\n",
        }[name]
        path = tmp_path / "t.txt"
        path.write_text(text)
        fast, loaded = outcome_and_loads(read, path)
        assert len(loaded) == 1 and loaded[0] is not None
        assert not isinstance(fast, tuple)
        assert_same_result(fast, forced_line_parser_outcome(read, path))

    @pytest.mark.parametrize("read, text, line, message", [
        (tosca.read_matrix_market, MM_GENERAL + "3 3 3\n1 2 0.5\n\n \n2 3 1.5\n\x0c\n4 1 2.0\n\n",
         8, "index (4, 1) outside 1..3"),
        (tosca.read_edge_list, "# n=3\n0\t1\t0.5\n\n\n2\t3\t1.5\n\n", 5, "vertex 3 outside [0, 3)"),
    ], ids=["mm-index", "tsv-vertex"])
    def test_fault_after_blank_lines_names_its_line(self, tmp_path, read, text, line, message):
        path = tmp_path / "t.txt"
        path.write_text(text)
        fast, loaded = outcome_and_loads(read, path)
        assert len(loaded) == 1 and loaded[0] is not None
        assert fast == forced_line_parser_outcome(read, path) == (ParseError, f"line {line}: {message}", line)

    @pytest.mark.parametrize("read, text", [
        (tosca.galerkin.read_labels, "# seed=4\nvertex_index,label\n1,0\n\n0,1\n2,1\n"),
        (tosca.galerkin.read_partition, "vertex_index,set_index\n0,1\n\n2,0\n1,1\n"),
        # a header line after the first row: the line parser reads the rows
        (tosca.galerkin.read_partition, "vertex_index,set_index\n0,1\nvertex_index,set_index\n2,0\n"),
        (tosca.read_matrix_market, MM_GENERAL + "% c\n3 3 2\n1 2 0.5\n\n2 3 1.5\n"),
    ], ids=["labels", "partition", "partition-line-parser", "mm"])
    def test_clean_reads_number_no_lines(self, tmp_path, monkeypatch, read, text):
        def numbered(rows):
            raise AssertionError("a clean read numbered its rows")

        path = tmp_path / "t.txt"
        path.write_text(text)
        monkeypatch.setattr(graph_module._Rows, "lines", property(numbered))
        monkeypatch.setattr(graph_module._Rows, "line_count", property(numbered))
        read(path)

    @pytest.mark.parametrize("name", sorted(TABLE_FORMATS) + ["mm"])
    def test_comment_lines_after_the_first_row_take_one_call(self, tmp_path, name):
        # numpy cuts each line at the mark, as the line parser does
        read = tosca.read_matrix_market if name == "mm" else TABLE_FORMATS[name][0]
        text = {
            "mm": MM_GENERAL + "3 3 3\n1 2 0.5\n% c\n2 3 1.5\n%\n3 1 2.0\n% end\n",
            "tsv": "# n=3 directed=1\n0\t1\t0.5\n# c\n2\t0\t1.5\n#\n",
            "walks": "x,y\n0,1\n# seed=2\n2,0\n# c\n",
            "labels": "vertex_index,label\n1,0\n# c\n0,1\n#\n2,1\n",
            "partition": "vertex_index,set_index\n0,1\n# c\n2,0\n1,1\n# c\n",
            "partition-n": "vertex_index,set_index\n0,1\n# c\n#\n2,0\n",
            "mu": "0.25\n# c\n0.25\n #c\n0.5\n# end\n",
            "probs": "0.5,0.1\n# c\n0.2,0.5\n#\n",
        }[name]
        path = tmp_path / "t.txt"
        path.write_text(text)
        fast, loaded = outcome_and_loads(read, path)
        assert len(loaded) == 1 and loaded[0] is not None
        assert not isinstance(fast, tuple)
        assert_same_result(fast, forced_line_parser_outcome(read, path))

    @pytest.mark.parametrize("read, text, clean", [
        (tosca.read_matrix_market, MM_GENERAL + "3 3 2\n1 2 0.5 % c\n2 3 1.5%\n",
         MM_GENERAL + "3 3 2\n1 2 0.5\n2 3 1.5\n"),
        (tosca.read_edge_list, "0\t1\t0.5 # note\n1\t2\t1.5#\n", "0\t1\t0.5\n1\t2\t1.5\n"),
        (tosca.read_walks, "x,y\n0,1 # c\n2,0\n", "x,y\n0,1\n2,0\n"),
        (tosca.galerkin.read_labels, "vertex_index,label\n1,0 # c\n0,1#c\n", "vertex_index,label\n1,0\n0,1\n"),
        (tosca.galerkin.read_partition, "0,1 # c\n2,0\n", "0,1\n2,0\n"),
    ], ids=["mm", "tsv", "walks", "labels", "partition"])
    def test_inline_comment_after_a_fixed_width_row(self, tmp_path, read, text, clean):
        path, clean_path = tmp_path / "t.txt", tmp_path / "clean.txt"
        path.write_text(text)
        clean_path.write_text(clean)
        fast, loaded = outcome_and_loads(read, path)
        assert len(loaded) == 1 and loaded[0] is not None
        assert not isinstance(fast, tuple)
        assert_same_result(fast, outcome(read, clean_path))
        assert_same_result(fast, forced_line_parser_outcome(read, path))

    @pytest.mark.parametrize("read, text, n", [
        (tosca.read_edge_list, "0\t1\t1.0\n# n=5\n1\t0\t1.0\n", 2),
        (tosca.read_walks, "x,y\n0,1\n# n=1 seed=9\n1,0\n", None),
    ], ids=["tsv", "walks"])
    def test_settings_after_the_first_row_are_not_read(self, tmp_path, read, text, n):
        path = tmp_path / "t.txt"
        path.write_text(text)
        fast = outcome(read, path)
        assert fast.n == n and getattr(fast, "seed", 0) == 0
        assert_same_result(fast, forced_line_parser_outcome(read, path))

    def test_row_of_another_width_is_a_field_count_fault(self, tmp_path):
        # a one-type table takes its width from the first row; a row of another
        # width is that fault even when one of its fields is no number
        path = tmp_path / "t.txt"
        path.write_text("0.5,0.1\n0.2,x,0.3\n")
        read = tosca.generators.read_prob_matrix
        message = "line 2: expected 2 values like the first row, found 3"
        assert outcome(read, path) == forced_line_parser_outcome(read, path) == (ParseError, message, 2)


def outcome_and_loads(read, path):
    """``outcome(read, path)``, and what each ``_load_rows`` call in it returned."""
    load, loaded = graph_module._load_rows, []

    def spy(*args):
        loaded.append(load(*args))
        return loaded[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_load_rows", spy)
        return outcome(read, path), loaded


MM_SYMMETRIC_HEAD = ["%%MatrixMarket matrix coordinate real symmetric", "% seed=1", "3 3 2"]

# name -> (_read_rows keywords, row tokens per column, separator, comment and
# header lines); "mm" reads a symmetric Matrix Market file past its head, as
# read_matrix_market does.
STREAM_FORMATS = {
    "mm": (
        {"types": graph_module._EDGE_ROW, "comment": "%", "shape": "entry must be 'row col value'"},
        [MM_INDEX, MM_INDEX, MM_VALUE], [" ", "\t"], ["% c", "%", "%%x"],
    ),
    "tsv": (
        {"types": graph_module._EDGE_ROW, "sep": "\t"},
        [VERTEX, VERTEX, VALUE], ["\t"], ["# n=3", "# c", "#"],
    ),
    "pairs": (
        {"types": (np.int64, np.int64), "sep": ",", "header": "x,y"},
        [VERTEX, VERTEX], [","], ["x,y", "# seed=2", "#"],
    ),
    "floats": (
        {"types": np.float64},
        [VALUE, VALUE], [" ", "  "], ["# c", " # c"],
    ),
}


@st.composite
def streamed_file(draw, name):
    """(text, head lines) of a table with a comment preamble, rows that may
    hold a blank, comment or malformed line after the first, one of three
    line endings, and maybe no final newline."""
    _, columns, seps, extra = STREAM_FORMATS[name]
    row = st.builds(
        lambda tokens, sep: sep.join(tokens),
        st.tuples(*(st.sampled_from(column) for column in columns)), st.sampled_from(seps),
    )
    odd = st.lists(st.sampled_from(sum(columns, []) + ODD), max_size=4).map(" ".join)
    preamble = draw(st.lists(st.sampled_from(extra + ["", " "]), max_size=3))
    rows = draw(st.lists(st.one_of(row, row, row, odd), max_size=5))
    after_first = draw(st.sampled_from(
        [[], [""], ["  "], ["\x0c"], ["\x0b"], ["\x1c"], ["\xa0"], ["\u3000"], [extra[0]], ["x"]]
    ))
    lines = preamble + rows[:1] + (after_first if rows else []) + rows[1:]
    head = MM_SYMMETRIC_HEAD if name == "mm" else []
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = newline if draw(st.booleans()) else ""
    return newline.join(head + lines) + (end if head + lines else ""), len(head)


def read_streamed(path, name, head, line_parser=False):
    """``_read_rows`` on the file at ``path`` past its ``head`` lines; with
    ``line_parser`` the one-call parse is switched off."""
    kwargs = STREAM_FORMATS[name][0]
    with pytest.MonkeyPatch.context() as patch:
        if line_parser:
            patch.setattr(graph_module, "_load_rows", lambda *args: None)
        return graph_module._read_rows(path, start=head, **kwargs)


class TestStreamedRows:
    pytestmark = NO_LEAKED_HANDLES

    @pytest.mark.parametrize("name", sorted(STREAM_FORMATS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_rows_as_line_parser(self, tmp_path_factory, name, data):
        text, head = data.draw(streamed_file(name))
        path = tmp_path_factory.mktemp("stream") / "t.txt"
        path.write_bytes(text.encode())
        fast = read_streamed(path, name, head)
        slow = read_streamed(path, name, head, line_parser=True)
        with open(path) as fh:
            assert fast.line_count == slow.line_count == len(fh.readlines())
        assert list(fast.lines) == list(slow.lines)
        assert fast.comments == slow.comments
        assert [(str(f), f.line) for f in (fast.fault, slow.fault) if f] == (
            [(str(slow.fault), slow.fault.line)] * 2 if slow.fault else []
        )
        assert len(fast.columns) == len(slow.columns)
        for x, y in zip(fast.columns, slow.columns):
            assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)

    @pytest.mark.parametrize("text,lines,count", [
        ("# a\r\n1 2\r\n3 4", [2, 3], 3),
        ("1 2\n\n3 4\n", [1, 3], 3),
        ("1 2\n# mid\n3 4", [1, 3], 3),
        ("\r# a\r1 2\r", [3], 3),
    ])
    def test_line_numbers(self, tmp_path, text, lines, count):
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode())
        rows = graph_module._read_rows(path, np.float64)
        assert (list(rows.lines), rows.line_count, rows.fault) == (lines, count, None)

    def test_fallback_rereads_from_the_first_row(self, tmp_path):
        # loadtxt rejects the block at its third row; the line parser reads
        # the rows before it, then stops there
        path = tmp_path / "t.txt"
        path.write_text("# n=4\n0\t1\t0.5\n1\t2\t1.5\n2\tx\t1.0\n3\t0\t2.0\n")
        rows = graph_module._read_rows(path, graph_module._EDGE_ROW, sep="\t")
        assert [c.tolist() for c in rows.columns] == [[0, 1], [1, 2], [0.5, 1.5]]
        assert (list(rows.lines), rows.comments) == ([2, 3], [(1, " n=4")])
        assert (str(rows.fault), rows.line_count) == ("line 4: cannot parse entry '2\tx\t1.0'", 5)


@st.composite
def small_graphs(draw, min_edges=0, directed=st.booleans()):
    n = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    weights = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)
    edges = draw(st.lists(st.tuples(pairs, weights), min_size=min_edges, max_size=12))
    triples = [(s, d, w) for (s, d), w in edges]
    return tosca.from_edge_list(n, triples, directed=draw(directed))


class TestRoundTrips:
    pytestmark = NO_LEAKED_HANDLES

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs())
    def test_edge_list(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("rt") / "g.tsv"
        tosca.write_edge_list(g, path, comments=["seed=1"])
        assert_same_graph(tosca.read_edge_list(path), g)

    def test_undirected_edge_list(self, tmp_path):
        g = tosca.from_edge_list(2, [(0, 1, 1.0)], directed=False)
        path = tmp_path / "g.tsv"
        tosca.write_edge_list(g, path)
        assert_same_graph(tosca.read_edge_list(path), g)

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs(min_edges=1))
    def test_matrix_market(self, tmp_path_factory, g):
        # written as 'general': an undirected graph comes back as its directed twin
        path = tmp_path_factory.mktemp("rt") / "g.mtx"
        tosca.write_matrix_market(g, path, comments=["seed=1"])
        back = tosca.read_matrix_market(path)
        assert_same_graph(back, _from_arrays(g.n, g.src, g.dst, g.weight, True))

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 10**12), st.integers(0, 10**12)), max_size=12),
        mode=st.sampled_from(["independent_pairs", "single_trajectory"]),
        seed=st.integers(-(2**63), 2**63 - 1),
    )
    def test_walks(self, tmp_path_factory, pairs, mode, seed):
        xs, ys = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
        sample = tosca.WalkSample(xs=xs, ys=ys, mode=mode, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "walks.csv"
        tosca.write_walks(sample, path)
        assert_same_result(tosca.read_walks(path), sample)

    @settings(max_examples=100, deadline=None)
    @given(
        sets=st.lists(st.sets(st.integers(0, 40), min_size=1), min_size=1, max_size=5).map(
            lambda sets: [sorted(s - set().union(*sets[:i])) for i, s in enumerate(sets)]
        ).filter(lambda sets: all(sets))
    )
    def test_partition(self, tmp_path_factory, sets):
        path = tmp_path_factory.mktemp("rt") / "partition.csv"
        tosca.galerkin.write_partition(sets, path)
        assert tosca.galerkin.read_partition(path) == sets
        assert tosca.galerkin.read_partition(path, 41) == sets

    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=20),
        seed=st.integers(0, 2**32),
    )
    def test_labels_as_cluster_writes_them(self, tmp_path_factory, labels, seed):
        labels = np.array(labels, dtype=np.int64)
        clustering = tosca.Clustering(labels=labels, k=len(np.unique(labels)), inertia=0.0, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "labels.csv"
        cli_module._write_labels(str(path), clustering, seed)
        assert_same_result(tosca.galerkin.read_labels(path), labels)


@pytest.mark.parametrize("directed", [True, False])
def test_writers_equal_per_edge_format(tmp_path, rng, directed):
    # repeated weights are formatted once and reused; the bytes are those
    # of formatting every edge on its own
    n = 30
    src, dst = rng.integers(0, n, (2, 200))
    weight = rng.choice([1.0, 0.1 + 0.2, 1 / 3, 2.5e20, 5e-324, float(rng.normal()) ** 2], 200)
    g = tosca.from_edge_list(n, zip(src.tolist(), dst.tolist(), weight.tolist()), directed)
    edges = list(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()))
    tosca.write_matrix_market(g, tmp_path / "g.mtx", comments=["a", "b"])
    assert (tmp_path / "g.mtx").read_text() == (
        f"%%MatrixMarket matrix coordinate real general\n% a\n% b\n{n} {n} {len(edges)}\n"
        + "".join(f"{s + 1} {d + 1} {w:.17g}\n" for s, d, w in edges)
    )
    # an undirected graph lists each edge once, as its src <= dst row
    tosca.write_edge_list(g, tmp_path / "g.tsv", comments=["a"])
    assert (tmp_path / "g.tsv").read_text() == (
        f"# n={n} directed={int(directed)}\n# a\n"
        + "".join(f"{s}\t{d}\t{w:.17g}\n" for s, d, w in edges if directed or s <= d)
    )


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1), st.floats(), st.sampled_from([0.0, -0.0, 1 / 3])),
        max_size=20,
    ),
    sep=st.sampled_from([",", "\t", " "]),
)
def test_write_rows_equals_per_row_format(tmp_path_factory, rows, sep):
    # one text per distinct bit pattern: -0.0, 0.0 and every nan keep their own
    path = tmp_path_factory.mktemp("rows") / "t.txt"
    ints, floats, repeated = (np.array([r[c] for r in rows]) for c in range(3))
    graph_module._write_rows(path, (ints.astype(np.int64), floats, repeated), sep, ["# a", "h"])
    assert path.read_text() == "# a\nh\n" + "".join(
        f"{i}{sep}{x:.17g}{sep}{y:.17g}\n" for i, x, y in rows
    )


def per_field_write_rows(path, columns, sep=",", head=()):
    """The string writer ``_write_rows`` replaced: one Python string per
    field, joined per row."""
    fields = []
    for column in map(np.asarray, columns):
        floats = column.dtype.kind == "f"
        column = column.astype(np.float64 if floats else np.int64, copy=False)
        keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
        text = map("{:.17g}".format if floats else str, keys.view(column.dtype).tolist())
        fields.append(np.array(list(text), dtype=object)[inverse].tolist())
    lines = [*head, *map(sep.join, zip(*fields))]
    Path(path).write_text("\n".join(lines) + "\n" if lines else "")


int_values = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(10**17) - 7, 10**17 + 3, -(2**63), 2**63 - 1, -1, 0]),
)
float_values = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 0.1 + 0.2]),
)
float32_values = st.one_of(st.floats(width=32), st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 1e-45]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(0, 25), kinds=st.lists(st.sampled_from("ifF"), max_size=4),
       head=st.lists(st.sampled_from(["# a", "h", "%%MatrixMarket matrix", "3 3 0"]), max_size=3),
       sep=st.sampled_from([",", "\t", " "]))
def test_write_rows_equals_per_field_writer(tmp_path_factory, data, rows, kinds, head, sep):
    # int64 with negative and 18-digit values, float64 with -0.0, nan, +-inf
    # and subnormals, float32; no rows, and head lines with no rows
    columns = []
    for kind in kinds:
        strategy = {"i": int_values, "f": float_values, "F": float32_values}[kind]
        values = data.draw(st.lists(strategy, min_size=rows, max_size=rows))
        columns.append(np.array(values, dtype={"i": np.int64, "f": np.float64, "F": np.float32}[kind]))
    folder = tmp_path_factory.mktemp("rows")
    graph_module._write_rows(folder / "new.txt", columns, sep, head)
    per_field_write_rows(folder / "old.txt", columns, sep, head)
    assert (folder / "new.txt").read_bytes() == (folder / "old.txt").read_bytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(1, 25),
       least=st.one_of(st.sampled_from([-(2**63), 2**63 - 26, -(10**17) - 7, -1, 0]),
                       st.integers(-(2**63), 2**63 - 26)),
       sep=st.sampled_from([",", "\t", " "]))
def test_write_rows_narrow_integer_ranges_equal_per_field_writer(
    tmp_path_factory, data, rows, least, sep
):
    # an integer column whose values span no more than its length is
    # formatted from its whole range, not from its distinct values: spans 0
    # and rows - 1 always are, span rows only when the values miss an end
    columns = [
        np.array(data.draw(st.lists(st.integers(least, least + span), min_size=rows, max_size=rows)),
                 dtype=np.int64)
        for span in (0, rows - 1, rows)
    ]
    folder = tmp_path_factory.mktemp("rows")
    graph_module._write_rows(folder / "new.txt", columns, sep, ["x,y,z"])
    per_field_write_rows(folder / "old.txt", columns, sep, ["x,y,z"])
    assert (folder / "new.txt").read_bytes() == (folder / "old.txt").read_bytes()


def test_writers_on_graph_without_edges(tmp_path):
    g = tosca.from_edge_list(3, [])
    tosca.write_matrix_market(g, tmp_path / "g.mtx")
    assert (tmp_path / "g.mtx").read_text() == (
        "%%MatrixMarket matrix coordinate real general\n3 3 0\n"
    )
    tosca.write_edge_list(g, tmp_path / "g.tsv")
    assert (tmp_path / "g.tsv").read_text() == "# n=3 directed=1\n"


class TestEdgeListIO:
    pytestmark = NO_LEAKED_HANDLES

    def test_round_trip(self, tmp_path, rng):
        n = 10
        mask = rng.random((n, n)) < 0.3
        triples = [
            (int(i), int(j), float(rng.uniform(0.1, 5.0)))
            for i, j in zip(*np.nonzero(mask))
        ]
        g = tosca.from_edge_list(n, triples)
        path = tmp_path / "g.tsv"
        tosca.write_edge_list(g, path)
        back = tosca.read_edge_list(path)
        assert back.n == g.n
        assert back.edge_multiset() == g.edge_multiset()

    def test_written_bytes(self, tmp_path):
        g = tosca.from_edge_list(3, [(0, 1, 0.1 + 0.2), (2, 0, 1 / 3), (1, 1, 3.0)])
        path = tmp_path / "g.tsv"
        tosca.write_edge_list(g, path)
        assert path.read_text() == (
            "# n=3 directed=1\n0\t1\t0.30000000000000004\n1\t1\t3\n"
            "2\t0\t0.33333333333333331\n"
        )

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_table_named_as_compressed(self, tmp_path, suffix):
        # numpy opens these names as compressed files; a plain table still reads
        plain, named = tmp_path / "g.tsv", tmp_path / f"g.tsv{suffix}"
        for path in (plain, named):
            path.write_text("# n=3 directed=1\n0\t1\t0.5\n2\t0\t1.5\n1\t1\t3\n")
        assert_same_outcome(tosca.read_edge_list(named), tosca.read_edge_list(plain))
        assert tosca.read_edge_list(plain).num_edges == 3

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_one_byte_table_named_as_compressed(self, tmp_path, suffix):
        # shorter than a compressed stream's header: the xz reader runs out of input
        named = tmp_path / f"t.txt{suffix}"
        named.write_text("7")
        rows = graph_module._read_rows(named, np.float64)
        assert [column.tolist() for column in rows.columns] == [[7.0]]
        assert (list(rows.lines), rows.fault, rows.line_count) == ([1], None, 1)

    def test_url_like_name_is_read_as_a_local_file(self, tmp_path, monkeypatch):
        # 'http://localhost/g.tsv' names the local file http:/localhost/g.tsv;
        # numpy would fetch a name that parses as a URL
        def no_fetch(*args, **kwargs):
            raise AssertionError("a local table was fetched as a URL")

        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        (tmp_path / "http:" / "localhost" / "g.tsv").write_text("# n=3\n0\t1\t0.5\n2\t0\t1.5\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        load, loaded = graph_module._load_rows, []

        def spy(*args):
            loaded.append(load(*args))
            return loaded[-1]

        monkeypatch.setattr(graph_module, "_load_rows", spy)
        assert tosca.read_edge_list("http://localhost/g.tsv").num_edges == 2
        assert len(loaded) == 1 and loaded[0] is not None

    def test_header_preserves_isolated_vertices(self, tmp_path):
        g = tosca.from_edge_list(5, [(0, 1, 1.0)])
        path = tmp_path / "g.tsv"
        tosca.write_edge_list(g, path)
        assert tosca.read_edge_list(path).n == 5

    def test_parse_error(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\t1.0\nbroken line\n")
        with pytest.raises(ParseError, match="line 2"):
            tosca.read_edge_list(path)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("# n=abc\n0\t1\t1.0\n", 1, "cannot parse n 'abc'"),
            ("# n=-1\n", 1, "cannot parse n '-1'"),
            ("# n=3\n# seed=1 directed=x\n0\t1\t1.0\n", 2, "cannot parse directed 'x'"),
            ("0\t1\t1.0\n-1\t0\t1.0\n", 2, "negative vertex -1"),
            ("# n=3\n0\t1\t1.0\n\n1\t3\t1.0\n", 4, "vertex 3 outside \\[0, 3\\)"),
        ],
    )
    def test_header_and_vertex_faults_have_lines(self, tmp_path, text, line, message):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as info:
            tosca.read_edge_list(path)
        assert info.value.line == line

    def test_vertex_beyond_given_count(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# n=9\n0\t1\t1.0\n2\t0\t1.0\n")
        with pytest.raises(ParseError, match="vertex 2 outside") as info:
            tosca.read_edge_list(path, n=2)
        assert info.value.line == 3
        # from_edge_list, for library callers, keeps its usage error
        with pytest.raises(IndexOutOfRangeError):
            tosca.from_edge_list(2, [(2, 0, 1.0)])


class TestReorder:
    def test_stable_permutation(self):
        g = tosca.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        _, perm = tosca.reorder_by_cluster(g, [1, 0, 1, 0])
        assert perm.tolist() == [1, 3, 0, 2]

    def test_identity_labels(self, rng):
        n = 8
        mask = rng.random((n, n)) < 0.4
        triples = [
            (int(i), int(j), float(rng.uniform(0.1, 2.0)))
            for i, j in zip(*np.nonzero(mask))
        ]
        g = tosca.from_edge_list(n, triples)
        reordered, perm = tosca.reorder_by_cluster(g, [0] * n)
        assert perm.tolist() == list(range(n))
        assert reordered.edge_multiset() == g.edge_multiset()

    def test_isomorphic_under_relabeling(self, rng):
        n = 8
        mask = rng.random((n, n)) < 0.4
        triples = [
            (int(i), int(j), float(rng.uniform(0.1, 2.0)))
            for i, j in zip(*np.nonzero(mask))
        ]
        g = tosca.from_edge_list(n, triples)
        labels = rng.integers(0, 3, n)
        reordered, perm = tosca.reorder_by_cluster(g, labels)
        inverse = np.empty(n, dtype=int)
        inverse[perm] = np.arange(n)
        expected = {
            (int(inverse[s]), int(inverse[d])): w
            for (s, d), w in g.edge_multiset().items()
        }
        assert reordered.edge_multiset() == expected
        assert (np.diff(labels[perm]) >= 0).all()

    def test_length_mismatch(self):
        g = tosca.from_edge_list(3, [(0, 1, 1.0)])
        with pytest.raises(LengthMismatchError):
            tosca.reorder_by_cluster(g, [0, 1])


def test_undirected_builder_is_symmetric(rng):
    g = random_undirected_graph(20, rng)
    a = g.adjacency.toarray()
    assert (a == a.T).all()
