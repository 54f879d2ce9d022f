import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tosca
from tosca.errors import (
    EmptySetError,
    IndexOutOfRangeError,
    KOutOfRangeError,
    OverlappingSetsError,
    ParseError,
    SingularGramError,
    ToscaError,
)

from conftest import example_block_matrix, random_directed_graph, three_cycles_graph


def fb_operator(g, mu=None):
    mu = mu or tosca.uniform_density(g.n)
    return tosca.forward_backward(tosca.transition_matrix(g), mu)


def loop_indicator_basis(n, sets):
    """indicator_basis as a loop over the vertices, checking each in set order."""
    phi_v = np.zeros((len(sets), n))
    seen = set()
    for row, vertices in enumerate(sets):
        vertices = list(vertices)
        if not vertices:
            raise EmptySetError(f"set {row} is empty")
        for v in vertices:
            if not isinstance(v, (int, np.integer)) and not float(v).is_integer():
                raise ToscaError(f"vertex {v} is not an integer")
            v = int(v)
            if not 0 <= v < n:
                raise IndexOutOfRangeError(f"vertex {v} outside [0, {n})")
            if v in seen:
                raise OverlappingSetsError(f"vertex {v} appears in two sets")
            seen.add(v)
            phi_v[row, v] = 1.0
    return phi_v


def vertex_values(n):
    """Vertices as Python ints, numpy ints and integral floats, mostly in range,
    among fractions, nan, +-inf and ints beyond int64 and float."""
    inside = st.integers(0, n - 1) if n else st.nothing()
    integral = st.one_of(inside, inside, inside, inside, st.integers(-2, n + 2))
    return st.one_of(
        integral, integral.map(np.int64), integral.map(np.int32), integral.map(float),
        integral.map(np.float64), st.integers(0, n + 2).map(np.uint8),
        st.sampled_from([1.5, -0.5, np.float32(2.5), np.nan, np.inf, -np.inf, 2**63, 2**70, 2**1100]),
    )


def vertex_sets(n):
    """A set as a list, or as the numpy array numpy makes of a list without
    ints beyond int64."""
    nonempty = st.lists(vertex_values(n), min_size=1, max_size=4)
    lists = st.one_of(nonempty, nonempty, nonempty, st.just([]))
    fits = lists.filter(lambda vs: not any(isinstance(v, int) and abs(v) >= 2**63 for v in vs))
    return st.one_of(lists, fits.map(np.array))


class TestIndicatorBasis:
    def test_singletons_give_identity(self):
        basis = tosca.indicator_basis(4, [[0], [1], [2], [3]])
        assert np.array_equal(basis.phi_v, np.eye(4))

    def test_block_partition_shape(self):
        sets = [range(100 * j, 100 * (j + 1)) for j in range(4)]
        basis = tosca.indicator_basis(400, sets)
        assert basis.phi_v.shape == (4, 400)
        assert set(np.unique(basis.phi_v)) == {0.0, 1.0}
        assert basis.phi_v.sum() == 400

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSetsError, match=r"^vertex 1 appears in two sets$"):
            tosca.indicator_basis(4, [[0, 1], [1, 2]])

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError, match=r"^set 1 is empty$"):
            tosca.indicator_basis(4, [[0], []])

    @pytest.mark.parametrize("sets, error, message", [
        ([[0, 1.5], [2.9]], ToscaError, "vertex 1.5 is not an integer"),
        ([[0, np.nan]], ToscaError, "vertex nan is not an integer"),
        ([np.array([2, -np.inf])], ToscaError, "vertex -inf is not an integer"),
        ([[0, 4]], IndexOutOfRangeError, "vertex 4 outside [0, 4)"),
        ([[-1]], IndexOutOfRangeError, "vertex -1 outside [0, 4)"),
        ([[2**1100]], IndexOutOfRangeError, f"vertex {2**1100} outside [0, 4)"),
        ([[0, 1, 1]], OverlappingSetsError, "vertex 1 appears in two sets"),
        ([[0, 2], [3, 2.0]], OverlappingSetsError, "vertex 2 appears in two sets"),
        # the first offending vertex in set order decides
        ([[5, 0.5]], IndexOutOfRangeError, "vertex 5 outside [0, 4)"),
        ([[0.5, 5]], ToscaError, "vertex 0.5 is not an integer"),
        ([[1], [1, 9]], OverlappingSetsError, "vertex 1 appears in two sets"),
        ([[1], [9, 1]], IndexOutOfRangeError, "vertex 9 outside [0, 4)"),
        ([[1], [2, 2, 7]], OverlappingSetsError, "vertex 2 appears in two sets"),
        ([[0, 9], []], IndexOutOfRangeError, "vertex 9 outside [0, 4)"),
        ([[0], [], [9]], EmptySetError, "set 1 is empty"),
        ([[], [0.5]], EmptySetError, "set 0 is empty"),
    ])
    def test_first_offending_vertex_named(self, sets, error, message):
        with pytest.raises(error) as caught:
            tosca.indicator_basis(4, sets)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_non_integer_vertex_is_a_data_error(self):
        with pytest.raises(ToscaError) as caught:
            tosca.indicator_basis(4, [[0, 1.5]])
        assert caught.value.exit_code == 3

    def test_integer_valued_floats_name_vertices(self):
        sets = [np.array([0.0, 2.0]), [np.int32(3)], range(1, 2)]
        basis = tosca.indicator_basis(4, sets)
        assert np.array_equal(basis.phi_v, tosca.indicator_basis(4, [[0, 2], [3], [1]]).phi_v)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(vertex_sets(n), max_size=4))
    ))
    def test_equals_per_vertex_loop(self, case):
        n, sets = case
        try:
            expected = loop_indicator_basis(n, sets)
        except ToscaError as error:
            with pytest.raises(ToscaError) as caught:
                tosca.indicator_basis(n, sets)
            assert type(caught.value) is type(error)
            assert str(caught.value) == str(error)
        else:
            basis = tosca.indicator_basis(n, sets)
            assert basis.phi_v.dtype == expected.dtype and np.array_equal(basis.phi_v, expected)
            assert np.array_equal(np.eye(len(sets), len(sets) + 1)[:, basis.classes], expected)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sets, expected", [
        # numpy holds these only as strings or objects: the loop reads them
        ([["2"]], [[0, 0, 1, 0]]),
        ([[Fraction(2, 1)]], [[0, 0, 1, 0]]),
        ([[0], [Fraction(2, 1)]], [[1, 0, 0, 0], [0, 0, 1, 0]]),
        # beyond int64: checked before any cast, so nothing warns
        ([[2**63, 0.0]], IndexOutOfRangeError(f"vertex {2**63} outside [0, 4)")),
        ([[2**64]], IndexOutOfRangeError(f"vertex {2**64} outside [0, 4)")),
        ([[1e300]], IndexOutOfRangeError("vertex 1e+300 outside [0, 4)")),
        ([np.array([1e19, 1.0])], IndexOutOfRangeError("vertex 1e+19 outside [0, 4)")),
        # a string of decimal digits is read as an exact integer, any other as a float
        ([["2.0"]], [[0, 0, 1, 0]]),
        ([["1e300"]], IndexOutOfRangeError("vertex 1e+300 outside [0, 4)")),
        ([[str(2**64 + 1)]], IndexOutOfRangeError(f"vertex {2**64 + 1} outside [0, 4)")),
        ([["x"]], ToscaError("vertex x is not an integer")),
        # values that float() rejects
        ([[0, [1, 2]]], ToscaError("vertex [1, 2] is not an integer")),
        ([[np.array([2.0])]], ToscaError("vertex [2.] is not an integer")),
        ([[None]], ToscaError("vertex None is not an integer")),
        ([[1 + 0j]], ToscaError("vertex (1+0j) is not an integer")),
        # beyond float's range, named as given
        ([[Fraction(10**400)]], IndexOutOfRangeError(f"vertex {10**400} outside [0, 4)")),
    ], ids=["str", "fraction", "fraction-after-int", "2**63", "2**64", "1e300", "1e19-array",
            "str-float", "str-1e300", "str-2**64+1", "str-not-a-number", "list", "array", "none",
            "complex", "fraction-beyond-float"])
    def test_inputs_numpy_cannot_join_or_cast(self, sets, expected):
        if isinstance(expected, ToscaError):
            with pytest.raises(ToscaError) as caught:
                tosca.indicator_basis(4, sets)
            assert type(caught.value) is type(expected) and str(caught.value) == str(expected)
        else:
            assert np.array_equal(tosca.indicator_basis(4, sets).phi_v, expected)

    def test_partial_cover_allowed(self):
        basis = tosca.indicator_basis(5, [[0, 1], [3]])
        assert basis.r == 2
        assert basis.phi_v[:, 2].sum() == 0


class TestProject:
    def test_full_indicator_basis_reproduces_operator(self):
        g = three_cycles_graph()
        op = fb_operator(g)
        basis = tosca.indicator_basis(g.n, [[i] for i in range(g.n)])
        red = tosca.project(op, basis)
        assert np.abs(red.l_r - op.m).max() < 1e-12
        assert np.array_equal(red.g0, np.diag(op.mu.p))

    def test_eigenvector_basis_diagonalizes(self):
        g = three_cycles_graph()
        mu = tosca.uniform_density(g.n)
        spec = tosca.fb_spectrum(tosca.transition_matrix(g), mu, 4)
        op = fb_operator(g, mu)
        red = tosca.project(op, tosca.Basis(phi_v=spec.phi.T))
        assert np.abs(red.l_r - np.diag(spec.lam)).max() < 1e-8

    def test_block_basis_structure(self):
        params = tosca.DSBMParams(r_b=4, n_b=100, e=example_block_matrix(), seed=0)
        g = tosca.dsbm_sample(params)
        op = fb_operator(g)
        sets = [range(100 * j, 100 * (j + 1)) for j in range(4)]
        red = tosca.project(op, tosca.indicator_basis(400, sets))
        assert red.l_r.shape == (4, 4)
        off_diag = red.l_r - np.diag(np.diag(red.l_r))
        assert np.abs(np.diag(red.l_r)).min() > 3 * np.abs(off_diag).max()

    def test_reduced_identity(self, rng):
        g = random_directed_graph(20, rng)
        op = fb_operator(g)
        basis = tosca.indicator_basis(20, [range(0, 10), range(10, 20)])
        red = tosca.project(op, basis)
        recovered = np.linalg.solve(red.g0, red.g1)
        assert np.abs(red.l_r - recovered).max() < 1e-10

    def test_rank_deficient_rejected(self):
        g = three_cycles_graph()
        op = fb_operator(g)
        phi_v = np.ones((2, g.n))  # duplicate rows
        with pytest.raises(SingularGramError):
            tosca.project(op, tosca.Basis(phi_v=phi_v))

    def test_nu_weighted_kinds(self):
        # T and B project against nu; the full basis must still
        # reproduce the operator
        g = three_cycles_graph()
        mu = tosca.uniform_density(g.n)
        basis = tosca.indicator_basis(g.n, [[i] for i in range(g.n)])
        for build in (tosca.reweighted, tosca.backward_forward):
            op = build(tosca.transition_matrix(g), mu)
            red = tosca.project(op, basis)
            assert np.abs(red.l_r - op.m).max() < 1e-12

    def test_koopman_projection_general_path(self):
        # K is not self-adjoint on directed graphs; the general
        # eigensolver path must still recover the full spectrum
        g = three_cycles_graph()
        mu = tosca.uniform_density(g.n)
        s = tosca.transition_matrix(g)
        op = tosca.koopman(s, mu)
        basis = tosca.indicator_basis(g.n, [[i] for i in range(g.n)])
        red = tosca.project(op, basis)
        assert np.abs(red.l_r - op.m).max() < 1e-12
        vals, _ = tosca.reduced_eigenfunctions(red, 3)
        oracle = np.sort(np.linalg.eigvals(op.m).real)[::-1][:3]
        assert np.abs(np.sort(vals.real)[::-1] - oracle).max() < 1e-10

    def test_densityless_operator_rejected(self):
        g = three_cycles_graph()
        op = tosca.koopman(tosca.transition_matrix(g))
        basis = tosca.indicator_basis(g.n, [[i] for i in range(g.n)])
        with pytest.raises(tosca.errors.ToscaError):
            tosca.project(op, basis)


class TestReducedEigenfunctions:
    def test_full_basis_matches_spectrum(self):
        g = three_cycles_graph()
        mu = tosca.uniform_density(g.n)
        spec = tosca.fb_spectrum(tosca.transition_matrix(g), mu, 4)
        op = fb_operator(g, mu)
        basis = tosca.indicator_basis(g.n, [[i] for i in range(g.n)])
        vals, funcs = tosca.reduced_eigenfunctions(tosca.project(op, basis), 4)
        assert np.abs(vals - spec.lam).max() < 1e-8
        assert funcs.shape == (12, 4)

    def test_constant_basis(self, rng):
        g = random_directed_graph(10, rng)
        op = fb_operator(g)
        basis = tosca.Basis(phi_v=np.ones((1, 10)))
        vals, funcs = tosca.reduced_eigenfunctions(tosca.project(op, basis), 1)
        assert abs(vals[0] - 1.0) < 1e-12
        assert np.abs(funcs - funcs[0, 0]).max() == 0.0

    def test_lifting_linearity(self):
        g = three_cycles_graph()
        op = fb_operator(g)
        sets = [range(0, 4), range(4, 8), range(8, 12)]
        red = tosca.project(op, tosca.indicator_basis(12, sets))
        xi_a = np.array([1.0, 2.0, -1.0])
        xi_b = np.array([0.5, -3.0, 2.0])
        lift = lambda xi: red.basis.phi_v.T @ xi
        assert np.array_equal(lift(xi_a + xi_b), lift(xi_a) + lift(xi_b))

    def test_reduced_eigenvalues_in_unit_interval(self, rng):
        # Rayleigh-Ritz values of the contraction stay in [0, 1]
        for _ in range(10):
            n = int(rng.integers(8, 30))
            g = random_directed_graph(n, rng)
            op = fb_operator(g)
            r = int(rng.integers(1, 6))
            basis = tosca.Basis(phi_v=rng.normal(size=(r, n)))
            vals, _ = tosca.reduced_eigenfunctions(tosca.project(op, basis), r)
            assert vals.max() <= 1.0 + 1e-10
            assert vals.min() >= -1e-10

    def test_k_out_of_range(self):
        g = three_cycles_graph()
        red = tosca.project(
            fb_operator(g), tosca.indicator_basis(12, [range(0, 6), range(6, 12)])
        )
        with pytest.raises(KOutOfRangeError):
            tosca.reduced_eigenfunctions(red, 3)

    def test_block_basis_approximates_full_spectrum(self):
        params = tosca.DSBMParams(r_b=4, n_b=100, e=example_block_matrix(), seed=0)
        g = tosca.dsbm_sample(params)
        mu = tosca.uniform_density(400)
        full = tosca.fb_spectrum(tosca.transition_matrix(g), mu, 4)
        sets = [range(100 * j, 100 * (j + 1)) for j in range(4)]
        red = tosca.project(fb_operator(g, mu), tosca.indicator_basis(400, sets))
        vals, funcs = tosca.reduced_eigenfunctions(red, 4)
        # never above the full eigenvalues, and close below
        assert (vals <= full.lam + 1e-8).all()
        assert np.abs(vals - full.lam).max() < 0.02
        # lifted functions are block-constant
        for ell in range(4):
            for j in range(4):
                block = funcs[100 * j : 100 * (j + 1), ell]
                assert np.abs(block - block[0]).max() == 0.0


class TestPartitionIO:
    def test_round_trip(self, tmp_path):
        sets = [[0, 1, 4], [2, 3]]
        path = tmp_path / "partition.csv"
        tosca.galerkin.write_partition(sets, path)
        back = tosca.galerkin.read_partition(path)
        assert [sorted(group) for group in back] == [[0, 1, 4], [2, 3]]

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([[4, 0], np.array([2.0, 3]), range(1, 2)], path)
        assert path.read_bytes() == b"vertex_index,set_index\n4,0\n0,0\n2,1\n3,1\n1,2\n"
        assert tosca.galerkin.read_partition(path) == [[4, 0], [2, 3], [1]]

    @pytest.mark.parametrize("sets, error, message", [
        ([[0, 1], [], [2]], EmptySetError, "set 1 is empty"),
        ([[0.5]], ToscaError, "vertex 0.5 is not an integer"),
        ([[0, 1], [1]], OverlappingSetsError, "vertex 1 appears in two sets"),
        ([[-1]], IndexOutOfRangeError, f"vertex -1 outside [0, {2**63})"),
        # beyond int64: rejected before the int64 cast, which would overflow
        ([[2**63]], IndexOutOfRangeError, f"vertex {2**63} outside [0, {2**63})"),
        ([[2**64]], IndexOutOfRangeError, f"vertex {2**64} outside [0, {2**63})"),
        ([[1e300]], IndexOutOfRangeError, f"vertex 1e+300 outside [0, {2**63})"),
        ([["1e300"]], IndexOutOfRangeError, f"vertex 1e+300 outside [0, {2**63})"),
        ([[str(2**63)]], IndexOutOfRangeError, f"vertex {2**63} outside [0, {2**63})"),
        ([["x"]], ToscaError, "vertex x is not an integer"),
        ([[[1, 2]]], ToscaError, "vertex [1, 2] is not an integer"),
        ([[np.array([2.0])]], ToscaError, "vertex [2.] is not an integer"),
        ([[None]], ToscaError, "vertex None is not an integer"),
        ([[1 + 0j]], ToscaError, "vertex (1+0j) is not an integer"),
        pytest.param([[Fraction(10**400)]], IndexOutOfRangeError, f"vertex {10**400} outside [0, {2**63})",
                     id="fraction-beyond-float"),
    ])
    def test_sets_indicator_basis_rejects_are_not_written(self, tmp_path, sets, error, message):
        path = tmp_path / "partition.csv"
        with pytest.raises(error) as caught:
            tosca.galerkin.write_partition(sets, path)
        assert type(caught.value) is error and str(caught.value) == message
        assert not path.exists()
        with pytest.raises(error) as caught:
            tosca.indicator_basis(4, sets)
        assert type(caught.value) is error

    def test_string_vertices_written(self, tmp_path):
        path = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([["2.0", str(2**63 - 1)], ["0"]], path)
        assert path.read_bytes() == b"vertex_index,set_index\n2,0\n9223372036854775807,0\n0,1\n"

    def test_largest_int64_vertex_written(self, tmp_path):
        path = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([[2**63 - 1, 0], [np.int64(2**63 - 2)]], path)
        assert path.read_bytes() == (
            b"vertex_index,set_index\n9223372036854775807,0\n0,0\n9223372036854775806,1\n"
        )

    @pytest.mark.parametrize(
        "text,line", [("vertex_index,set_index\n", 1), ("# c\nvertex_index,set_index\n\n", 3), ("", 1)]
    )
    def test_no_rows_rejected(self, tmp_path, text, line):
        path = tmp_path / "partition.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="no partition rows") as info:
            tosca.galerkin.read_partition(path)
        assert info.value.line == line


    @pytest.mark.parametrize(
        "rows,n,line,message",
        [
            ("0,0\n-1,1\n", None, 3, "negative vertex -1"),
            ("0,0\n-1,1\n", 4, 3, "negative vertex -1"),
            ("0,0\n\n4,1\n", 4, 4, "vertex 4 outside \\[0, 4\\)"),
        ],
    )
    def test_vertex_outside_rejected(self, tmp_path, rows, n, line, message):
        path = tmp_path / "partition.csv"
        path.write_text("vertex_index,set_index\n" + rows)
        with pytest.raises(ParseError, match=message) as info:
            tosca.galerkin.read_partition(path, n)
        assert info.value.line == line

    @pytest.mark.parametrize("rows, line", [
        ("0,0\n1,0\n# c\n0,1\n", 5),
        ("0,0\n0,0\n", 3),
        ("1,0\n0,1\n2,1\n0,1\n", 5),
    ])
    def test_repeated_vertex_rejected_at_its_second_row(self, tmp_path, rows, line):
        path = tmp_path / "partition.csv"
        path.write_text("vertex_index,set_index\n" + rows)
        with pytest.raises(ParseError) as info:
            tosca.galerkin.read_partition(path)
        assert str(info.value) == f"line {line}: vertex 0 appears in two sets"
        assert info.value.line == line and info.value.exit_code == 3

    def test_earliest_fault_wins(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("vertex_index,set_index\n0,0\n0,1\n-1,1\n")
        with pytest.raises(ParseError, match="^line 3: vertex 0 appears in two sets$"):
            tosca.galerkin.read_partition(path)
        path.write_text("vertex_index,set_index\n-1,0\n0,0\n-1,1\n")
        with pytest.raises(ParseError, match="^line 2: negative vertex -1$"):
            tosca.galerkin.read_partition(path)

    def test_vertex_count_is_optional(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("vertex_index,set_index\n0,0\n9,1\n")
        assert tosca.galerkin.read_partition(path) == [[0], [9]]
        assert tosca.galerkin.read_partition(path, 10) == [[0], [9]]


class TestLabelIO:
    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("# seed=0\nvertex_index,label\n2,7\n0,5\n1,6\n")
        assert tosca.galerkin.read_labels(path).tolist() == [5, 6, 7]

    @pytest.mark.parametrize(
        "rows,line",
        [
            ("0,0\n1,0\n3,1\n", 4),  # gap: vertex 2 missing
            ("0,0\n1,0\n1,1\n", 4),  # duplicate vertex
            ("0,0\n-1,0\n", 3),  # negative vertex
            ("0,0\n1\n", 3),  # no comma
            ("0,0\n1,a\n", 3),  # not an integer
            ("0,0\n99999999999999999999,1\n", 3),  # beyond int64
        ],
    )
    def test_bad_rows_rejected_with_line(self, tmp_path, rows, line):
        path = tmp_path / "labels.csv"
        path.write_text("vertex_index,label\n" + rows)
        with pytest.raises(ParseError) as info:
            tosca.galerkin.read_labels(path)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "text,line", [("vertex_index,label\n", 1), ("# seed=0\nvertex_index,label\n\n", 3), ("", 1)]
    )
    def test_no_rows_rejected(self, tmp_path, text, line):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="no label rows") as info:
            tosca.galerkin.read_labels(path)
        assert info.value.line == line


def test_projection_forms_no_n_by_n_array():
    # n = 4000: a dense F alone would take 122 MiB
    r_b, n_b = 32, 125
    e = 0.001 * np.ones((r_b, r_b)) + 0.049 * np.eye(r_b)
    g = tosca.add_self_loops(tosca.dsbm_sample(tosca.DSBMParams(r_b=r_b, n_b=n_b, e=e, seed=300)), 1.0)
    s, mu = tosca.transition_matrix(g), tosca.uniform_density(g.n)
    basis = tosca.indicator_basis(g.n, [range(n_b * j, n_b * (j + 1)) for j in range(r_b)])
    small = three_cycles_graph()  # load the solver modules before tracing
    tosca.reduced_eigenfunctions(
        tosca.project(fb_operator(small), tosca.indicator_basis(12, [range(6), range(6, 12)])), 2
    )
    tracemalloc.start()
    try:
        op = tosca.forward_backward(s, mu)
        vals, _ = tosca.reduced_eigenfunctions(tosca.project(op, basis), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert "m" not in op.__dict__
    assert abs(vals[0] - 1.0) < 1e-12
