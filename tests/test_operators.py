import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tosca
from tosca.errors import (
    EmptyMatrixError,
    NonPositiveDensityError,
    NotUndirectedError,
    ZeroDegreeError,
)

from conftest import random_directed_graph, random_undirected_graph, three_cycles_graph


def permutation_graph(n=4):
    return tosca.from_edge_list(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


class TestDensity:
    def test_must_sum_to_one(self):
        with pytest.raises(tosca.errors.ToscaError):
            tosca.Density(np.array([0.5, 0.6]))

    def test_nonnegative(self):
        with pytest.raises(tosca.errors.ToscaError):
            tosca.Density(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("mass", [np.nan, np.inf])
    def test_finite(self, mass):
        with pytest.raises(tosca.errors.ToscaError, match="non-finite mass at vertex 1"):
            tosca.Density(np.array([0.5, mass, 0.5]))

    def test_uniform_on_no_vertices(self):
        with pytest.raises(EmptyMatrixError):
            tosca.uniform_density(0)

    def test_strict_positivity_predicate(self):
        assert tosca.Density(np.array([0.5, 0.5])).strictly_positive()
        assert not tosca.Density(np.array([1.0, 0.0])).strictly_positive()


class TestImageDensity:
    def test_permutation_swaps_mass(self):
        s = tosca.transition_matrix(tosca.from_edge_list(2, [(0, 1, 1.0), (1, 0, 1.0)]))
        nu = tosca.image_density(s, tosca.Density(np.array([0.3, 0.7])))
        assert np.allclose(nu.p, [0.7, 0.3], atol=0)

    def test_identity(self):
        s = tosca.transition_matrix(
            tosca.add_self_loops(tosca.from_edge_list(3, []), 1.0)
        )
        mu = tosca.Density(np.array([0.2, 0.3, 0.5]))
        assert np.array_equal(tosca.image_density(s, mu).p, mu.p)

    def test_matches_dense_matvec(self):
        g = three_cycles_graph()
        s = tosca.transition_matrix(g)
        mu = tosca.uniform_density(12)
        oracle = s.dense().T @ mu.p
        assert np.allclose(tosca.image_density(s, mu).p, oracle, atol=1e-15)


class TestKoopmanPerron:
    def test_transpose(self):
        g = tosca.from_edge_list(2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)])
        s = tosca.transition_matrix(g)
        assert np.allclose(tosca.perron_frobenius(s).m, [[0.5, 1.0], [0.5, 0.0]], atol=0)
        assert tosca.koopman(s).kind == "K"
        assert tosca.perron_frobenius(s).kind == "P"

    def test_koopman_preserves_constants(self, rng):
        g = random_directed_graph(15, rng)
        k = tosca.koopman(tosca.transition_matrix(g)).m
        assert np.abs(k @ np.ones(15) - 1.0).max() < 1e-12

    def test_duality(self, rng):
        # <P rho, f> = <rho, K f> under the standard inner product
        g = random_directed_graph(10, rng)
        s = tosca.transition_matrix(g)
        p = tosca.perron_frobenius(s).m
        k = tosca.koopman(s).m
        for _ in range(10):
            rho, f = rng.normal(size=10), rng.normal(size=10)
            assert abs((p @ rho) @ f - rho @ (k @ f)) < 1e-12


class TestReweighted:
    def test_reversible_t_equals_k(self, rng):
        g = random_undirected_graph(12, rng)
        s = tosca.transition_matrix(g)
        pi = tosca.stationary_density(g)
        t = tosca.reweighted(s, pi).m
        assert np.abs(t - s.dense()).max() < 1e-12

    def test_permutation_uniform_gives_transpose(self):
        g = permutation_graph(4)
        s = tosca.transition_matrix(g)
        t = tosca.reweighted(s, tosca.uniform_density(4)).m
        assert np.array_equal(t, s.dense().T)

    def test_rows_sum_to_one(self):
        g = three_cycles_graph()
        t = tosca.reweighted(tosca.transition_matrix(g), tosca.uniform_density(12)).m
        assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-12

    def test_unreachable_vertex_rejected(self):
        # vertex 0 has out-edges but no in-edges, so nu(0) = 0
        g = tosca.from_edge_list(2, [(0, 1, 1.0), (1, 1, 1.0)])
        s = tosca.transition_matrix(g)
        with pytest.raises(NonPositiveDensityError, match="nu"):
            tosca.reweighted(s, tosca.uniform_density(2))

    def test_zero_start_mass_rejected(self):
        g = permutation_graph(3)
        s = tosca.transition_matrix(g)
        with pytest.raises(NonPositiveDensityError, match="mu"):
            tosca.reweighted(s, tosca.Density(np.array([0.5, 0.5, 0.0])))


def shared_out_neighbor(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            out[i, j] = any((a[i, k] > 0) and (a[j, k] > 0) for k in range(n))
    return out


class TestForwardBackward:
    def test_permutation_uniform_is_identity(self):
        g = permutation_graph(5)
        f = tosca.forward_backward(tosca.transition_matrix(g), tosca.uniform_density(5)).m
        assert np.allclose(f, np.eye(5), atol=1e-15)

    def test_uniform_mu_doubly_stochastic(self, rng):
        g = random_directed_graph(20, rng)
        f = tosca.forward_backward(tosca.transition_matrix(g), tosca.uniform_density(20)).m
        assert np.abs(f.sum(axis=0) - 1.0).max() < 1e-10
        assert np.abs(f.sum(axis=1) - 1.0).max() < 1e-10

    def test_composition_order(self, rng):
        g = random_directed_graph(12, rng)
        s = tosca.transition_matrix(g)
        mu = tosca.uniform_density(12)
        t = tosca.reweighted(s, mu).m
        k = s.dense()
        assert np.allclose(tosca.forward_backward(s, mu).m, k @ t, atol=1e-14)
        assert np.allclose(tosca.backward_forward(s, mu).m, t @ k, atol=1e-14)

    def test_sparsity_shared_neighbor(self, rng):
        # F(i, j) != 0 iff i and j share an out-neighbor; B needs a
        # shared in-neighbor (checked via the reversed graph)
        for n in (10, 25, 50):
            g = random_directed_graph(n, rng, density=0.15)
            a = g.adjacency.toarray()
            mu = tosca.uniform_density(n)
            f = tosca.forward_backward(tosca.transition_matrix(g), mu).m
            assert ((np.abs(f) > 1e-15) == shared_out_neighbor(a)).all()
            b = tosca.backward_forward(tosca.transition_matrix(g), mu).m
            assert ((np.abs(b) > 1e-15) == shared_out_neighbor(a.T)).all()

    def test_three_cycles_weak_coupling_structure(self):
        # with self-loops, cross-cluster mass exists but stays small
        g = three_cycles_graph()
        f = tosca.forward_backward(tosca.transition_matrix(g), tosca.uniform_density(12)).m
        blocks = [range(0, 4), range(4, 8), range(8, 12)]
        within = min(f[np.ix_(b, b)].sum() for b in blocks)
        across = f.sum() - sum(f[np.ix_(b, b)].sum() for b in blocks)
        assert within > 10 * across


class TestAppendixProperties:
    def test_prop1_suite(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 30))
            g = random_directed_graph(n, rng)
            s = tosca.transition_matrix(g)
            mu_raw = rng.uniform(0.5, 1.5, n)
            mu = tosca.Density(mu_raw / mu_raw.sum())
            f_op = tosca.forward_backward(s, mu)
            b_op = tosca.backward_forward(s, mu)
            f, b = f_op.m, b_op.m
            dmu, dnu = np.diag(f_op.mu.p), np.diag(f_op.nu.p)
            # self-adjointness w.r.t. the weighted inner products
            assert np.abs(dmu @ f - f.T @ dmu).max() < 1e-10
            assert np.abs(dnu @ b - b.T @ dnu).max() < 1e-10
            # row-stochasticity
            assert np.abs(f.sum(axis=1) - 1.0).max() < 1e-10
            assert np.abs(b.sum(axis=1) - 1.0).max() < 1e-10
            # positive semi-definiteness of D_mu F
            for _ in range(100):
                u = rng.normal(size=n)
                assert u @ dmu @ f @ u >= -1e-12
            # adjoint relation <Tu, f>_nu = <u, Kf>_mu
            t = tosca.reweighted(s, mu).m
            k = s.dense()
            for _ in range(5):
                u, fn = rng.normal(size=n), rng.normal(size=n)
                lhs = (t @ u) @ dnu @ fn
                rhs = u @ dmu @ (k @ fn)
                assert abs(lhs - rhs) < 1e-12

    def test_reversible_squares(self, rng):
        # undirected graph with mu = pi: F = B = K^2
        for _ in range(5):
            g = random_undirected_graph(int(rng.integers(5, 25)), rng)
            s = tosca.transition_matrix(g)
            pi = tosca.stationary_density(g)
            k = s.dense()
            f = tosca.forward_backward(s, pi).m
            b = tosca.backward_forward(s, pi).m
            assert np.abs(f - k @ k).max() < 1e-10
            assert np.abs(b - k @ k).max() < 1e-10


class TestCovariance:
    def test_permutation_uniform(self):
        g = permutation_graph(4)
        s = tosca.transition_matrix(g)
        _, _, cxy = tosca.covariance_matrices(s, tosca.uniform_density(4))
        assert np.array_equal(cxy.m, s.dense() / 4.0)
        assert abs(cxy.m.sum() - 1.0) < 1e-12

    def test_prop2_composition_identities(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 25))
            g = random_directed_graph(n, rng)
            s = tosca.transition_matrix(g)
            mu_raw = rng.uniform(0.5, 1.5, n)
            mu = tosca.Density(mu_raw / mu_raw.sum())
            cxx, cyy, cxy = tosca.covariance_matrices(s, mu)
            cyx = cxy.m.T
            inv_xx = np.diag(1.0 / np.diag(cxx.m))
            inv_yy = np.diag(1.0 / np.diag(cyy.m))
            k = tosca.koopman(s).m
            t = tosca.reweighted(s, mu).m
            f = tosca.forward_backward(s, mu).m
            b = tosca.backward_forward(s, mu).m
            assert np.abs(inv_xx @ cxy.m - k).max() < 1e-12
            assert np.abs(inv_yy @ cyx - t).max() < 1e-10
            assert np.abs(inv_xx @ cxy.m @ inv_yy @ cyx - f).max() < 1e-10
            assert np.abs(inv_yy @ cyx @ inv_xx @ cxy.m - b).max() < 1e-10

    def test_perron_from_covariances_uniform_mu(self, rng):
        for _ in range(5):
            n = int(rng.integers(5, 20))
            g = random_directed_graph(n, rng)
            s = tosca.transition_matrix(g)
            mu = tosca.uniform_density(n)
            cxx, _, cxy = tosca.covariance_matrices(s, mu)
            p = tosca.perron_frobenius(s).m
            inv_xx = np.diag(1.0 / np.diag(cxx.m))
            assert np.abs(inv_xx @ cxy.m.T - p).max() < 1e-12

    def test_diagonal_kinds(self):
        g = three_cycles_graph()
        s = tosca.transition_matrix(g)
        cxx, cyy, cxy = tosca.covariance_matrices(s, tosca.uniform_density(12))
        assert np.array_equal(cxx.m, np.diag(np.diag(cxx.m)))
        assert np.array_equal(cyy.m, np.diag(np.diag(cyy.m)))
        assert (cxx.kind, cyy.kind, cxy.kind) == ("Cxx", "Cyy", "Cxy")


class TestStationaryDensity:
    def test_regular_graph_uniform(self):
        g = tosca.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], directed=False)
        pi = tosca.stationary_density(g)
        assert np.allclose(pi.p, 1.0 / 3.0, atol=1e-15)

    def test_path_graph(self):
        g = tosca.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=False)
        pi = tosca.stationary_density(g)
        assert np.allclose(pi.p, [0.25, 0.5, 0.25], atol=0)

    def test_directed_rejected(self):
        g = tosca.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        with pytest.raises(NotUndirectedError):
            tosca.stationary_density(g)

    def test_zero_degree_rejected(self):
        g = tosca.from_edge_list(3, [(0, 1, 1.0)], directed=False)
        with pytest.raises(ZeroDegreeError):
            tosca.stationary_density(g)

    def test_detailed_balance(self, rng):
        g = random_undirected_graph(15, rng)
        pi = tosca.stationary_density(g)
        s = tosca.transition_matrix(g).dense()
        balance = pi.p[:, None] * s - (pi.p[:, None] * s).T
        assert np.abs(balance).max() < 1e-12

    def test_invariance_under_walk(self, rng):
        g = random_undirected_graph(10, rng)
        pi = tosca.stationary_density(g)
        s = tosca.transition_matrix(g)
        assert np.abs(s.s.T @ pi.p - pi.p).max() < 1e-12


def all_operators(s, mu):
    """Every operator kind on (S, mu), keyed by kind."""
    ops = {
        "K": tosca.koopman(s, mu),
        "P": tosca.perron_frobenius(s, mu),
        "T": tosca.reweighted(s, mu),
        "F": tosca.forward_backward(s, mu),
        "B": tosca.backward_forward(s, mu),
    }
    ops.update(zip(("Cxx", "Cyy", "Cxy"), tosca.covariance_matrices(s, mu)))
    return ops


def dense_references(s, mu, nu):
    """Every kind's dense matrix, built from plain numpy."""
    a = s.s.toarray()
    t = np.diag(1.0 / nu.p) @ a.T @ np.diag(mu.p)
    return {
        "K": a, "P": a.T, "T": t, "F": a @ t, "B": t @ a,
        "Cxx": np.diag(mu.p), "Cyy": np.diag(nu.p), "Cxy": mu.p[:, None] * a,
    }


class TestSparseProductReference:
    """Operators are sparse products; ``.m`` and projections match dense numpy."""

    @pytest.fixture(params=["three_cycles", "random"])
    def setup(self, request, rng):
        if request.param == "three_cycles":
            g = three_cycles_graph()
            mu = tosca.uniform_density(g.n)
        else:
            g = random_directed_graph(15, rng)
            masses = rng.uniform(0.1, 1.0, g.n)
            mu = tosca.Density(masses / masses.sum())
        s = tosca.transition_matrix(g)
        return s, mu, all_operators(s, mu)

    def test_dense_matrix_matches_numpy(self, setup):
        s, mu, ops = setup
        refs = dense_references(s, mu, ops["F"].nu)
        for kind, op in ops.items():
            assert "m" not in op.__dict__  # formed only when read
            if kind in ("T", "F", "B"):
                assert np.abs(op.m - refs[kind]).max() <= 1e-14 * np.abs(refs[kind]).max(), kind
            else:
                assert np.array_equal(op.m, refs[kind]), kind
                assert not np.signbit(op.m).any(), kind

    def test_projection_grams_match_dense_product(self, setup, rng):
        s, mu, ops = setup
        refs = dense_references(s, mu, ops["F"].nu)
        phi = rng.standard_normal((4, s.n))
        basis = tosca.Basis(phi_v=phi)
        for kind in ("K", "P", "T", "F", "B"):
            op = ops[kind]
            d = (op.nu if kind in ("T", "B") else op.mu).p
            red = tosca.project(op, basis)
            g0, g1 = (phi * d) @ phi.T, (phi * d) @ refs[kind] @ phi.T
            assert np.abs(red.g0 - g0).max() <= 1e-12 * np.abs(g0).max(), kind
            assert np.abs(red.g1 - g1).max() <= 1e-12 * np.abs(g1).max(), kind
            assert "m" not in op.__dict__


@st.composite
def walk_setups(draw, directed=True):
    """A graph on n <= 12 vertices with unit self-loops, its S and a strictly positive mu."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(vertex, vertex, st.floats(0.1, 10.0)), max_size=3 * n))
    g = tosca.add_self_loops(tosca.from_edge_list(n, triples, directed=directed), 1.0)
    masses = draw(arrays(np.float64, n, elements=st.floats(0.01, 1.0)))
    return g, tosca.transition_matrix(g), tosca.Density(masses / masses.sum())


class TestNorthStarProperties:
    @settings(max_examples=60, deadline=None)
    @given(setup=walk_setups(), data=st.data())
    def test_forward_backward_spectrum_in_unit_interval(self, setup, data):
        # fb_spectrum clips kappa to [0, 1], so the bounds are checked on F itself
        _, s, mu = setup
        vals = np.linalg.eigvals(tosca.forward_backward(s, mu).m)
        assert np.abs(vals.imag).max() <= 1e-10
        vals = np.sort(vals.real)[::-1]
        assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
        k = data.draw(st.integers(1, s.n))
        spec = tosca.fb_spectrum(s, mu, k)
        assert np.abs(spec.lam - vals[:k]).max() <= 1e-10
        gram = spec.phi.T @ (mu.p[:, None] * spec.phi)
        assert np.abs(gram - np.eye(k)).max() <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(setup=walk_setups(), data=st.data())
    def test_forward_backward_self_adjoint_in_mu(self, setup, data):
        _, s, mu = setup
        f = tosca.forward_backward(s, mu).linear
        # single-precision entries keep the squared norms clear of underflow
        entries = st.floats(-1.0, 1.0, width=32)
        x, y = (data.draw(arrays(np.float64, s.n, elements=entries)) for _ in "xy")
        lhs, rhs = mu.p @ (x * (f @ y)), mu.p @ ((f @ x) * y)
        scale = np.sqrt(mu.p @ x**2) * np.sqrt(mu.p @ y**2)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(setup=walk_setups(directed=False))
    def test_undirected_stationary_forward_backward_is_koopman_squared(self, setup):
        g, s, _ = setup
        k = tosca.koopman(s).m
        f = tosca.forward_backward(s, tosca.stationary_density(g)).m
        assert np.abs(f - k @ k).max() <= 1e-12
