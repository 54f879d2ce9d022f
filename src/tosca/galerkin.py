"""Galerkin projection of operators onto basis subspaces.

A basis of r functions on the vertices, stored as the rows of an
r x n matrix, turns an operator matrix L into the reduced r x r matrix
L_r = G0^-1 G1 with G0 = Phi D Phi^T and G1 = Phi D L Phi^T, where D is
the diagonal of the operator's reference density and L is applied to the
basis as a sparse product, at O(nnz r). Eigenpairs of L_r lift back to
vertex functions through the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptySetError,
    IndexOutOfRangeError,
    OverlappingSetsError,
    ParseError,
    SingularGramError,
    ToscaError,
    check_k,
)
from .graph import _non_integer, _not_an_integer, _read_rows, _vertex_fault, _write_rows
from .operators import OperatorMatrix

__all__ = [
    "Basis",
    "ReducedOperator",
    "indicator_basis",
    "project",
    "reduced_eigenfunctions",
    "read_partition",
    "read_labels",
    "write_partition",
    "GRAM_CONDITION_LIMIT",
]

GRAM_CONDITION_LIMIT = 1e12

# Reference measure per operator kind: F and K act on mu-weighted
# functions, T and B on nu-weighted ones.
_MEASURE = {"K": "mu", "P": "mu", "F": "mu", "T": "nu", "B": "nu"}

# Kinds whose Gram pair (G0, G1) is symmetric definite, allowing the
# stable generalized symmetric eigensolver.
_SELF_ADJOINT_KINDS = frozenset({"F", "B"})


@dataclass(frozen=True)
class Basis:
    """Rows are basis functions evaluated on all vertices (r x n)."""

    phi_v: np.ndarray

    @property
    def r(self) -> int:
        return self.phi_v.shape[0]

    @property
    def n(self) -> int:
        return self.phi_v.shape[1]


@dataclass(frozen=True)
class ReducedOperator:
    """Reduced operator L_r = G0^-1 G1 with its Gram matrices and basis."""

    l_r: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    basis: Basis
    kind: str


def _classes(basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """A vertex -> class map ``classes`` and the class columns ``psi`` of a
    basis, with ``phi_v == psi[:, classes]``.

    In a basis of real 0s and 1s where each vertex has at most one 1
    (every ``indicator_basis``), each vertex maps to its set, and the
    vertices in no set to one more class, r, whose column is 0: psi is
    [I_r | 0], r x (r + 1). Any other basis maps each vertex to itself,
    psi = phi_v.
    """
    phi = basis.phi_v
    r, n = phi.shape
    if phi.dtype.kind in "biuf":
        nonzero = phi != 0
        # More than n nonzeros put two in some column: a dense basis is
        # turned away before index arrays of its r n nonzeros are made.
        if np.count_nonzero(nonzero) <= n:
            # from flat positions: np.nonzero searches 2-D arrays far slower
            sets, vertices = np.divmod(np.flatnonzero(nonzero), n)
            classes = np.full(n, r)
            classes[vertices] = sets  # a vertex in two sets keeps one of them
            if (phi[sets, vertices] == 1).all() and np.array_equal(classes[vertices], sets):
                return classes, np.eye(r, r + 1)
    return np.arange(n), phi


def _numbers(vertices: Iterable) -> tuple[Sequence, np.ndarray]:
    """A set's vertices as given, and as a 1-D numeric array the checks read.

    Numbers numpy will not hold in one such array go one by one: integers
    as they are, or -1 when beyond int64 (outside every vertex range),
    anything else as ``float`` reads it.
    """
    if not (isinstance(vertices, np.ndarray) and vertices.ndim == 1):
        vertices = list(vertices)
    try:
        values = np.asarray(vertices)
    except ValueError:  # sequences of unequal lengths
        values = None
    if values is None or values.ndim != 1 or values.dtype.kind not in "biuf":
        values = np.array([
            (v if -(2**63) <= v < 2**63 else -1) if isinstance(v, (int, np.integer)) else float(v)
            for v in vertices
        ])
    return vertices, values


def indicator_basis(n: int, sets: Sequence[Iterable[int]]) -> Basis:
    """0/1 indicator functions of disjoint vertex sets (need not cover).

    Vertices are integer values: 2.0 is vertex 2, and 1.5, nan or inf
    raise ToscaError. The first offending vertex in set order raises, an
    empty set in its place among them. The checks run on all vertices at
    once, and phi_v is set from the (set, vertex) pairs in one step.
    """
    phi_v = np.zeros((len(sets), n))
    members = [_numbers(vertices) for vertices in sets]
    sizes = [len(values) for _, values in members]
    starts = np.cumsum([0, *sizes])
    values = np.concatenate([values for _, values in members] or [np.empty(0)])
    not_integer = _non_integer(values)
    outside = ~not_integer & ((values < 0) | (values >= n))
    bad = not_integer | outside
    inside = np.flatnonzero(~bad)
    vertex = values[inside].astype(np.int64)
    repeated = np.ones(len(vertex), dtype=bool)
    repeated[np.unique(vertex, return_index=True)[1]] = False
    bad[inside[repeated]] = True
    first = int(np.argmax(bad)) if bad.any() else len(values)
    empty = [row for row, size in enumerate(sizes) if size == 0 and starts[row] <= first]
    if empty:
        raise EmptySetError(f"set {empty[0]} is empty")
    if first < len(values):
        row = int(np.searchsorted(starts, first, side="right")) - 1
        v = members[row][0][first - starts[row]]
        if not_integer[first]:
            raise _not_an_integer(v)
        if outside[first]:
            raise IndexOutOfRangeError(f"vertex {int(v)} outside [0, {n})")
        raise OverlappingSetsError(f"vertex {int(v)} appears in two sets")
    phi_v[np.repeat(np.arange(len(sets)), sizes), vertex] = 1.0
    return Basis(phi_v=phi_v)


def project(op: OperatorMatrix, basis: Basis) -> ReducedOperator:
    """Project an operator matrix onto the span of the basis.

    Raises SingularGram when the basis is rank-deficient under the
    reference measure (condition number >= 1e12); no pseudo-inverse
    fallback is attempted.
    """
    if op.kind not in _MEASURE:
        raise ToscaError(f"cannot project operator of kind {op.kind!r}")
    density = op.mu if _MEASURE[op.kind] == "mu" else op.nu
    if density is None:
        raise ToscaError(f"operator of kind {op.kind!r} carries no densities")
    if basis.n != op.linear.shape[0]:
        raise ToscaError(
            f"basis is on {basis.n} vertices, operator on {op.linear.shape[0]}"
        )
    weighted = basis.phi_v * density.p[None, :]
    g0 = weighted @ basis.phi_v.T
    g1 = weighted @ (op.linear @ basis.phi_v.T)
    eigvals = np.linalg.eigvalsh((g0 + g0.T) / 2.0)
    if eigvals[0] <= 0.0 or eigvals[-1] / eigvals[0] >= GRAM_CONDITION_LIMIT:
        raise SingularGramError(
            "basis is rank-deficient under the reference measure "
            f"(Gram eigenvalue range [{eigvals[0]:.3e}, {eigvals[-1]:.3e}])"
        )
    import scipy.linalg as sla

    l_r = sla.cho_solve(sla.cho_factor((g0 + g0.T) / 2.0), g1)
    return ReducedOperator(l_r=l_r, g0=g0, g1=g1, basis=basis, kind=op.kind)


def reduced_eigenfunctions(
    red: ReducedOperator, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvalues of L_r and the lifted vertex functions.

    For the self-adjoint kinds the generalized symmetric problem
    G1 xi = lambda G0 xi is solved; other kinds go through the general
    eigensolver and are returned sorted by real part.
    """
    check_k(k, red.basis.r)
    if red.kind in _SELF_ADJOINT_KINDS:
        import scipy.linalg as sla

        vals, xi = sla.eigh((red.g1 + red.g1.T) / 2.0, (red.g0 + red.g0.T) / 2.0)
        vals, xi = vals[::-1], xi[:, ::-1]
    else:
        vals, xi = np.linalg.eig(red.l_r)
        order = np.argsort(vals.real)[::-1]
        vals, xi = vals[order], xi[:, order]
        if np.abs(vals.imag).max(initial=0.0) < 1e-10:
            vals, xi = vals.real, xi.real
    funcs = red.basis.phi_v.T @ xi[:, :k]
    return vals[:k], funcs


def read_partition(path, n: int | None = None) -> list[list[int]]:
    """Partition CSV: 'vertex_index,set_index' per line, '#' comments.

    A row naming a negative vertex, or with ``n`` given a vertex >= n,
    raises ParseError with its line.
    """
    header = "vertex_index,set_index"
    rows = _read_rows(path, (np.int64, np.int64), sep=",", header=header, shape=f"expected '{header}'")
    rows.check()
    if not len(rows.lines):
        raise ParseError("no partition rows", max(1, len(rows.text)))
    vertex, group = rows.columns
    rows.check(_vertex_fault(rows, (vertex,), n))
    order = np.argsort(group, kind="stable")
    starts = np.unique(group[order], return_index=True)[1]
    return [part.tolist() for part in np.split(vertex[order], starts[1:])]


def read_labels(path) -> np.ndarray:
    """Label CSV: 'vertex_index,label' per line, '#' comments.

    The n rows must name the vertices 0..n-1, each once, in any order;
    entry i of the result is the label of vertex i.
    """
    header = "vertex_index,label"
    rows = _read_rows(path, (np.int64, np.int64), sep=",", header=header, shape=f"expected '{header}'")
    rows.check()
    if not len(rows.lines):
        raise ParseError("no label rows", max(1, len(rows.text)))
    vertex, label = rows.columns
    n = len(vertex)
    outside = (vertex < 0) | (vertex >= n)
    repeated = np.ones(n, dtype=bool)
    repeated[np.unique(vertex, return_index=True)[1]] = False
    rows.check(rows.fault_at(outside | repeated, lambda k: (
        f"vertex {vertex[k]} outside [0, {n}): {n} rows must name the vertices "
        f"0..{n - 1}, each once" if outside[k] else f"vertex {vertex[k]} appears twice"
    )))
    labels = np.empty(n, dtype=np.int64)
    labels[vertex] = label
    return labels


def write_partition(sets: Sequence[Iterable[int]], path) -> None:
    rows = [(int(v), group) for group, vertices in enumerate(sets) for v in vertices]
    columns = np.array(rows, dtype=np.int64).reshape(-1, 2).T
    _write_rows(path, columns, head=["vertex_index,set_index"])
