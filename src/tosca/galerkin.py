"""Galerkin projection of operators onto basis subspaces.

A basis of r functions on the vertices, stored as the rows of an
r x n matrix, turns an operator matrix L into the reduced r x r matrix
L_r = G0^-1 G1 with G0 = Phi D Phi^T and G1 = Phi D L Phi^T, where D is
the diagonal of the operator's reference density and L is applied to the
basis as a sparse product, at O(nnz r). Eigenpairs of L_r lift back to
vertex functions through the basis.

An ``indicator_basis`` keeps the vertex -> set map it builds its rows
from as ``classes``, by which ``datadriven`` counts the walk Grams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Rows are basis functions evaluated on all vertices (r x n).

    An ``indicator_basis`` keeps its vertex -> set map, r for a vertex in
    no set, as ``classes``; both arrays are read-only. Others have None.
    """

    phi_v: np.ndarray
    classes: np.ndarray | None = field(default=None, init=False)

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


def _set_of(sets: Sequence[Iterable[int]], n: int) -> dict[int, int]:
    """Each vertex's set, checked vertex by vertex in set order (see indicator_basis)."""
    owner: dict[int, int] = {}
    for row, vertices in enumerate(sets):
        vertices = list(vertices)
        if not vertices:
            raise EmptySetError(f"set {row} is empty")
        for v in vertices:
            try:
                if isinstance(v, str):  # "2" and long integers exactly, "2.0" and "1e300" as floats
                    v = int(v) if v.strip().lstrip("+-").isdecimal() else float(v)
                integral = isinstance(v, (int, np.integer)) or float(v).is_integer()
            except OverflowError:  # Fraction(10**400): a number, and beyond any n
                raise IndexOutOfRangeError(f"vertex {v} outside [0, {n})") from None
            except (TypeError, ValueError):  # "x", None, 1j, [1, 2]
                integral = False
            if not integral:
                raise _not_an_integer(v)
            vertex = int(v)
            if not 0 <= vertex < n:
                # a float is named as one beyond 2^53 (1e+300), as in _check_vertices
                if not isinstance(v, (int, np.integer)) and abs(vertex) >= 2**53:
                    vertex = float(v)
                raise IndexOutOfRangeError(f"vertex {vertex} outside [0, {n})")
            if vertex in owner:
                raise OverlappingSetsError(f"vertex {vertex} appears in two sets")
            owner[vertex] = row
    return owner


def indicator_basis(n: int, sets: Sequence[Iterable[int]]) -> Basis:
    """0/1 indicator functions of disjoint vertex sets (need not cover).

    Vertices are integer values: 2.0 and "2.0" are vertex 2, and 1.5,
    nan, inf, "x", None or [1, 2] raise ToscaError. The first offending
    vertex in set order raises.
    Sets that numpy joins into one numeric array of distinct vertices in
    [0, n), none of them empty, map to their sets in one step; any other
    input goes vertex by vertex, which also names the first fault. The
    basis keeps the map as ``classes``.
    """
    r = len(sets)
    classes = np.full(n, r)
    try:
        parts = [np.asarray(vertices) for vertices in sets]
        values = np.concatenate(parts)
    except (TypeError, ValueError):  # no sets, or sets numpy cannot join
        values = np.empty((0, 0))
    # checked before the int64 cast, which would warn on 1e300
    if (values.ndim == 1 and values.dtype.kind in "biuf" and all(map(len, parts))
            and not (_non_integer(values) | (values < 0) | (values >= n)).any()
            and np.bincount(vertex := values.astype(np.int64)).max() == 1):
        classes[vertex] = np.repeat(np.arange(r), [len(p) for p in parts])
    else:
        owner = _set_of(sets, n)
        classes[list(owner)] = list(owner.values())
    phi_v = np.zeros((r, n))
    covered = np.flatnonzero(classes < r)
    phi_v[classes[covered], covered] = 1.0
    phi_v.flags.writeable = classes.flags.writeable = False
    basis = Basis(phi_v=phi_v)
    object.__setattr__(basis, "classes", classes)  # frozen, and not an argument
    return basis


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


def _repeated(values: np.ndarray) -> np.ndarray:
    """Where a value repeats one earlier in ``values``."""
    repeated = np.ones(len(values), dtype=bool)
    repeated[np.unique(values, return_index=True)[1]] = False
    return repeated


def read_partition(path, n: int | None = None) -> list[list[int]]:
    """Partition CSV: 'vertex_index,set_index' per line, '#' comments.

    A row naming a negative vertex, with ``n`` given a vertex >= n, or a
    vertex named on an earlier row raises ParseError with its line.
    """
    header = "vertex_index,set_index"
    rows = _read_rows(path, (np.int64, np.int64), sep=",", header=header, shape=f"expected '{header}'")
    rows.check()
    if not len(rows.columns[0]):
        raise ParseError("no partition rows", max(1, rows.line_count))
    vertex, group = rows.columns
    rows.check(
        _vertex_fault(rows, (vertex,), n),
        rows.fault_at(_repeated(vertex), lambda k: f"vertex {vertex[k]} appears in two sets"),
    )
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
    if not len(rows.columns[0]):
        raise ParseError("no label rows", max(1, rows.line_count))
    vertex, label = rows.columns
    n = len(vertex)
    outside = (vertex < 0) | (vertex >= n)
    repeated = _repeated(vertex)
    rows.check(rows.fault_at(outside | repeated, lambda k: (
        f"vertex {vertex[k]} outside [0, {n}): {n} rows must name the vertices "
        f"0..{n - 1}, each once" if outside[k] else f"vertex {vertex[k]} appears twice"
    )))
    labels = np.empty(n, dtype=np.int64)
    labels[vertex] = label
    return labels


def write_partition(sets: Sequence[Iterable[int]], path) -> None:
    """Partition CSV, one 'vertex_index,set_index' row per vertex in set order.

    Sets that ``indicator_basis`` rejects raise its error before the file
    is opened; a vertex is out of range here when negative or beyond int64.
    """
    rows = np.array(list(_set_of(sets, 2**63).items()), dtype=np.int64)
    _write_rows(path, rows.reshape(-1, 2).T, head=["vertex_index,set_index"])
