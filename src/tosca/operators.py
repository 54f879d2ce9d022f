"""Densities and matrix representations of the transfer operators.

The walk on a graph with transition matrix S induces, for a start
density mu and its image nu = S^T mu, the operator matrices

    K = S                      (observables, one step ahead)
    P = S^T                    (densities, push-forward)
    T = D_nu^-1 S^T D_mu       (density-reweighted adjoint of K)
    F = K T                    (one step forward, one step backward)
    B = T K                    (one step backward, one step forward)

together with the covariance matrices C_xx = D_mu, C_yy = D_nu and
C_xy = D_mu S. Each keeps its product of S, S^T and diagonals as
``factors``, applied factor by factor at O(nnz) per vector; ``.m`` forms
the dense matrix, the small-n reference, on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Literal

import numpy as np

from .errors import (
    EmptyMatrixError,
    LengthMismatchError,
    NonPositiveDensityError,
    NotUndirectedError,
    ToscaError,
    ZeroDegreeError,
)
from .graph import Graph, TransitionMatrix, degree_info

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "Density",
    "OperatorMatrix",
    "OperatorKind",
    "uniform_density",
    "image_density",
    "koopman",
    "perron_frobenius",
    "reweighted",
    "forward_backward",
    "backward_forward",
    "covariance_matrices",
    "stationary_density",
]

OperatorKind = Literal["K", "P", "T", "F", "B", "Cxx", "Cyy", "Cxy"]

_STRICT_POSITIVE_FLOOR = 1e-300  # any true zero fails, denormal noise too


@dataclass(frozen=True)
class Density:
    """Probability vector on the vertex set."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", p)
        if p.ndim != 1:
            raise ToscaError(f"density must be a vector, got shape {p.shape}")
        finite = np.isfinite(p)
        if not finite.all():
            raise ToscaError(f"density has non-finite mass at vertex {int(np.argmax(~finite))}")
        if (p < 0.0).any():
            raise ToscaError(
                f"density has negative mass at vertex {int(np.argmax(p < 0.0))}"
            )
        if abs(p.sum() - 1.0) > 1e-12:
            raise ToscaError(f"density sums to {p.sum()!r}, expected 1")

    @property
    def n(self) -> int:
        return len(self.p)

    def strictly_positive(self) -> bool:
        return bool((self.p > _STRICT_POSITIVE_FLOOR).all())


def _check_density_length(mu: Density, n: int) -> None:
    """Raise LengthMismatchError unless mu has one mass per vertex of an n-vertex graph."""
    if mu.n != n:
        raise LengthMismatchError(f"density has {mu.n} entries for a graph of {n} vertices")


@dataclass(frozen=True)
class OperatorMatrix:
    """The product of ``factors`` with its kind and densities; ``linear`` and dense ``m`` on first read."""

    kind: OperatorKind
    factors: tuple[sp.spmatrix | np.ndarray, ...]
    mu: Density | None = None
    nu: Density | None = None

    @cached_property
    def linear(self) -> spla.LinearOperator:
        return _product(*self.factors)

    @cached_property
    def m(self) -> np.ndarray:
        return self.linear @ np.eye(self.linear.shape[0])


def _product(*factors: sp.spmatrix | spla.LinearOperator | np.ndarray) -> spla.LinearOperator:
    """Product of n x n ``factors``, a 1-d array as its diagonal, applied right to left."""
    import scipy.sparse.linalg as spla

    n = factors[0].shape[0]

    def apply(x: np.ndarray) -> np.ndarray:
        x = x.reshape(n, -1)
        for f in reversed(factors):
            x = f[:, None] * x if isinstance(f, np.ndarray) else f @ x
        return x

    return spla.LinearOperator((n, n), matvec=apply, matmat=apply, dtype=np.float64)


def uniform_density(n: int) -> Density:
    if n < 1:
        raise EmptyMatrixError(f"no uniform density on {n} vertices")
    return Density(np.full(n, 1.0 / n))


def image_density(s: TransitionMatrix, mu: Density) -> Density:
    """One-step image nu with nu_i = sum_j s_ji mu_j."""
    _check_density_length(mu, s.n)
    return Density(s.s.T @ mu.p)


def _positive_image(s: TransitionMatrix, mu: Density) -> Density:
    """The image nu of mu, after checking mu and then nu strictly positive."""
    if not mu.strictly_positive():
        raise NonPositiveDensityError("mu", int(np.argmin(mu.p)))
    nu = image_density(s, mu)
    if not nu.strictly_positive():
        raise NonPositiveDensityError("nu", int(np.argmin(nu.p)))
    return nu


def koopman(s: TransitionMatrix, mu: Density | None = None) -> OperatorMatrix:
    """K = S; attach a density when a weighted projection is intended."""
    nu = image_density(s, mu) if mu is not None else None
    return OperatorMatrix(kind="K", factors=(s.s,), mu=mu, nu=nu)


def perron_frobenius(s: TransitionMatrix, mu: Density | None = None) -> OperatorMatrix:
    nu = image_density(s, mu) if mu is not None else None
    return OperatorMatrix(kind="P", factors=(s.s.T,), mu=mu, nu=nu)


def reweighted(s: TransitionMatrix, mu: Density) -> OperatorMatrix:
    """T = D_nu^-1 S^T D_mu; row-stochastic for strictly positive mu, nu."""
    nu = _positive_image(s, mu)
    return OperatorMatrix(kind="T", factors=(1.0 / nu.p, s.s.T, mu.p), mu=mu, nu=nu)


def forward_backward(s: TransitionMatrix, mu: Density) -> OperatorMatrix:
    """F = K T = S D_nu^-1 S^T D_mu."""
    nu = _positive_image(s, mu)
    return OperatorMatrix(kind="F", factors=(s.s, 1.0 / nu.p, s.s.T, mu.p), mu=mu, nu=nu)


def backward_forward(s: TransitionMatrix, mu: Density) -> OperatorMatrix:
    """B = T K = D_nu^-1 S^T D_mu S."""
    nu = _positive_image(s, mu)
    return OperatorMatrix(kind="B", factors=(1.0 / nu.p, s.s.T, mu.p, s.s), mu=mu, nu=nu)


def covariance_matrices(
    s: TransitionMatrix, mu: Density
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """C_xx = diag(mu), C_yy = diag(nu), C_xy = D_mu S."""
    nu = image_density(s, mu)
    cxx = OperatorMatrix(kind="Cxx", factors=(mu.p,), mu=mu, nu=nu)
    cyy = OperatorMatrix(kind="Cyy", factors=(nu.p,), mu=mu, nu=nu)
    cxy = OperatorMatrix(kind="Cxy", factors=(mu.p, s.s), mu=mu, nu=nu)
    return cxx, cyy, cxy


def stationary_density(g: Graph) -> Density:
    """Degree-proportional density satisfying detailed balance.

    Only defined for undirected graphs (symmetric adjacency) with
    positive degrees.
    """
    a = g.adjacency
    if (a != a.T).nnz != 0:
        raise NotUndirectedError("adjacency matrix is not symmetric")
    deg = degree_info(g).out_degrees
    if (deg == 0.0).any():
        raise ZeroDegreeError(
            f"vertex {int(np.argmax(deg == 0.0))} has zero degree"
        )
    return Density(deg / deg.sum())
