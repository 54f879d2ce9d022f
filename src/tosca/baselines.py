"""Symmetrization-based clusterers for directed graphs.

Two comparison methods: degree-discounted bibliometric symmetrization
(common in-links and out-links weighted by degrees) and clustering of
the Hermitian matrix i(A - A^T) of the normalized adjacency matrix.
Both get their eigenvectors from spectral._top_k and form no n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from .clustering import Clustering, KMeansConfig, kmeans
from .errors import DegenerateSpectrumError, ZeroDegreeError, check_k
from .graph import Graph, degree_info
from .operators import _product
from .spectral import _fix_signs, _scaled, _top_k

if TYPE_CHECKING:
    import scipy.sparse.linalg as spla

__all__ = [
    "SymmetrizedMatrix",
    "symmetrize",
    "ddbs_cluster",
    "herm_cluster",
]

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class SymmetrizedMatrix:
    m: np.ndarray
    scheme: Literal["ddbs", "naive_sum"]


def _pseudo_inv_sqrt(values: np.ndarray) -> np.ndarray:
    """1/sqrt per entry with the pseudo-inverse convention 1/0 -> 0."""
    out = np.zeros_like(values)
    positive = values > 0.0
    out[positive] = 1.0 / np.sqrt(values[positive])
    return out


def _ddbs_operator(g: Graph) -> spla.LinearOperator:
    """Do^-1/2 A Di^-1/2 A^T Do^-1/2 + Di^-1/2 A^T Do^-1/2 A Di^-1/2, four sparse products."""
    a = g.adjacency
    deg = degree_info(g)
    do = _pseudo_inv_sqrt(deg.out_degrees)
    di = _pseudo_inv_sqrt(deg.in_degrees)
    return _product(do, a, di, a.T, do) + _product(di, a.T, do, a, di)


def symmetrize(g: Graph, scheme: Literal["ddbs", "naive_sum"] = "ddbs") -> SymmetrizedMatrix:
    """Symmetric nonnegative similarity matrix for a directed graph (dense)."""
    if scheme == "naive_sum":
        a = g.adjacency
        return SymmetrizedMatrix(m=(a + a.T) @ np.eye(g.n), scheme=scheme)
    m = _ddbs_operator(g) @ np.eye(g.n)
    return SymmetrizedMatrix(m=(m + m.T) / 2.0, scheme="ddbs")


def ddbs_cluster(g: Graph, k: int, cfg: KMeansConfig | None = None) -> Clustering:
    """Spectral clustering of the degree-discounted symmetrization M.

    k-means runs on D^-1/2 x for the top-k eigenvectors x of
    D^-1/2 M D^-1/2, where D = diag(M 1).
    """
    check_k(k, g.n)
    m = _ddbs_operator(g)
    deg = m @ np.ones(g.n)
    if not (deg > 0.0).any():
        raise ZeroDegreeError("similarity matrix has zero degrees everywhere")
    dinv = _pseudo_inv_sqrt(deg)
    _, x, _ = _top_k(_product(dinv, m, dinv), k, symmetric=True)
    return kmeans(x * dinv[:, None], k, cfg)


def herm_cluster(g: Graph, k: int, cfg: KMeansConfig | None = None) -> Clustering:
    """Cluster by the spectrum of the Hermitian matrix i(A_nn - A_nn^T).

    H = iC with C = A_nn - A_nn^T real skew-symmetric has eigenvalues
    +-sigma for the singular values sigma of C. The eigenvectors x_j of
    the leading ceil(k/2) positive eigenvalues, each with its phase
    fixed, give the 2 ceil(k/2) feature columns Re x_j, Im x_j; they
    span the planes of the singular-vector pairs [u_j, v_j] of C.
    """
    check_k(k, g.n)
    deg = degree_info(g)
    do = _pseudo_inv_sqrt(deg.out_degrees)
    di = _pseudo_inv_sqrt(deg.in_degrees)
    a_nn = _scaled(do, g.adjacency, di)
    c = a_nn - a_nn.T
    degenerate = DegenerateSpectrumError(
        "skew-symmetric part vanishes; the graph carries no directional information"
    )
    if not c.count_nonzero():  # every start vector is "zero" to ARPACK at H = 0
        raise degenerate
    vals, x, _ = _top_k(1j * c, (k + 1) // 2, symmetric=True)
    if vals[0] <= _DEGENERATE_TOL:
        raise degenerate
    _fix_signs(x)
    return kmeans(np.stack([x.real, x.imag], axis=2).reshape(g.n, -1), k, cfg)
