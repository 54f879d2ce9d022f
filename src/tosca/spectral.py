"""Paired spectra of the forward-backward dynamics via a symmetrized SVD.

Instead of eigendecomposing the nonsymmetric F, the top singular
triplets (sigma, u, v) of

    M = D_mu^{1/2} S D_nu^{-1/2}

are computed; M M^T is symmetric positive semi-definite and similar to
F, so the eigenpairs of F and B follow as

    kappa = sigma,  lambda = sigma^2,
    phi = D_mu^{-1/2} u,  psi = D_nu^{-1/2} v.

This keeps the numerics real and stable for directed graphs. Both
spectra come from restarted Lanczos (ARPACK) with a residual check on
every returned vector; a dense solve answers only where Lanczos cannot,
and only up to _DENSE_MAX_N vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import IndexOutOfRangeError, NotConvergedError, TooFewValuesError, check_k
from .graph import Graph, TransitionMatrix, lazy_chain, transition_matrix
from .operators import Density, _positive_image, stationary_density

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "SpectrumResult",
    "KoopmanSpectrum",
    "fb_spectrum",
    "koopman_spectrum",
    "spectral_gap",
    "embed_coordinates",
]

_ITER_TOL = 1e-10
_ITER_MAXITER_PER_K = 300
# Largest accepted per-column residual of a Lanczos answer; above it the
# dense solve is used instead.
_RESIDUAL_TOL = 1e-8
# Largest n the dense solve is tried at. m @ I and its SVD hold up to four
# n x n float64 arrays, 0.8 GB each at this n (80 GB each at n = 10^5).
# The bound keeps the dense answer for graphs of the paper's size, such as
# add32 (n = 4960) and the 8000-vertex DSBM.
_DENSE_MAX_N = 10_000


@dataclass(frozen=True)
class SpectrumResult:
    """Top-k paired spectrum of the forward-backward dynamics.

    kappa are the singular values (correlations), lambda = kappa^2 the
    eigenvalues of F and B, phi / psi the corresponding eigenvector
    columns, D_mu- resp. D_nu-orthonormal.
    """

    kappa: np.ndarray
    lam: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    @property
    def k(self) -> int:
        return len(self.kappa)


@dataclass(frozen=True)
class KoopmanSpectrum:
    """Top-k eigenpairs of K = S for an undirected graph.

    Eigenvalues are sorted descending by value (not magnitude) and may
    be negative; vectors are D_pi-orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def k(self) -> int:
        return len(self.values)


def _fix_signs(phi: np.ndarray, *others: np.ndarray) -> None:
    """Make the first largest-magnitude entry of each phi column real and positive.

    Columns, and companion columns alike, are multiplied by its unit phase
    (a sign flip if real); it is then set to its exact modulus. In place.
    """
    for j in range(phi.shape[1]):
        pivot = int(np.argmax(np.abs(phi[:, j])))
        phase = np.conj(phi[pivot, j]) / np.abs(phi[pivot, j])
        for column in (phi, *others):
            column[:, j] *= phase
        phi[pivot, j] = np.abs(phi[pivot, j])


def _residual(m, v: np.ndarray, u: np.ndarray, vals: np.ndarray) -> float:
    """max over columns j of ||m v_j - vals_j u_j||, the difference formed in one buffer."""
    r = m @ v
    r -= u * vals
    return np.linalg.norm(r, axis=0).max()


def _top_k(
    m: sp.spmatrix | spla.LinearOperator, k: int, symmetric: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k (values, left, right) of the square matrix m, descending.

    The top singular triplets (sigma, u, v), or for symmetric (real
    symmetric or complex Hermitian) m the eigenpairs with the largest
    values (lambda, x, x). Restarted Lanczos (ARPACK, from a fixed start
    vector) answers unless it cannot: for k >= n - 1, which ARPACK does
    not accept, when ARPACK fails, or when a column (value w, left u,
    right v) misses ||m v - w u|| <= tol or, for singular triplets,
    ||m^T u - w v|| <= tol, tol = _RESIDUAL_TOL. The dense solve of
    m @ I answers those cases, so m may also be a LinearOperator, up to
    n = _DENSE_MAX_N; above it they raise NotConvergedError naming the
    ARPACK failure or the largest residual.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    n = m.shape[0]
    failure = f"k = {k} >= n - 1 is outside ARPACK's range"
    if k < n - 1:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        # ARPACK draws a fresh vector on every restart; a fixed generator
        # makes those draws, and so the answer, repeat bit for bit.
        rng = np.random.default_rng(0)
        try:
            if symmetric:
                vals, u = spla.eigsh(m, k=k, which="LA", tol=_ITER_TOL, v0=v0, rng=rng)
                v = u
            else:
                # the ARPACK steps of svds, which gives its eigsh no generator:
                # eigenvectors x of m^H m, then the SVD of m x
                op = spla.aslinearoperator(m)
                _, x = spla.eigsh(
                    op.H @ op, k, tol=_ITER_TOL**2, maxiter=_ITER_MAXITER_PER_K * k, v0=v0, rng=rng
                )
                x = np.linalg.qr(x)[0]
                u, vals, vh = sla.svd(op @ x, full_matrices=False, overwrite_a=True)
                vals, u, v = vals[::-1], u[:, ::-1], (vh[::-1] @ x.T.conj()).T
        except spla.ArpackError as exc:
            failure = f"ARPACK failed ({exc})"
        else:
            order = np.argsort(vals)[::-1]
            vals, u, v = vals[order], u[:, order], v[:, order]
            residual = _residual(m, v, u, vals)
            if not symmetric:
                residual = max(residual, _residual(m.T, u, v, vals))
            if residual <= _RESIDUAL_TOL:
                return vals, u, v
            failure = f"the largest Lanczos residual is {residual:.3g} > {_RESIDUAL_TOL:g}"
    if n > _DENSE_MAX_N:
        raise NotConvergedError(
            f"{failure}, and the dense solve is limited to n <= {_DENSE_MAX_N} (n = {n})"
        )
    if symmetric:
        vals, u = np.linalg.eigh(m @ np.eye(n))
        u = u[:, ::-1][:, :k]
        return vals[::-1][:k], u, u
    u, vals, vt = np.linalg.svd(m @ np.eye(n))
    return vals[:k], u[:, :k], vt[:k, :].T


def fb_spectrum(s: TransitionMatrix, mu: Density, k: int) -> SpectrumResult:
    """Top-k paired eigenfunctions of the forward-backward operators."""
    check_k(k, s.n)
    nu = _positive_image(s, mu)

    import scipy.sparse as sp

    sqrt_mu = np.sqrt(mu.p)
    inv_sqrt_nu = 1.0 / np.sqrt(nu.p)
    m = sp.diags(sqrt_mu) @ s.s @ sp.diags(inv_sqrt_nu)
    sigma, u, v = _top_k(m, k)
    kappa = np.clip(sigma, 0.0, 1.0)
    phi = u / sqrt_mu[:, None]
    psi = v * inv_sqrt_nu[:, None]
    _fix_signs(phi, psi)
    return SpectrumResult(kappa=kappa, lam=kappa**2, phi=phi, psi=psi)


def koopman_spectrum(g: Graph, k: int, lazy: bool = False) -> KoopmanSpectrum:
    """Top-k eigenpairs of K = S for an undirected graph.

    Computed through the symmetric similarity D_pi^{1/2} K D_pi^{-1/2};
    ``lazy`` replaces S by (S + I)/2, which makes all eigenvalues
    nonnegative.
    """
    import scipy.sparse as sp

    pi = stationary_density(g)
    check_k(k, g.n)
    s = transition_matrix(g)
    if lazy:
        s = lazy_chain(s)
    sqrt_pi = np.sqrt(pi.p)
    sym = sp.diags(sqrt_pi) @ s.s @ sp.diags(1.0 / sqrt_pi)
    vals, vecs, _ = _top_k(sp.csr_matrix((sym + sym.T) / 2.0), k, symmetric=True)
    vectors = vecs / sqrt_pi[:, None]
    _fix_signs(vectors)
    return KoopmanSpectrum(values=vals, vectors=vectors)


def spectral_gap(lam: Sequence[float], max_k: int) -> int:
    """Suggest k as the 1-based position of the largest drop.

    Returns argmax over 1 <= j < min(max_k, len) of lam[j] - lam[j+1];
    ties resolve to the smallest j.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if len(lam) < 2:
        raise TooFewValuesError("need at least two values to find a gap")
    limit = min(int(max_k), len(lam))
    if limit < 2:
        raise TooFewValuesError(f"max_k={max_k} leaves no gap to inspect")
    drops = lam[: limit - 1] - lam[1:limit]
    return int(np.argmax(drops)) + 1


def embed_coordinates(spec: SpectrumResult, dims: Sequence[int]) -> np.ndarray:
    """Vertex coordinates from 1-based eigenfunction indices.

    Row i is (phi_d(v_i)) for d in dims; dims=[2, 3] reproduces the
    planar graph drawing from the two subdominant eigenfunctions.
    """
    _check_dims(dims, spec.k)
    return np.column_stack([spec.phi[:, d - 1] for d in dims])


def _check_dims(dims: Sequence[int], k: int) -> None:
    """Raise IndexOutOfRangeError at the first index outside [1, k]."""
    for d in dims:
        if not 1 <= d <= k:
            raise IndexOutOfRangeError(f"eigenfunction index {d} outside [1, {k}]")
