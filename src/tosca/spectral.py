"""Paired spectra of the forward-backward dynamics via a symmetrized SVD.

Instead of eigendecomposing the nonsymmetric F, the top singular
triplets (sigma, u, v) of

    M = D_mu^{1/2} S D_nu^{-1/2}

are computed; M M^T is symmetric positive semi-definite and similar to
F, so the eigenpairs of F and B follow as

    kappa = sigma,  lambda = sigma^2,
    phi = D_mu^{-1/2} u,  psi = D_nu^{-1/2} v.

This keeps the numerics real and stable for directed graphs. Both
spectra come from restarted Lanczos (ARPACK), started from a seeded
random vector, with a residual check on every returned vector; a failure
raises NotConvergedError at any n. A dense solve answers only for
k >= n - 1, which ARPACK does not accept.
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
# Largest accepted per-column residual of a Lanczos answer; NotConvergedError above
_RESIDUAL_TOL = 1e-8


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


def _scaled(a: np.ndarray, x: sp.spmatrix, b: np.ndarray) -> sp.csr_matrix:
    """diag(a) x diag(b) as a new CSR matrix that shares x's index arrays.

    Its values are (a_i x_ij) b_j; for a canonical x (sorted, no
    duplicates) they are the bits, and its indices the order, of scipy's
    sparse product of x with diagonal matrices, on the left and then on
    the right. Like that product it drops the entries that come out 0, and
    only then copies the index arrays. x is not written.
    """
    import scipy.sparse as sp

    x = x.tocsr()
    data = np.repeat(a, np.diff(x.indptr))
    data *= x.data
    data *= b[x.indices]
    if data.all():
        return sp.csr_matrix((data, x.indices, x.indptr), shape=x.shape)
    scaled = sp.csr_matrix((data, x.indices.copy(), x.indptr.copy()), shape=x.shape)
    scaled.eliminate_zeros()
    return scaled


def _residual(m, v: np.ndarray, u: np.ndarray, vals: np.ndarray) -> float:
    """max over columns j of ||m v_j - vals_j u_j||, the difference formed in one buffer."""
    r = m @ v
    r -= u * vals
    return np.linalg.norm(r, axis=0).max()


def _top_k(
    m: sp.spmatrix | spla.LinearOperator, k: int, symmetric: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k (values, left, right) of the square matrix m, descending.

    The top singular triplets (sigma, u, v) of a real m, or for symmetric
    (real symmetric or complex Hermitian) m the eigenpairs (lambda, x, x)
    with the largest values. Restarted Lanczos (ARPACK) answers from a seeded random
    start; the dense solve of m @ I answers only k >= n - 1, which ARPACK
    does not accept. An ARPACK failure, or a column (value w, left u, right
    v) that misses its residual <= _RESIDUAL_TOL, raises NotConvergedError.
    The residual is ||m v - w u|| for eigenpairs and ||m^T u - w v|| for
    triplets: these come from the SVD of m x with v = x w, descending as it
    gives them, and meet ||m v - w u|| by construction. m may be a
    LinearOperator.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    n = m.shape[0]
    if k >= n - 1:
        if symmetric:
            vals, u = np.linalg.eigh(m @ np.eye(n))
            u = u[:, ::-1][:, :k]
            return vals[::-1][:k], u, u
        u, vals, vt = np.linalg.svd(m @ np.eye(n))
        # a compact copy of u's columns, since fb_spectrum scales them in place
        return vals[:k], u[:, :k].copy(), vt[:k, :].T
    # The start vector and ARPACK's fresh vector on every restart come from
    # one fixed generator, so the answer repeats bit for bit.
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    try:
        if symmetric:
            vals, u = spla.eigsh(m, k=k, which="LA", tol=_ITER_TOL, v0=v0, rng=rng)
            order = np.argsort(vals)[::-1]
            vals, u = vals[order], u[:, order]
            v = u
        else:
            # the ARPACK steps of svds, which gives its eigsh no generator:
            # eigenvectors x of m^T m, then the SVD of m x. m.T is a view of
            # m's arrays, so the Gram product holds no copy of m.
            mt = m.T
            gram = spla.LinearOperator((n, n), matvec=lambda y: mt @ (m @ y), dtype=m.dtype)
            _, x = spla.eigsh(
                gram, k, tol=_ITER_TOL**2, maxiter=_ITER_MAXITER_PER_K * k, v0=v0, rng=rng
            )
            x = np.linalg.qr(x)[0]
            u, vals, vh = sla.svd(m @ x, full_matrices=False, overwrite_a=True)
            v = (vh @ x.T).T
            del x
    except spla.ArpackError as exc:
        raise NotConvergedError(f"ARPACK failed ({exc})") from exc
    residual = _residual(m, v, u, vals) if symmetric else _residual(mt, u, v, vals)
    if residual > _RESIDUAL_TOL:
        raise NotConvergedError(
            f"the largest Lanczos residual is {residual:.3g} > {_RESIDUAL_TOL:g}"
        )
    return vals, u, v


def fb_spectrum(s: TransitionMatrix, mu: Density, k: int) -> SpectrumResult:
    """Top-k paired eigenfunctions of the forward-backward operators."""
    check_k(k, s.n)
    nu = _positive_image(s, mu)

    sqrt_mu = np.sqrt(mu.p)
    inv_sqrt_nu = 1.0 / np.sqrt(nu.p)
    sigma, phi, psi = _top_k(_scaled(sqrt_mu, s.s, inv_sqrt_nu), k)
    kappa = np.clip(sigma, 0.0, 1.0)
    phi /= sqrt_mu[:, None]
    psi *= inv_sqrt_nu[:, None]
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
    sym = _scaled(sqrt_pi, s.s, 1.0 / sqrt_pi)
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
