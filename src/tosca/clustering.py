"""K-means on eigenfunction rows, and coherence scoring of vertex sets.

The graph clusterer computes the top-k paired eigenfunctions of the
forward-backward dynamics and runs k-means on the rows of the
eigenvector matrix, exactly the indicator heuristic behind spectral
clustering. It starts one Lloyd run from the rows a column-pivoted QR
picks, so its labels depend on no seed. ``kmeans`` itself is seeded and
fully deterministic: it runs its restarts one after another, each a
k-means++ start and one Lloyd run, and same (points, k, seed) gives the
same labels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import DegeneratePointsError, EmptySubsetError, IndexOutOfRangeError, check_k
from .graph import Graph, _check_vertices, _first_non_number, _non_integer, _not_an_integer, transition_matrix
from .operators import Density, forward_backward, uniform_density
from .spectral import SpectrumResult, fb_spectrum

__all__ = [
    "Clustering",
    "KMeansConfig",
    "kmeans",
    "cluster_graph",
    "coherence_score",
]

@dataclass(frozen=True)
class KMeansConfig:
    restarts: int = 10
    max_iter: int = 300
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name, value in (("restarts", self.restarts), ("max_iter", self.max_iter)):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be a number >= 0, got {self.tol}")


@dataclass(frozen=True)
class Clustering:
    """Per-vertex labels with their inertia and the configured seed.

    ``cluster_graph`` records ``cfg.seed`` without drawing from it.
    ``spectrum`` holds the eigenfunctions the labels were computed from
    when the clustering came from ``cluster_graph``.
    """

    labels: np.ndarray
    k: int
    inertia: float
    seed: int
    spectrum: SpectrumResult | None = None


# Scores and differences are computed in row blocks of about this many
# floats, whatever n, k and d.
_BLOCK = 1 << 16


def _score_blocks(points: np.ndarray, centroids: np.ndarray, width: int):
    """(rows, ||c||^2 - 2 x.c per point and centroid) per block of ~_BLOCK / width rows."""
    norms = (centroids**2).sum(axis=1)
    step = max(1, _BLOCK // width)
    for lo in range(0, len(points), step):
        scores = points[lo : lo + step] @ centroids.T
        np.multiply(scores, 2.0, out=scores)
        yield slice(lo, lo + step), np.subtract(norms, scores, out=scores)


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point, and its squared distance.

    ``centroids`` has shape (k, d). Returns labels and squared distances
    of shape (n,): the argmin over the k scores (the lowest index wins a
    tie), and sum((x - c)^2) to the chosen centroid, added coordinate by
    coordinate: in one order whatever the blocks, and faster than a
    reduction over a short axis.
    """
    k, d = centroids.shape
    labels = np.empty(len(points), dtype=np.intp)
    dist2 = np.empty(len(points))
    for rows, scores in _score_blocks(points, centroids, max(k, d)):
        labels[rows] = scores.argmin(axis=1)
        diff = points[rows] - centroids[labels[rows]]
        np.square(diff, out=diff)
        dist2[rows] = sum(diff[:, j] for j in range(d))
    return labels, dist2


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centroids drawn from ``rng``, shape (k, d).

    The squared distances ||x||^2 + ||c||^2 - 2 x.c to each new centroid
    are floored at 0.
    """
    n = len(points)
    sq = (points**2).sum(axis=1)
    centroids = np.empty((k, points.shape[1]))
    d2 = np.full(n, np.inf)
    for j in range(k):
        total = d2.sum() if j else 0.0
        # the first centroid, or every point coincides with a chosen one
        chosen = rng.integers(n) if total <= 0.0 else _choice(d2 / total, rng)
        centroids[j] = points[chosen]
        if j == k - 1:
            break
        for rows, scores in _score_blocks(points, centroids[j : j + 1], 1):
            np.minimum(d2[rows], np.maximum(scores[:, 0] + sq[rows], 0.0), out=d2[rows])
    return centroids


def _choice(p: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(p), p=p)``, the same draw from the same state, without
    re-validating p: the inverse CDF of one uniform over the normalised cumsum."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _one_hot(n: int, k: int):
    """A k x n sparse matrix with one stored 1 in each column, for ``_member_sums``."""
    import scipy.sparse as sp

    return sp.csc_array((np.ones(n), np.zeros(n, dtype=np.intp), np.arange(n + 1)), shape=(k, n))


def _member_sums(onehot, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Member sums of every cluster, shape (k, d), as the one-hot matrix of
    ``labels`` times ``points``.

    ``onehot`` comes from ``_one_hot``: every labelling has its structure,
    one stored 1 per column, so only its row indices are written here.
    Building the matrix anew each round cost more than the product.
    """
    onehot.indices[:] = labels
    return onehot @ points


def _lloyd(
    points: np.ndarray, start: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, float, list[float]]:
    """Lloyd iterations from the (k, d) centroids ``start``.

    Returns labels, inertia and the per-iteration objective history. The
    run stops once its centroids move by at most ``tol`` or after
    ``max_iter`` rounds, with the labels of its last assignment.
    ``_assign``'s squared distances give each history entry as their
    sum, the inertia as the last entry, and the reseed of an empty
    cluster: the point farthest from its centroid, in cluster order, so
    a reseed that empties a later cluster reseeds that one too. Each
    centroid is its members' sum in row order over their count, so
    history and inertia follow from the labels alone.
    """
    points = np.ascontiguousarray(points)
    centroids = np.array(start, dtype=np.float64)
    k = len(centroids)
    onehot = _one_hot(len(points), k)
    history: list[float] = []
    labels, dist2 = _assign(points, centroids)
    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                far = int(np.argmax(dist2))
                centroids[j] = points[far]
                counts[labels[far]] -= 1
                counts[j] = 1
                labels[far] = j
                dist2[far] = 0.0
        history.append(float(dist2.sum()))
        sums = _member_sums(onehot, points, labels)
        moved = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], centroids)
        shift = np.abs(moved - centroids).max()
        centroids = moved
        labels, dist2 = _assign(points, centroids)
        if shift <= tol:
            break
    history.append(float(dist2.sum()))
    return labels, history[-1], history


def _has_k_distinct_rows(points: np.ndarray, k: int) -> bool:
    """Whether ``points`` has k distinct rows, as ``np.unique(points, axis=0)`` counts them.

    Rows equal there (-0.0 equals 0.0) have equal projections onto a fixed
    w, which is formed column by column with the same operations on every
    row, so k distinct projections prove k distinct rows. NaN projections
    count once, which only lowers the count. Below k, the exact count
    decides. The projection holds one float per row, where the exact count
    sorts copies of the whole array.
    """
    w = np.random.default_rng(0).uniform(0.5, 1.5, points.shape[1])
    projection = np.zeros(len(points))
    for column, weight in zip(points.T, w):
        projection += column * weight
    return len(np.unique(projection)) >= k or len(np.unique(points, axis=0)) >= k


def _check_points(points: np.ndarray, k: int) -> None:
    """k in [1, n], and at least k distinct, finite rows to put the k clusters on."""
    check_k(k, len(points))
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise DegeneratePointsError(f"row {int(np.argmin(finite))} is not finite")
    if not _has_k_distinct_rows(points, k):
        raise DegeneratePointsError(f"fewer than k={k} distinct rows; clusters would be empty")


def _cpqr_start(points: np.ndarray, k: int) -> np.ndarray:
    """The rows at the first k pivots of a column-pivoted QR of points.T,
    shape (k, d).

    Damle, Minden & Ying (*Simple, direct and efficient multi-way
    spectral clustering*, Inf. Inference 8, 2019): each pivot is the row
    farthest from the span of the rows picked before it, so on spectral
    features the pivots fall in k different clusters. The pivot order
    depends on the rows' values, and on their indices only where two
    candidates tie exactly. Only R is formed.
    """
    import scipy.linalg

    _, pivots = scipy.linalg.qr(points.T, mode="r", pivoting=True)
    return points[pivots[:k]]


def kmeans(points: np.ndarray, k: int, cfg: KMeansConfig | None = None) -> Clustering:
    """Best-of-restarts Lloyd clustering with k-means++ initialization.

    ``points`` are real, of shape (n,) or (n, d) with d >= 1; anything
    else is a ValueError. The restarts run one after another, restart r
    drawing its k-means++ start from ``default_rng([seed, r])``. The
    first restart with the lowest inertia wins, so the same points, k
    and config give the same labels; restarts that reach the same
    partition tie exactly.
    """
    cfg = cfg or KMeansConfig()
    points = np.asarray(points)
    if points.dtype.kind == "c" or points.ndim not in (1, 2) or 0 in points.shape[1:]:
        raise ValueError(f"cannot cluster {points.dtype} points of shape {points.shape}")
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    _check_points(points, k)
    rngs = (np.random.default_rng([cfg.seed, r]) for r in range(cfg.restarts))
    runs = (_lloyd(points, _kmeanspp_init(points, k, rng), cfg.max_iter, cfg.tol) for rng in rngs)
    labels, inertia, _ = min(runs, key=lambda run: run[1])
    return Clustering(labels=labels, k=k, inertia=inertia, seed=cfg.seed)


def cluster_graph(
    g: Graph,
    k: int,
    mu: Density | None = None,
    cfg: KMeansConfig | None = None,
    use: Literal["phi", "psi", "both"] = "phi",
    drop_first: bool = False,
) -> Clustering:
    """Spectral clustering of a (directed) graph into k coherent sets.

    Runs one Lloyd k-means on the rows of [phi_1 .. phi_k] (or psi, or
    both concatenated), started at the rows ``_cpqr_start`` picks. Only
    ``cfg.max_iter`` and ``cfg.tol`` are read: the labels depend on
    neither ``cfg.seed`` nor ``cfg.restarts``, nor, but for exact ties
    between pivot candidates, on how the vertices are numbered.
    ``drop_first`` removes the constant phi_1 column
    before clustering; the default keeps it. The pivots are taken before
    the column is dropped, since k - 1 columns leave the k-th pivot to
    rounding. The spectrum comes back as ``.spectrum``.
    """
    if use not in ("phi", "psi", "both"):
        raise ValueError(f"unknown feature choice {use!r}")
    cfg = cfg or KMeansConfig()
    mu = mu or uniform_density(g.n)
    s = transition_matrix(g)
    spec = fb_spectrum(s, mu, k)
    feats = np.hstack([spec.phi, spec.psi]) if use == "both" else getattr(spec, use)
    start = _cpqr_start(feats, k)
    if drop_first:
        feats, start = feats[:, 1:], start[:, 1:]
    _check_points(feats, k)
    labels, inertia, _ = _lloyd(feats, start, cfg.max_iter, cfg.tol)
    return Clustering(labels=labels, k=k, inertia=inertia, seed=cfg.seed, spectrum=spec)


def coherence_score(g: Graph, mu: Density | None, subset: Iterable[int]) -> float:
    """Probability that a forward-backward walk from the set returns to it.

    Averages the in-set row mass of F over the set; 1 means every
    forward-backward path starting inside stays inside: 1_A^T F 1_A / |A|,
    with F applied as a sparse product. Vertices are integer values: 2.0
    and "2" are vertex 2; "x", else the first of 0.5, nan or inf, raises
    ToscaError.
    """
    vertices = list(subset)
    try:
        values = np.fromiter(vertices, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        if (bad := _first_non_number(vertices)) is None:
            raise
        if bad[2]:  # 10**400: a number, and beyond any vertex count
            raise IndexOutOfRangeError(f"vertex index {bad[1]} outside [0, {g.n})") from None
        raise _not_an_integer(bad[1]) from None
    bad = _non_integer(values)
    if bad.any():
        raise _not_an_integer(values[np.argmax(bad)])
    idx = np.unique(values)
    if len(idx) == 0:
        raise EmptySubsetError("coherence of the empty set is undefined")
    _check_vertices(idx, g.n)  # on the floats: 1e300 is named, not cast
    idx = idx.astype(np.int64)
    indicator = np.zeros(g.n)
    indicator[idx] = 1.0
    f = forward_backward(transition_matrix(g), mu or uniform_density(g.n))
    return float((f.linear @ indicator)[idx].sum() / len(idx))
