"""K-means on eigenfunction rows, and coherence scoring of vertex sets.

The graph clusterer computes the top-k paired eigenfunctions of the
forward-backward dynamics and runs k-means on the rows of the
eigenvector matrix, exactly the indicator heuristic behind spectral
clustering. It starts one Lloyd run from the rows a column-pivoted QR
picks, so its labels depend on no seed. ``kmeans`` itself is seeded,
restarted, and fully deterministic: same (points, k, seed) gives the
same labels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import DegeneratePointsError, EmptySubsetError, check_k
from .graph import Graph, _check_vertices, transition_matrix
from .operators import Density, forward_backward, uniform_density
from .spectral import SpectrumResult, fb_spectrum

__all__ = [
    "Clustering",
    "KMeansConfig",
    "kmeans",
    "cluster_graph",
    "coherence_score",
]

_TIE_TOL = 1e-12


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
# floats, whatever n, k, d and the number of live restarts.
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
    """Nearest centroid per point for a stack of restarts, and its squared distance.

    ``centroids`` has shape (restarts, k, d). Returns labels and squared
    distances of shape (restarts, n): each restart's argmin over its own
    k scores (the lowest index wins a tie), and sum((x - c)^2) to the
    chosen centroid, added coordinate by coordinate: in one order whatever
    the batch and blocks, and faster than a reduction over a short axis.
    """
    r, k, d = centroids.shape
    labels = np.empty((r, len(points)), dtype=np.intp)
    dist2 = np.empty((r, len(points)))
    stack = centroids.reshape(r * k, d)
    for rows, scores in _score_blocks(points, stack, r * max(k, d)):
        chosen = scores.reshape(len(scores), r, k).argmin(axis=2).T
        labels[:, rows] = chosen
        diff = np.take(stack, chosen + k * np.arange(r)[:, None], axis=0)
        np.subtract(points[rows], diff, out=diff)
        np.square(diff, out=diff)
        dist2[:, rows] = sum(diff[..., j] for j in range(d))
    return labels, dist2


def _kmeanspp_init(points: np.ndarray, k: int, seed: int, restarts: int) -> np.ndarray:
    """k-means++ centroids for every restart, shape (restarts, k, d).

    Restart r draws from ``default_rng([seed, r])``, in the order it
    would alone. All restarts take each step together, with the squared
    distances ||x||^2 + ||c||^2 - 2 x.c to their new centroids floored at 0.
    """
    n = len(points)
    sq = (points**2).sum(axis=1)
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    centroids = np.empty((restarts, k, points.shape[1]))
    chosen = np.empty(restarts, dtype=np.intp)
    d2 = np.empty((restarts, n))
    for j in range(k):
        for r, rng in enumerate(rngs):
            total = d2[r].sum() if j else 0.0
            # the first centroid, or every point coincides with a chosen one
            chosen[r] = rng.integers(n) if total <= 0.0 else rng.choice(n, p=d2[r] / total)
        centroids[:, j] = points[chosen]
        if j == k - 1:
            break
        step = np.empty_like(d2)
        for rows, scores in _score_blocks(points, centroids[:, j], restarts):
            step[:, rows] = (scores + sq[rows, None]).T
        np.maximum(step, 0.0, out=step)
        d2 = np.minimum(d2, step, out=d2) if j else step
    return centroids


def _member_sums(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Member sums of every cluster of every restart, shape (restarts, k, d),
    from one sparse one-hot product."""
    import scipy.sparse as sp

    restarts, n = labels.shape
    rows = labels.T + k * np.arange(restarts)
    onehot = sp.csc_array(
        (np.ones(rows.size), rows.ravel(), np.arange(0, rows.size + 1, restarts)),
        shape=(k * restarts, n),
    )
    return (onehot @ points).reshape(restarts, k, -1)


def _lloyd(
    points: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float
) -> list[tuple[np.ndarray, float, list[float]]]:
    """Lloyd iterations for a stack of restarts, all live ones together.

    ``centroids`` holds each restart's start, shape (restarts, k, d).
    Returns (labels, inertia, per-iteration objective history) per
    restart. A restart leaves the batch once its centroids move by at
    most ``tol`` or after ``max_iter`` rounds, with the labels of its
    last assignment. ``_assign``'s squared distances give each history
    entry as their sum, the inertia as the last entry, and the reseed of
    an empty cluster: the point farthest from its centroid, in cluster
    order, so a reseed that empties a later cluster reseeds that one too.
    Each centroid is its members' sum in row order over their count, so
    history and inertia follow from the labels alone, in a batch or not.
    """
    points = np.ascontiguousarray(points)
    centroids = np.array(centroids, dtype=np.float64)
    k = centroids.shape[1]
    live = np.arange(len(centroids))
    histories: list[list[float]] = [[] for _ in live]
    runs: list = [None] * len(live)
    labels, dist2 = _assign(points, centroids)
    done = np.full(len(live), max_iter == 0)
    rounds = 0
    while True:
        for i in np.flatnonzero(done):
            history = histories[live[i]]
            history.append(float(dist2[i].sum()))
            runs[live[i]] = (labels[i].copy(), history[-1], history)
        if done.all():
            return runs
        live, centroids, labels, dist2 = live[~done], centroids[~done], labels[~done], dist2[~done]
        offset = labels + k * np.arange(len(live))[:, None]
        counts = np.bincount(offset.ravel(), minlength=k * len(live)).reshape(-1, k)
        for i in np.flatnonzero(~counts.all(axis=1)):
            for j in range(k):
                if counts[i, j]:
                    continue
                far = int(np.argmax(dist2[i]))
                centroids[i, j] = points[far]
                counts[i, labels[i, far]] -= 1
                counts[i, j] = 1
                labels[i, far] = j
                dist2[i, far] = 0.0
        for i, r in enumerate(live):
            histories[r].append(float(dist2[i].sum()))
        sums = _member_sums(points, labels, k)
        moved = centroids.copy()
        filled = counts > 0
        moved[filled] = sums[filled] / counts[filled][:, None]
        shift = np.abs(moved - centroids).max(axis=(1, 2))
        centroids = moved
        labels, dist2 = _assign(points, centroids)
        rounds += 1
        done = (shift <= tol) | (rounds == max_iter)


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
    shape (1, k, d).

    Damle, Minden & Ying (*Simple, direct and efficient multi-way
    spectral clustering*, Inf. Inference 8, 2019): each pivot is the row
    farthest from the span of the rows picked before it, so on spectral
    features the pivots fall in k different clusters. The pivot order
    depends on the rows' values, and on their indices only where two
    candidates tie exactly. Only R is formed.
    """
    import scipy.linalg

    _, pivots = scipy.linalg.qr(points.T, mode="r", pivoting=True)
    return points[pivots[:k]][None]


def kmeans(points: np.ndarray, k: int, cfg: KMeansConfig | None = None) -> Clustering:
    """Best-of-restarts Lloyd clustering with k-means++ initialization.

    All restarts run as one batch on row-major points. Restarts tie-break
    on inertia (within 1e-12) toward the lower restart index, so the same
    points, k and config give the same labels; restarts that reach the
    same partition tie exactly.
    """
    cfg = cfg or KMeansConfig()
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    _check_points(points, k)
    init = _kmeanspp_init(points, k, cfg.seed, cfg.restarts)
    best, *rest = _lloyd(points, init, cfg.max_iter, cfg.tol)
    for run in rest:
        if run[1] < best[1] - _TIE_TOL:
            best = run
    return Clustering(labels=best[0], k=k, inertia=best[1], seed=cfg.seed)


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
    cfg = cfg or KMeansConfig()
    mu = mu or uniform_density(g.n)
    s = transition_matrix(g)
    spec = fb_spectrum(s, mu, k)
    if use == "phi":
        feats = spec.phi
    elif use == "psi":
        feats = spec.psi
    elif use == "both":
        feats = np.hstack([spec.phi, spec.psi])
    else:
        raise ValueError(f"unknown feature choice {use!r}")
    start = _cpqr_start(feats, k)
    if drop_first:
        feats, start = feats[:, 1:], start[:, :, 1:]
    _check_points(feats, k)
    [(labels, inertia, _)] = _lloyd(feats, start, cfg.max_iter, cfg.tol)
    return Clustering(labels=labels, k=k, inertia=inertia, seed=cfg.seed, spectrum=spec)


def coherence_score(g: Graph, mu: Density | None, subset: Iterable[int]) -> float:
    """Probability that a forward-backward walk from the set returns to it.

    Averages the in-set row mass of F over the set; 1 means every
    forward-backward path starting inside stays inside: 1_A^T F 1_A / |A|,
    with F applied as a sparse product.
    """
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=np.int64)
    if len(idx) == 0:
        raise EmptySubsetError("coherence of the empty set is undefined")
    _check_vertices(idx, g.n)
    indicator = np.zeros(g.n)
    indicator[idx] = 1.0
    f = forward_backward(transition_matrix(g), mu or uniform_density(g.n))
    return float((f.linear @ indicator)[idx].sum() / len(idx))
