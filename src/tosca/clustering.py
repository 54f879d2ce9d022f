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


# Scores are computed in row blocks of about this many floats, whatever
# n, k and the number of live restarts.
_BLOCK = 1 << 16
# The centroid stack is padded to whole tiles of this many columns.
_TILE = 8


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices of about ``_BLOCK / width`` rows covering n rows, none of
    them a single row unless n is 1."""
    edges = [*range(0, n, max(2, _BLOCK // width)), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _score_blocks(points: np.ndarray, centroids: np.ndarray):
    """Scores ||c||^2 - 2 x.c of every point against every centroid.

    Yields (rows, scores) per row block; ``scores`` has one column per
    centroid. One matrix product scores a block, and the scores are
    formed in its buffer by the same operations as
    ``||c||^2 - 2.0 * (X @ C.T)``. Each score is the one a product over
    all n points gives, whatever the number of centroids: points are
    taken column-major, the stack is padded with zero centroids to whole
    tiles, and no block holds a single row. The BLAS computes edge
    columns and single rows of a product by other kernels, whose sums
    can differ in the last bit.
    """
    points = np.asfortranarray(points)
    m, d = centroids.shape
    width = -(-m // _TILE) * _TILE
    stack = np.zeros((width, d))
    stack[:m] = centroids
    norms = (stack**2).sum(axis=1)
    for rows in _row_blocks(len(points), width):
        scores = points[rows] @ stack.T
        np.multiply(scores, 2.0, out=scores)
        np.subtract(norms, scores, out=scores)
        yield rows, scores[:, :m]


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point for a stack of restarts, and its score.

    ``centroids`` has shape (restarts, k, d). Returns labels and scores
    of shape (restarts, n): each restart's argmin over its own k scores
    ||c||^2 - 2 x.c (the lowest index wins a tie), and the chosen score.
    Adding ||x||^2 to it gives the squared distance up to rounding.
    """
    r, k, d = centroids.shape
    labels = np.empty((r, len(points)), dtype=np.intp)
    best = np.empty((r, len(points)))
    for rows, scores in _score_blocks(points, centroids.reshape(r * k, d)):
        scores = scores.reshape(len(scores), r, k)
        chosen = scores.argmin(axis=2)
        labels[:, rows] = chosen.T
        best[:, rows] = np.take_along_axis(scores, chosen[:, :, None], axis=2)[:, :, 0].T
    return labels, best


def _kmeanspp_init(points: np.ndarray, k: int, seed: int, restarts: int) -> np.ndarray:
    """k-means++ centroids for every restart, shape (restarts, k, d).

    Restart r draws from ``default_rng([seed, r])``, in the order it
    would alone. All restarts take each step together: one product
    gives the squared distance of every point to each restart's new
    centroid as ||x||^2 + ||c||^2 - 2 x.c, floored at 0.
    """
    points = np.asfortranarray(points)
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
        for rows, scores in _score_blocks(points, centroids[:, j]):
            step[:, rows] = (scores + sq[rows, None]).T
        np.maximum(step, 0.0, out=step)
        d2 = np.minimum(d2, step, out=d2) if j else step
    return centroids


def _sq_dist(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Squared distance of each point to its labelled centroid, bitwise.

    Computed as sum((x - c_label)^2) from a centroid array laid out like
    ``points``, so numpy reduces it in the order it reduces the (n, k, d)
    broadcast ((points[:, None] - centroids[None]) ** 2).sum(axis=2):
    pairwise for row-major points, column by column for column-major
    ones. The distances, and so the inertia, are bitwise those of the
    broadcast. Row blocks of at least two rows bound the temporaries and
    keep that order; a single row would be reduced pairwise.
    """
    dist2 = np.empty(len(points))
    for rows in _row_blocks(len(points), points.shape[1]):
        chosen = np.empty_like(points[rows])
        chosen[...] = centroids[labels[rows]]
        np.subtract(points[rows], chosen, out=chosen)
        dist2[rows] = np.square(chosen, out=chosen).sum(axis=1)
    return dist2


def _member_sums(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Member sums of every cluster of every restart, shape (restarts, k, d).

    One sparse one-hot product adds each cluster's members in row order,
    as a weighted bincount does, so each sum is bitwise the bincount's.
    """
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
    last assignment. Labels come from ``_assign``'s scores, and each
    history entry is the sum of the chosen scores plus sum ||x||^2, the
    inertia up to rounding. The bitwise distances of ``_sq_dist`` are
    computed only where they are read: for the inertia, and in a
    restart that finds an empty cluster. Empty clusters are reseeded at
    the point farthest from its centroid, in cluster order, so a reseed
    that empties a later cluster reseeds that one too. Each centroid is
    its members' sum over their count. One sparse one-hot product forms
    the sums of every restart, adding each cluster's members in row
    order; for d >= 2 that is bitwise points[labels == j].mean(axis=0).
    """
    centroids = np.array(centroids, dtype=np.float64)
    k = centroids.shape[1]
    by_column = np.asfortranarray(points)
    by_row = np.ascontiguousarray(points)
    sq = (points**2).sum(axis=1)
    sq_total = sq.sum()
    live = np.arange(len(centroids))
    histories: list[list[float]] = [[] for _ in live]
    runs: list = [None] * len(live)
    labels, best = _assign(by_column, centroids)
    done = np.full(len(live), max_iter == 0)
    rounds = 0
    while True:
        for i in np.flatnonzero(done):
            histories[live[i]].append(float(best[i].sum() + sq_total))
            inertia = float(_sq_dist(points, centroids[i], labels[i]).sum())
            runs[live[i]] = (labels[i].copy(), inertia, histories[live[i]])
        if done.all():
            return runs
        live, centroids, labels, best = live[~done], centroids[~done], labels[~done], best[~done]
        offset = labels + k * np.arange(len(live))[:, None]
        counts = np.bincount(offset.ravel(), minlength=k * len(live)).reshape(-1, k)
        for i in np.flatnonzero(~counts.all(axis=1)):
            dist2 = _sq_dist(points, centroids[i], labels[i])
            for j in range(k):
                if counts[i, j]:
                    continue
                far = int(np.argmax(dist2))
                centroids[i, j] = points[far]
                counts[i, labels[i, far]] -= 1
                counts[i, j] = 1
                labels[i, far] = j
                dist2[far] = 0.0
                best[i, far] = -sq[far]
        for i, r in enumerate(live):
            histories[r].append(float(best[i].sum() + sq_total))
        sums = _member_sums(by_row, labels, k)
        moved = centroids.copy()
        filled = counts > 0
        moved[filled] = sums[filled] / counts[filled][:, None]
        shift = np.abs(moved - centroids).max(axis=(1, 2))
        centroids = moved
        labels, best = _assign(by_column, centroids)
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
    """k in [1, n], and at least k distinct rows to put the k clusters on."""
    check_k(k, len(points))
    if not _has_k_distinct_rows(points, k):
        raise DegeneratePointsError(
            f"fewer than k={k} distinct rows; clusters would be empty"
        )


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

    All restarts run as one batch. Restarts tie-break on inertia (within
    1e-12) toward the lower restart index, so results are reproducible
    bit for bit.
    """
    cfg = cfg or KMeansConfig()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    _check_points(points, k)
    init = _kmeanspp_init(points, k, cfg.seed, cfg.restarts)
    best: tuple[float, np.ndarray] | None = None
    for labels, inertia, _ in _lloyd(points, init, cfg.max_iter, cfg.tol):
        if best is None or inertia < best[0] - _TIE_TOL:
            best = (inertia, labels)
    inertia, labels = best
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
