"""K-means on eigenfunction rows, and coherence scoring of vertex sets.

The graph clusterer computes the top-k paired eigenfunctions of the
forward-backward dynamics and runs k-means on the rows of the
eigenvector matrix, exactly the indicator heuristic behind spectral
clustering. k-means itself is seeded, restarted, and fully
deterministic: same (points, k, seed) gives the same labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class Clustering:
    """Per-vertex labels with the inertia and seed that produced them.

    ``spectrum`` holds the eigenfunctions the labels were computed from
    when the clustering came from ``cluster_graph``.
    """

    labels: np.ndarray
    k: int
    inertia: float
    seed: int
    spectrum: SpectrumResult | None = None


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with chosen centroids
            centroids[j] = points[rng.integers(n)]
            continue
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point, and its score ||c||^2 - 2 x.c.

    One matrix product scores every centroid. The scores are formed in
    the product's own buffer by the same operations as
    ``||c||^2 - 2.0 * (X @ C.T)``, without two n x k temporaries. Adding
    ||x||^2 to the chosen score gives the squared distance up to rounding.
    """
    scores = points @ centroids.T
    np.multiply(scores, 2.0, out=scores)
    np.subtract((centroids**2).sum(axis=1), scores, out=scores)
    labels = np.argmin(scores, axis=1)
    return labels, scores[np.arange(len(labels)), labels]


def _sq_dist(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Squared distance of each point to its labelled centroid, bitwise.

    Computed as sum((x - c_label)^2) from a centroid array laid out like
    ``points``, so numpy reduces it in the order it reduces the (n, k, d)
    broadcast ((points[:, None] - centroids[None]) ** 2).sum(axis=2):
    pairwise for row-major points, column by column for column-major
    ones. The distances, and so the inertia, are bitwise those of the
    broadcast.
    """
    chosen = np.empty_like(points)
    chosen[...] = centroids[labels]
    return ((points - chosen) ** 2).sum(axis=1)


def _lloyd(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, float, list[float]]:
    """One restart: k-means++ init then Lloyd iterations.

    Returns (labels, inertia, per-iteration objective history). Labels
    come from ``_assign``'s scores, and each history entry is the sum of
    the chosen scores plus sum ||x||^2, the inertia up to rounding. The
    bitwise distances of ``_sq_dist`` are computed only where they are
    read: for the returned inertia, and in an iteration that finds an
    empty cluster. Empty clusters are reseeded at the point farthest from
    its centroid, in cluster order, so a reseed that empties a later
    cluster reseeds that one too. Each centroid is its members' sum,
    accumulated in row order by one weighted bincount per column, over
    their count; for d >= 2 that is bitwise points[labels == j].mean(axis=0).
    """
    centroids = _kmeanspp_init(points, k, rng)
    sq = (points**2).sum(axis=1)
    sq_total = sq.sum()
    history: list[float] = []
    labels, best = _assign(points, centroids)
    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            dist2 = _sq_dist(points, centroids, labels)
            for j in range(k):
                if counts[j] == 0:
                    far = int(np.argmax(dist2))
                    centroids[j] = points[far]
                    counts[labels[far]] -= 1
                    counts[j] = 1
                    labels[far] = j
                    dist2[far] = 0.0
                    best[far] = -sq[far]
        history.append(float(best.sum() + sq_total))
        sums = np.empty_like(centroids)
        for c in range(points.shape[1]):
            sums[:, c] = np.bincount(labels, weights=points[:, c], minlength=k)
        new_centroids = centroids.copy()
        filled = counts > 0
        new_centroids[filled] = sums[filled] / counts[filled, None]
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        labels, best = _assign(points, centroids)
        if shift <= tol:
            break
    history.append(float(best.sum() + sq_total))
    return labels, float(_sq_dist(points, centroids, labels).sum()), history


def kmeans(points: np.ndarray, k: int, cfg: KMeansConfig | None = None) -> Clustering:
    """Best-of-restarts Lloyd clustering with k-means++ initialization.

    Restarts tie-break on inertia (within 1e-12) toward the lower
    restart index, so results are reproducible bit for bit.
    """
    cfg = cfg or KMeansConfig()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    check_k(k, len(points))
    if len(np.unique(points, axis=0)) < k:
        raise DegeneratePointsError(
            f"fewer than k={k} distinct rows; clusters would be empty"
        )
    best: tuple[float, np.ndarray] | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        labels, inertia, _ = _lloyd(points, k, rng, cfg.max_iter, cfg.tol)
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

    Runs k-means on the rows of [phi_1 .. phi_k] (or psi, or both
    concatenated). ``drop_first`` removes the constant phi_1 column
    before clustering; the default keeps it. The spectrum comes back as
    ``.spectrum``.
    """
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
    if drop_first:
        feats = feats[:, 1:]
    return replace(kmeans(feats, k, cfg), spectrum=spec)


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
