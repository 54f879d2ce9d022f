"""Directed stochastic block model benchmarks and parameter sweeps."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .clustering import KMeansConfig, cluster_graph
from .errors import NonPositiveWeightError, ToscaError
from .graph import Graph, _from_arrays, _read_rows, _write_rows, add_self_loops
from .metrics import adjusted_rand_index

__all__ = [
    "DSBMParams",
    "dsbm_sample",
    "two_block_sweep",
    "SweepRow",
    "read_prob_matrix",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class DSBMParams:
    """Block count, block size, block edge probabilities, edge weight, seed."""

    r_b: int
    n_b: int
    e: np.ndarray
    weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.r_b < 0 or self.n_b < 0:
            raise ToscaError(
                f"block count and block size must be nonnegative, got {self.r_b} and {self.n_b}"
            )
        e = np.asarray(self.e, dtype=np.float64)
        object.__setattr__(self, "e", e)
        if e.shape != (self.r_b, self.r_b):
            raise ToscaError(f"probability matrix must be {self.r_b}x{self.r_b}")
        if not ((e >= 0.0) & (e <= 1.0)).all():  # nan fails both
            raise ToscaError("block probabilities must lie in [0, 1]")
        if not 0.0 < self.weight < np.inf:  # nan fails both
            raise NonPositiveWeightError(
                f"edge weight must be positive and finite, got {self.weight}"
            )

    @property
    def n(self) -> int:
        return self.r_b * self.n_b

    def block_labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.r_b), self.n_b)


def dsbm_sample(params: DSBMParams) -> Graph:
    """Sample a directed block-model graph, one Bernoulli per entry.

    Entry (u, v) with u in block i and v in block j is present with
    probability e[i, j]; present edges all carry ``params.weight``. The
    generator never adds self-loops beyond what the blocks produce;
    regularization is the caller's explicit step.

    Block pairs are drawn in row-major order, each by ``_bernoulli_cells``
    over its n_b x n_b cells, so time and memory are proportional to the
    edges drawn rather than to n^2.
    """
    n, n_b = params.n, params.n_b
    rng = np.random.default_rng(params.seed)
    src, dst = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i in range(params.r_b):
        for j in range(params.r_b):
            hits = _bernoulli_cells(rng, n_b * n_b, float(params.e[i, j]))
            src.append(i * n_b + hits // n_b)
            dst.append(j * n_b + hits % n_b)
    src, dst = np.concatenate(src), np.concatenate(dst)
    weight = np.full(len(src), float(params.weight))
    return _from_arrays(n, src, dst, weight, directed=True)


def _bernoulli_cells(rng: np.random.Generator, cells: int, p: float) -> np.ndarray:
    """Ascending indices of the successes among ``cells`` Bernoulli(p) trials.

    The gaps between successive successes are Geometric(p) (Batagelj &
    Brandes, Phys. Rev. E 71, 2005). They are drawn in batches sized to
    cover the expected count with room to spare, and never more than
    cells + 1 at once, which always reaches past the last cell; a further
    batch is drawn only while the running position falls short.
    """
    if cells == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    mean = cells * p
    batch = min(cells + 1, int(mean + 6.0 * np.sqrt(mean)) + 16)
    parts = [np.cumsum(rng.geometric(p, batch)) - 1]
    while parts[-1][-1] < cells:
        parts.append(parts[-1][-1] + np.cumsum(rng.geometric(p, batch)))
    hits = np.concatenate(parts)
    return hits[: np.searchsorted(hits, cells)]


@dataclass(frozen=True)
class SweepRow:
    p: float
    q: float
    seed: int
    kappa2: float
    ari: float


def two_block_sweep(
    n_b: int,
    p_grid: Sequence[float],
    q_grid: Sequence[float],
    seeds: Sequence[int],
    cfg: KMeansConfig | None = None,
) -> list[SweepRow]:
    """Sweep the two-block model [[p, q], [q, p]] over a (p, q) grid.

    For every cell and seed the graph is sampled, regularized with unit
    self-loops, and clustered with k=2 by ``cluster_graph`` under
    ``cfg``; the second singular value and the agreement with the
    planted blocks are recorded.
    """
    if not p_grid or not q_grid or not seeds:
        raise ToscaError("p_grid, q_grid, and seeds must be nonempty")
    rows = []
    truth = np.repeat([0, 1], n_b)
    for p in p_grid:
        for q in q_grid:
            e = np.array([[p, q], [q, p]])
            for seed in seeds:
                params = DSBMParams(r_b=2, n_b=n_b, e=e, seed=seed)
                g = add_self_loops(dsbm_sample(params), 1.0)
                clustering = cluster_graph(g, 2, cfg=cfg)
                rows.append(
                    SweepRow(
                        p=float(p),
                        q=float(q),
                        seed=int(seed),
                        kappa2=float(clustering.spectrum.kappa[1]),
                        ari=adjusted_rand_index(truth, clustering.labels),
                    )
                )
    return rows


def read_prob_matrix(path) -> np.ndarray:
    """Read a block probability matrix from CSV (one row per line).

    '#' starts a comment; a malformed entry or a ragged row raises
    ParseError with its line.
    """
    e = _read_rows(path, np.float64, sep=",", entry="cannot parse numbers in '{text}'").table()
    if e.shape[0] != e.shape[1]:
        raise ToscaError(f"probability matrix must be square, got {e.shape}")
    return e


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    names = [field.name for field in fields(SweepRow)]
    columns = [np.array([getattr(row, name) for row in rows]) for name in names]
    _write_rows(path, columns, head=[",".join(names)])
