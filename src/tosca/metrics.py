"""Partition agreement metrics: adjusted Rand index and misclassified fraction."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError

__all__ = [
    "ContingencyTable",
    "contingency_table",
    "adjusted_rand_index",
    "misclassified_fraction",
]


@dataclass(frozen=True)
class ContingencyTable:
    """Joint label counts with row and column marginals."""

    counts: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def _as_labels(a: Sequence[int], b: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatchError(
            f"label vectors must have equal length, got {a.shape} and {b.shape}"
        )
    if len(a) == 0:
        raise LengthMismatchError("need at least one element")
    return a, b


def contingency_table(a: Sequence[int], b: Sequence[int]) -> ContingencyTable:
    a, b = _as_labels(a, b)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    counts = np.bincount(ai * kb + bi, minlength=ka * kb).reshape(ka, kb)
    return ContingencyTable(
        counts=counts,
        row_marginals=counts.sum(axis=1),
        col_marginals=counts.sum(axis=0),
    )


def adjusted_rand_index(a: Sequence[int], b: Sequence[int]) -> float:
    """Chance-corrected pair-counting agreement of two partitions, in [-1, 1].

    Degenerate cases where max index equals expected index return 1.0
    when the partitions are identical and 0.0 otherwise.
    """
    table = contingency_table(a, b)
    if table.n < 2:
        raise LengthMismatchError("need at least two elements")
    sum_cells = sum(comb(int(c), 2) for c in table.counts.ravel())
    sum_rows = sum(comb(int(c), 2) for c in table.row_marginals)
    sum_cols = sum(comb(int(c), 2) for c in table.col_marginals)
    total = comb(table.n, 2)
    # integer form of (index - expected) / (max - expected); exact up to
    # the final correctly-rounded division
    numerator = 2 * total * sum_cells - 2 * sum_rows * sum_cols
    denominator = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denominator == 0:
        identical = (np.count_nonzero(table.counts, axis=1) == 1).all() and (
            np.count_nonzero(table.counts, axis=0) == 1
        ).all()
        return 1.0 if identical else 0.0
    return numerator / denominator


def _max_weight_assignment(w: np.ndarray) -> np.ndarray:
    """Column matched to each row by a maximum-weight perfect matching.

    ``w`` is a square integer matrix. Shortest augmenting paths with
    row and column potentials (the Hungarian method in the form of
    Crouse, "On implementing 2D rectangular assignment algorithms",
    IEEE TAES 2016), one row added per phase, each Dijkstra step
    vectorised over the columns. Integer arithmetic keeps it exact.
    """
    n = w.shape[0]
    cost = -np.asarray(w, dtype=np.int64)
    inf = np.iinfo(np.int64).max // 4
    # Index 0 is a virtual column; row_of[j] is the row matched to
    # column j, 1-based, and 0 while column j is free.
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    row_of = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(n + 1, inf, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (reduced < minv[1:])
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            slack = np.where(free, minv[1:], inf)
            j1 = int(np.argmin(slack)) + 1
            delta = slack[j1 - 1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    col_of = np.empty(n, dtype=np.int64)
    col_of[row_of[1:] - 1] = np.arange(n)
    return col_of


def misclassified_fraction(a: Sequence[int], b: Sequence[int]) -> float:
    """Fraction of elements misassigned under the best label bijection.

    The bijection is the exact assignment-problem optimum on the
    contingency table (padded square when cluster counts differ), not a
    greedy matching.
    """
    table = contingency_table(a, b)
    counts = table.counts
    size = max(counts.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    cols = _max_weight_assignment(padded)
    matched = int(padded[np.arange(size), cols].sum())
    return (table.n - matched) / table.n
