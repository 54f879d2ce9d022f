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
    return a, b


def contingency_table(a: Sequence[int], b: Sequence[int]) -> ContingencyTable:
    a, b = _as_labels(a, b)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    counts = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(counts, (ai, bi), 1)
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


def misclassified_fraction(a: Sequence[int], b: Sequence[int]) -> float:
    """Fraction of elements misassigned under the best label bijection.

    The bijection is the exact assignment-problem optimum on the
    contingency table (padded square when cluster counts differ), not a
    greedy matching.
    """
    # Imported here: scipy.optimize costs every CLI process about 0.2 s
    # at start-up, and only this function needs it.
    from scipy.optimize import linear_sum_assignment

    table = contingency_table(a, b)
    counts = table.counts
    size = max(counts.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    rows, cols = linear_sum_assignment(padded, maximize=True)
    matched = int(padded[rows, cols].sum())
    return (table.n - matched) / table.n
