"""Random-walk sampling and operator estimation from walk data.

Pairs (x, y) of walker positions before and after one step give
empirical matrices

    Gxx = Phi_x Phi_x^T / m,  Gyy = Phi_y Phi_y^T / m,
    Gxy = Phi_x Phi_y^T / m,

whose infinite-data limits are the Galerkin matrices of the transfer
operators. Estimated operators follow as compositions

    K_r = Gxx^-1 Gxy,  T_r = Gyy^-1 Gyx,  F_r = K_r T_r,  B_r = T_r K_r.

The limit of F_r is K_r T_r, whose eigenvalues lie at or below those of
the Galerkin projection of F; estimates scatter about it with no established sign.

Sampling draws uniforms from numpy's PCG64 generator, so all draws are
reproducible from the seed alone. Each step is an inverse-CDF lookup
inside the walker's row of S, over cumulative row sums kept in the CSR
layout of S: O(nnz) memory whatever the degrees. They are built on the
first draw from an S and kept with it, so the samples of one chain
share them. The draw rule, with u uniform in [0, 1):

- from a row of S holding d equal positive probabilities, or a density
  whose d support masses are equal, entry min(floor(u d), d - 1): the
  cells are the exact intervals [k/d, (k + 1)/d), whatever the row's
  total: a hand-built row of equal entries that do not sum to 1 is drawn
  uniformly;
- from any other row or density, entry ``searchsorted(cum, u, side="right")``,
  or the last entry when u is at or above the floating total.

Which rule a row takes is read from its stored values alone, once, when
the cumulative rows (``even``) or a density's guide table are built.
Start vertices from other densities are found through a guide table over
the density's cumsum, the searched steps of independent pairs by a
branchless fixed-step search inside those walkers' rows at once, and
those of a trajectory by ``bisect_right`` within rows of flat Python lists.
Pairs and trajectories take their uniforms in blocks of ``_WALK_CHUNK``
from the seed's one stream, so no m-long array of uniforms is held.
For an indicator basis with vertex -> set map c (``Basis.classes``, r
for a vertex in no set), the Grams count steps between sets: with C the
(r + 1) x (r + 1) bincount of the keys c[x] (r + 1) + c[y],

    Gxx = diag(C 1)[:r, :r] / m,  Gyy = diag(C^T 1)[:r, :r] / m,  Gxy = C[:r, :r] / m,

the sums above, bit for bit, since the counts are exact integers. Any
other basis counts the pairs per vertex in a sparse n x n matrix N:
Gxx = Phi diag(N 1) Phi^T / m, Gxy = Phi N Phi^T / m.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, NamedTuple, get_args

import numpy as np

from .errors import (
    EmptyMatrixError,
    EmptySampleError,
    LengthMismatchError,
    SingularGramError,
)
from .galerkin import Basis
from .graph import (
    TransitionMatrix,
    _CumulativeRows,
    _check_vertices,
    _header_values,
    _read_rows,
    _vertex_count,
    _vertex_fault,
    _write_rows,
)
from .operators import Density, _check_density_length

__all__ = [
    "WalkSample",
    "EmpiricalGrams",
    "EstimatedOperators",
    "sample_pairs",
    "sample_trajectory",
    "empirical_grams",
    "estimated_operators",
    "write_walks",
    "read_walks",
]

_WALK_CHUNK = 1 << 16  # walk draws per block of uniforms; the fewest pairs per block of counts

SampleMode = Literal["independent_pairs", "single_trajectory"]
_SAMPLE_MODES = get_args(SampleMode)


@dataclass(frozen=True)
class WalkSample:
    """m walker transitions: ys[i] is one step of the walk from xs[i].

    ``n`` is the vertex count of the graph walked on, when known.
    """

    xs: np.ndarray
    ys: np.ndarray
    mode: SampleMode
    seed: int
    n: int | None = None

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise LengthMismatchError(
                f"walk sample has {len(self.xs)} start and {len(self.ys)} end vertices"
            )

    @property
    def m(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class EmpiricalGrams:
    gxx: np.ndarray
    gyy: np.ndarray
    gxy: np.ndarray
    m: int


class EstimatedOperators(NamedTuple):
    k: np.ndarray
    t: np.ndarray
    f: np.ndarray
    b: np.ndarray


def _first_above(
    cum: np.ndarray, lo: np.ndarray, last: np.ndarray, u: np.ndarray, width: int
) -> np.ndarray:
    """Per draw i, the index of the first entry of the run ``cum[lo[i]:last[i] + 1]``
    above u[i], or last[i] when there is none.

    Every run is sorted and at most ``width >= 1`` long. A branchless
    fixed-step search over all draws at once: ``pos - lo`` counts the run's
    entries <= u and grows by 2^t when the entry 2^t past the count is still
    <= u, for t from the largest with 2^t < width down to 0. A probe past
    ``last`` reads ``cum[last]``, so the extended run stays sorted and the
    count is exact up to width - 1. A step is the same six whole-array
    operations on every draw (probe, clamp, gather, compare, scale, add),
    in buffers reused from step to step. ``lo`` is overwritten.
    """
    pos = lo
    probe = np.empty_like(pos)
    above = np.empty(len(u))
    below = np.empty(len(u), dtype=bool)
    for t in reversed(range((width - 1).bit_length())):
        np.add(pos, (1 << t) - 1, out=probe)
        np.minimum(probe, last, out=probe)
        cum.take(probe, out=above, mode="clip")  # probes lie in [lo, last]
        np.less_equal(above, u, out=below)
        np.multiply(below, 1 << t, out=probe)
        pos += probe
    return np.minimum(pos, last, out=pos)


def _bucket(x: np.ndarray, size: int) -> np.ndarray:
    """min(floor(x * size), size - 1) for x >= 0: nondecreasing in x."""
    b = (x * size).astype(np.int64)
    return np.minimum(b, size - 1, out=b)


class _GuideTable(NamedTuple):
    """Inverse-CDF tables of a probability vector, for ``_draw_density``.

    ``cum`` is the cumsum of the masses of the ``support``; bucket b of the
    guide table (Chen & Asau, 1974) has its run of cums at ``first[b]``
    through ``last[b]``, at most ``width`` long. ``even`` is the size of
    the support when its masses are all equal, and 0 otherwise.
    """

    support: np.ndarray
    cum: np.ndarray
    first: np.ndarray
    last: np.ndarray
    width: int
    even: int


def _guide_table(p: np.ndarray) -> _GuideTable:
    """The guide table of L = len(cum) buckets over the support of p.

    ``_bucket`` is monotone, so every cum in a lower bucket than a uniform
    u is below u and every cum in a higher one is above it: the draw is
    within u's bucket's run of cums or the first cum after it.
    """
    support = np.flatnonzero(p)
    masses = p[support]
    cum = np.cumsum(masses)
    size = len(cum)
    # first[b] counts the cums in buckets below b; bucket b's run ends at
    # the first cum past it, or at the last cum.
    first = np.searchsorted(_bucket(cum, size), np.arange(size + 1))
    last = np.minimum(first[1:], size - 1)
    width = int((last - first[:-1]).max()) + 1
    even = size if masses.min() == masses.max() else 0
    return _GuideTable(support, cum, first[:-1], last, width, even)


def _draw_density(table: _GuideTable, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from a probability vector, onto its support only.

    On a support of d equal masses, draw i is
    ``support[min(floor(u[i] d), d - 1)]``, u[i]'s bucket. Otherwise it is
    ``support[searchsorted(cum, u[i], side="right")]``, and a draw at or
    above the floating total takes the last support vertex. Only u[i]'s
    bucket's run of cums is searched, by ``_first_above``. A skewed density
    may put many cums into one bucket; the search stays logarithmic in the
    largest run.
    """
    if table.even:
        return table.support.take(_bucket(u, table.even))
    b = _bucket(u, len(table.cum))
    k = _first_above(table.cum, table.first.take(b), table.last.take(b), u, table.width)
    return table.support.take(k)


def _row_width(rows: _CumulativeRows) -> int:
    """The largest count of stored entries in a row that is searched, one
    with unequal probabilities, or 1: ``_draw_in_rows``'s width."""
    return int(np.diff(rows.indptr)[rows.even == 0].max(initial=1))


def _draw_in_rows(
    rows: _CumulativeRows, v: np.ndarray, u: np.ndarray, width: int
) -> np.ndarray:
    """One walk step for every walker: ys[i] is drawn from row v[i] with u[i].

    In a row of d = ``even[v[i]]`` equal probabilities, ys[i] is the
    column of entry min(floor(u[i] d), d - 1) of the row. In any other row,
    stored entries ``lo:hi``, it is the column of
    ``searchsorted(cum[lo:hi], u[i], side="right")``, falling back to the
    row's last stored neighbour at or above its total: ``_first_above`` on
    those walkers' rows at once, in as many fixed steps as the largest
    degree of such a row, ``width = _row_width(rows)``, needs.
    """
    d = rows.even.take(v)
    k = (u * d).astype(np.int64)
    d -= 1
    np.minimum(k, d, out=k)  # < 0 where d was 0: those walkers are searched below
    lo = rows.indptr.take(v)
    k += lo
    searched = np.flatnonzero(d < 0)
    last = rows.indptr[1:].take(v.take(searched))
    last -= 1
    k[searched] = _first_above(rows.cum, lo.take(searched), last, u.take(searched), width)
    return rows.indices.take(k)


def sample_pairs(
    s: TransitionMatrix, mu: Density, m: int, seed: int = 0
) -> WalkSample:
    """m independent walkers: start from mu, take one step of S.

    The m starts, then the m steps, take their uniforms in blocks of
    ``_WALK_CHUNK`` from one stream, the same uniforms in the same order
    as ``rng.random(m)`` twice; each block is drawn into the two int64
    outputs, so no other m-long array is held. The guide table of mu and
    the row width are built once per call. The steps search S's
    cumulative rows, built on the first draw from ``s`` and kept with it
    (see ``TransitionMatrix``).
    """
    _check_density_length(mu, s.n)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    rng = np.random.default_rng(seed)
    table, rows = _guide_table(mu.p), s._cumulative_rows
    width = _row_width(rows)
    xs, ys = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    blocks = [slice(lo, min(lo + _WALK_CHUNK, m)) for lo in range(0, m, _WALK_CHUNK)]
    for block in blocks:
        xs[block] = _draw_density(table, rng.random(block.stop - block.start))
    for block in blocks:
        ys[block] = _draw_in_rows(rows, xs[block], rng.random(block.stop - block.start), width)
    return WalkSample(xs=xs, ys=ys, mode="independent_pairs", seed=seed, n=s.n)


def sample_trajectory(
    s: TransitionMatrix, start_density: Density, m: int, seed: int = 0
) -> WalkSample:
    """One walk of m steps; consecutive positions form the (x, y) pairs.

    The walk reads flat Python lists built from S's cumulative rows (see
    ``TransitionMatrix``) on every call and freed when it returns: vertex
    v's cums and neighbours sit at [lo[v], last[v]], in CSR order. From a
    row of d = even[v] equal probabilities a step is one index,
    ``neighbours[lo[v] + int(u * d)]``, with no clamp: int(u d) <= d - 1
    for every u < 1 and d < 2^53. From any other row it is one
    ``bisect_right`` over all of row v's cums but the last, and one index:
    searchsorted's side="right" in the row, a uniform past those cums
    landing on the last neighbour, the fallback.
    """
    _check_density_length(start_density, s.n)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    rng = np.random.default_rng(seed)
    v = int(_draw_density(_guide_table(start_density.p), rng.random(1))[0])
    rows = s._cumulative_rows
    # Float objects only in the rows that are searched: a row of equal
    # probabilities is stepped by index, and its slots hold None. On an
    # unweighted graph with unit self-loops that is nearly every row.
    searched = np.repeat(rows.even == 0, np.diff(rows.indptr))
    cums = np.full(len(rows.cum), None, dtype=object)
    cums[searched] = rows.cum[searched]
    cums = cums.tolist()
    # One int object per vertex, shared by every slot that holds it.
    neighbours = np.arange(s.n).astype(object)[rows.indices].tolist()
    lo, last = rows.indptr[:-1].tolist(), (rows.indptr[1:] - 1).tolist()
    # d as a float, so that u * d multiplies two floats; the product is the same.
    even = rows.even.astype(np.float64).tolist()
    walk = np.empty(m + 1, dtype=np.int64)
    walk[0] = v
    # The uniforms come in chunks, one stream as from rng.random(m), so no
    # list of all m draws or positions is ever held.
    for start in range(1, m + 1, _WALK_CHUNK):
        us = rng.random(min(_WALK_CHUNK, m + 1 - start)).tolist()
        walk[start : start + len(us)] = [
            v := neighbours[lo[v] + int(u * d)] if (d := even[v])
            else neighbours[bisect_right(cums, u, lo[v], last[v])]
            for u in us
        ]
    return WalkSample(
        xs=walk[:-1], ys=walk[1:], mode="single_trajectory", seed=seed, n=s.n
    )


def empirical_grams(sample: WalkSample, basis: Basis) -> EmpiricalGrams:
    """Empirical covariance matrices of the basis evaluated on the walk.

    Read off the class pair counts of an indicator basis, counted in
    blocks of ``_WALK_CHUNK`` pairs or, when the (r + 1)^2 count table is
    larger, of as many pairs as it has cells, in O(r^2) memory; any other
    basis counts per vertex, in O(m + r n). See the module docstring.
    """
    if sample.m == 0:
        raise EmptySampleError("cannot estimate from an empty sample")
    n, m = basis.n, sample.m
    xs, ys = np.asarray(sample.xs), np.asarray(sample.ys)
    _check_vertices(xs, n, "walk vertex")
    _check_vertices(ys, n, "walk vertex")
    if basis.classes is None:
        import scipy.sparse as sp

        phi, counts = basis.phi_v, sp.csr_matrix((np.ones(m), (xs, ys)), shape=(n, n))
        return EmpiricalGrams(
            gxx=(phi * (counts @ np.ones(n))) @ phi.T / m,
            gyy=(phi * (counts.T @ np.ones(n))) @ phi.T / m,
            gxy=phi @ (counts @ phi.T) / m,
            m=m,
        )
    classes, k = basis.classes, basis.r + 1
    counts = np.zeros((k, k), dtype=np.int64)  # the last row and column: vertices in no set
    block = max(_WALK_CHUNK, k * k)  # each bincount spans no fewer pairs than it has bins
    for lo in range(0, m, block):
        keys = classes.take(xs[lo : lo + block])
        keys *= k
        keys += classes.take(ys[lo : lo + block])
        counts += np.bincount(keys, minlength=k * k).reshape(k, k)
    del keys
    out_visits, in_visits = counts.sum(1)[:-1], counts.sum(0)[:-1]
    gxy = counts[:-1, :-1] / m
    del counts  # so that the table and the three Grams are never held at once
    return EmpiricalGrams(gxx=np.diag(out_visits / m), gyy=np.diag(in_visits / m), gxy=gxy, m=m)


def estimated_operators(
    grams: EmpiricalGrams, ridge: float | None = None
) -> EstimatedOperators:
    """Reduced transfer operators from empirical covariance matrices.

    ``ridge`` is added to the diagonals before inversion; the default
    1e-10 * trace(Gxx)/r keeps Grams with never-visited basis sets
    invertible without distorting well-conditioned ones.
    """
    r = grams.gxx.shape[0]
    if not r:
        raise EmptyMatrixError("the Grams are 0 x 0: the basis has no functions")
    if ridge is None:
        ridge = 1e-10 * np.trace(grams.gxx) / r
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
    eye = ridge * np.eye(r)
    try:
        k = np.linalg.solve(grams.gxx + eye, grams.gxy)
        t = np.linalg.solve(grams.gyy + eye, grams.gxy.T)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(f"Gram matrix not invertible: {exc}") from exc
    return EstimatedOperators(k=k, t=t, f=k @ t, b=t @ k)


def write_walks(sample: WalkSample, path: str | Path) -> None:
    """Walk-pair CSV: header records mode, seed and n (when known), then one x,y per line."""
    columns = (np.asarray(v, dtype=np.int64) for v in (sample.xs, sample.ys))
    header = f"# mode={sample.mode} seed={sample.seed}"
    if sample.n is not None:
        header += f" n={sample.n}"
    _write_rows(path, columns, head=[header, "x,y"])


def _walk_mode(value: str) -> str:
    if value not in _SAMPLE_MODES:
        raise LookupError(
            f"unknown walk mode '{value}', expected one of " + ", ".join(_SAMPLE_MODES)
        )
    return value


def read_walks(path: str | Path) -> WalkSample:
    """Walk-pair CSV; a bad header value or a vertex outside [0, n) raises ParseError.

    n comes from 'n=' in the header; without it only negative vertices are rejected.
    """
    rows = _read_rows(path, (np.int64, np.int64), sep=",", header="x,y", shape="expected 'x,y'")
    values, fault = _header_values(rows.comments, {"mode": _walk_mode, "seed": int, "n": _vertex_count})
    xs, ys = rows.columns
    rows.check(fault, _vertex_fault(rows, (xs, ys), values.get("n")))
    return WalkSample(
        xs=xs, ys=ys, mode=values.get("mode", "independent_pairs"), seed=values.get("seed", 0),
        n=values.get("n"),
    )
