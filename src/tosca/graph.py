"""Weighted directed graphs, degrees, transition matrices, and file I/O.

Graphs are stored as sparse edge lists and are immutable after
construction; dense matrices are only materialized downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    DanglingVertexError,
    EmptyMatrixError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonPositiveWeightError,
    ParseError,
)

# scipy is imported where it is used, so that processes which only
# sample, read, write or score graphs load numpy alone.
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Graph",
    "DegreeInfo",
    "TransitionMatrix",
    "from_edge_list",
    "add_self_loops",
    "transition_matrix",
    "lazy_chain",
    "degree_info",
    "read_matrix_market",
    "write_matrix_market",
    "read_edge_list",
    "write_edge_list",
    "reorder_by_cluster",
]


@dataclass(frozen=True)
class Graph:
    """Weighted directed graph on vertices 0..n-1.

    Edges are unique per ordered (src, dst) pair with weight > 0; for
    undirected graphs the edge set is symmetric with bitwise-equal
    weights in both directions.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    directed: bool = True

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.weight, (self.src, self.dst)), shape=(self.n, self.n)
        )

    def edge_multiset(self) -> dict[tuple[int, int], float]:
        return {
            (int(s), int(d)): float(w)
            for s, d, w in zip(self.src, self.dst, self.weight)
        }


@dataclass(frozen=True)
class DegreeInfo:
    """Row sums (out) and column sums (in) of the adjacency matrix."""

    out_degrees: np.ndarray
    in_degrees: np.ndarray


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix of one-step walk probabilities."""

    s: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.s.shape[0]

    def dense(self) -> np.ndarray:
        return self.s.toarray()


def _validate_triples(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray):
    if len(src) == 0:
        return
    if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
        bad = int(src[(src < 0) | (src >= n)][0]) if ((src < 0) | (src >= n)).any() else int(
            dst[(dst < 0) | (dst >= n)][0]
        )
        raise IndexOutOfRangeError(f"vertex index {bad} outside [0, {n})")
    if (weight <= 0.0).any():
        i = int(np.argmax(weight <= 0.0))
        raise NonPositiveWeightError(
            f"edge ({int(src[i])}, {int(dst[i])}) has non-positive weight {weight[i]}"
        )


def _aggregate(src: np.ndarray, dst: np.ndarray, weight: np.ndarray, n: int):
    """Sum duplicate (src, dst) pairs; output sorted by (src, dst)."""
    if len(src) == 0:
        return src, dst, weight
    key = src.astype(np.int64) * n + dst.astype(np.int64)
    order = np.argsort(key, kind="stable")
    key, weight = key[order], weight[order]
    uniq, start = np.unique(key, return_index=True)
    summed = np.add.reduceat(weight, start)
    return (uniq // n).astype(np.int64), (uniq % n).astype(np.int64), summed


def from_edge_list(
    n: int,
    triples: Iterable[tuple[int, int, float]],
    directed: bool = True,
) -> Graph:
    """Build a graph from (src, dst, weight) triples.

    Duplicate pairs are summed. For undirected graphs each edge is
    materialized in both directions with identical accumulated weight.
    """
    triples = list(triples)
    if triples:
        arr = np.asarray(triples, dtype=np.float64).reshape(len(triples), 3)
        src = arr[:, 0].astype(np.int64)
        dst = arr[:, 1].astype(np.int64)
        weight = arr[:, 2]
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        weight = np.empty(0, dtype=np.float64)
    return _from_arrays(n, src, dst, weight, directed)


def _from_arrays(
    n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray, directed: bool
) -> Graph:
    """``from_edge_list`` on int64 ``src``/``dst`` and float64 ``weight``."""
    if n < 0:
        raise IndexOutOfRangeError(f"vertex count {n} is negative")
    _validate_triples(n, src, dst, weight)
    if not directed:
        # Accumulate on the unordered pair so both directions get the
        # bitwise-identical sum, then mirror the off-diagonal part.
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        lo, hi, weight = _aggregate(lo, hi, weight, n)
        off = lo != hi
        src = np.concatenate([lo, hi[off]])
        dst = np.concatenate([hi, lo[off]])
        weight = np.concatenate([weight, weight[off]])
    src, dst, weight = _aggregate(src, dst, weight, n)
    return Graph(n=n, src=src, dst=dst, weight=weight, directed=directed)


def add_self_loops(g: Graph, w: float = 1.0) -> Graph:
    """Return a copy of ``g`` with ``w`` added to every diagonal entry."""
    if w <= 0.0:
        raise NonPositiveWeightError(f"self-loop weight must be positive, got {w}")
    loops = np.arange(g.n, dtype=np.int64)
    src = np.concatenate([g.src, loops])
    dst = np.concatenate([g.dst, loops])
    weight = np.concatenate([g.weight, np.full(g.n, float(w))])
    src, dst, weight = _aggregate(src, dst, weight, g.n)
    return Graph(n=g.n, src=src, dst=dst, weight=weight, directed=g.directed)


def degree_info(g: Graph) -> DegreeInfo:
    out = np.zeros(g.n)
    np.add.at(out, g.src, g.weight)
    inn = np.zeros(g.n)
    np.add.at(inn, g.dst, g.weight)
    return DegreeInfo(out_degrees=out, in_degrees=inn)


def transition_matrix(g: Graph) -> TransitionMatrix:
    """Row-normalize the adjacency matrix to one-step walk probabilities."""
    deg = degree_info(g)
    zero = deg.out_degrees == 0.0
    if zero.any():
        raise DanglingVertexError(int(np.argmax(zero)))
    import scipy.sparse as sp

    data = g.weight / deg.out_degrees[g.src]
    s = sp.csr_matrix((data, (g.src, g.dst)), shape=(g.n, g.n))
    return TransitionMatrix(s=s)


def lazy_chain(s: TransitionMatrix) -> TransitionMatrix:
    """Mix the walk with staying put: (S + I) / 2."""
    import scipy.sparse as sp

    lazy = (s.s + sp.identity(s.n, format="csr")) * 0.5
    return TransitionMatrix(s=sp.csr_matrix(lazy))


def _shift_weights(values: np.ndarray) -> np.ndarray:
    """Shift stored entries to positive when any entry is <= 0."""
    if len(values) == 0 or values.min() > 0.0:
        return values
    delta = 1e-3 * (values.max() - values.min())
    return values + (-values.min() + delta)


def _read_numeric_rows(path: str | Path, delimiter: str | None = None) -> np.ndarray:
    """Rows of numbers, one row per line, as a (rows, columns) float array.

    Text after '#' and blank lines are skipped; ``delimiter=None`` splits
    on whitespace. An entry that is not a number, or a row whose length
    differs from the first row's, raises ParseError with its line. A file
    without rows gives shape (0, 1), as ``np.loadtxt(..., ndmin=2)`` does.
    """
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                row = [float(field) for field in stripped.split(delimiter)]
            except ValueError:
                raise ParseError(f"cannot parse numbers in '{stripped}'", lineno)
            if rows and len(row) != len(rows[0]):
                raise ParseError(
                    f"expected {len(rows[0])} values like the first row, found {len(row)}",
                    lineno,
                )
            rows.append(row)
    return np.array(rows, dtype=np.float64) if rows else np.empty((0, 1))


def read_matrix_market(path: str | Path) -> Graph:
    """Read a Matrix Market coordinate file as a weighted graph.

    Non-positive stored entries are shifted by (-min + 1e-3*(max - min));
    the sparsity pattern is preserved. Symmetric files are expanded to
    both directions and yield an undirected graph.
    """
    path = Path(path)
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", 1)
    header = lines[0].strip().lower().split()
    if len(header) < 5 or header[0] != "%%matrixmarket":
        raise ParseError("expected '%%MatrixMarket matrix coordinate ...' header", 1)
    if header[1] != "matrix" or header[2] != "coordinate":
        raise ParseError(f"unsupported object/format '{header[1]} {header[2]}'", 1)
    if header[3] not in ("real", "integer"):
        raise ParseError(f"unsupported field '{header[3]}'", 1)
    symmetric = header[4] == "symmetric"
    if header[4] not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry '{header[4]}'", 1)

    size_line = None
    entries_start = None
    for idx in range(1, len(lines)):
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = (stripped, idx + 1)
        entries_start = idx + 1
        break
    if size_line is None:
        raise ParseError("missing size line", len(lines))
    parts = size_line[0].split()
    if len(parts) != 3:
        raise ParseError("size line must be 'rows cols nnz'", size_line[1])
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError("size line must contain three integers", size_line[1])
    if rows != cols:
        raise ParseError(f"matrix must be square, got {rows}x{cols}", size_line[1])
    if rows == 0 or nnz == 0:
        raise EmptyMatrixError(f"{path} holds an empty matrix")

    entries = _load_entries(lines[entries_start:], rows, nnz)
    if entries is None:
        entries = _parse_entry_lines(lines, entries_start, rows, nnz)
    src, dst, val = entries
    return _from_arrays(rows, src, dst, _shift_weights(val), directed=not symmetric)


_MM_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _load_entries(lines: list[str], rows: int, nnz: int):
    """The entry block as 0-based (src, dst, value) from one ``np.loadtxt``.

    Returns None when the block is not exactly ``nnz`` well-formed
    entries with indices in 1..rows; ``_parse_entry_lines`` then decides,
    so both accept the same files. Comments are off, so a '%' line among
    the entries also goes to the line parser, which skips it.
    """
    try:
        with warnings.catch_warnings():
            # an empty block warns; any warning means "let the line parser decide"
            warnings.simplefilter("error")
            entries = np.loadtxt(lines, dtype=_MM_ENTRY, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    i, j = entries["row"], entries["col"]
    if len(entries) != nnz or min(i.min(), j.min()) < 1 or max(i.max(), j.max()) > rows:
        return None
    return i - 1, j - 1, np.ascontiguousarray(entries["value"])


def _parse_entry_lines(lines: list[str], start: int, rows: int, nnz: int):
    """Line-by-line parse of the entry block from ``lines[start]`` on.

    Blank and '%' lines are skipped. Raises ParseError naming the first
    bad line: a field count other than 3, an index that is not an
    integer or lies outside 1..rows, a value that is not a number, or
    more or fewer than ``nnz`` entries.
    """
    src = np.empty(nnz, dtype=np.int64)
    dst = np.empty(nnz, dtype=np.int64)
    val = np.empty(nnz, dtype=np.float64)
    count = 0
    for idx in range(start, len(lines)):
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError("entry must be 'row col value'", idx + 1)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"cannot parse entry '{stripped}'", idx + 1)
        if count >= nnz:
            raise ParseError(f"more than {nnz} entries", idx + 1)
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise ParseError(f"index ({i}, {j}) outside 1..{rows}", idx + 1)
        src[count], dst[count], val[count] = i - 1, j - 1, v
        count += 1
    if count != nnz:
        raise ParseError(f"expected {nnz} entries, found {count}", len(lines))
    return src, dst, val


def _format_edges(first: np.ndarray, second: np.ndarray, weight: np.ndarray, sep: str) -> str:
    """One 'first<sep>second<sep>weight' line per edge, weights as '%.17g'.

    Each distinct weight is formatted once.
    """
    values, inverse = np.unique(weight, return_inverse=True)
    text = np.array([f"{w:.17g}" for w in values.tolist()], dtype=object)[inverse]
    return "".join(
        f"{s}{sep}{d}{sep}{w}\n"
        for s, d, w in zip(first.tolist(), second.tolist(), text.tolist())
    )


def write_matrix_market(
    g: Graph, path: str | Path, comments: Sequence[str] = ()
) -> None:
    """Write a graph as a Matrix Market coordinate real general file."""
    header = "%%MatrixMarket matrix coordinate real general\n"
    header += "".join(f"% {c}\n" for c in comments)
    header += f"{g.n} {g.n} {g.num_edges}\n"
    with open(path, "w") as fh:
        fh.write(header + _format_edges(g.src + 1, g.dst + 1, g.weight, " "))


def read_edge_list(path: str | Path, n: int | None = None, directed: bool = True) -> Graph:
    """Read a TSV edge list (src, dst, weight per line, 0-based).

    Comment lines starting with '#' are skipped; a '# n=<count>' header
    fixes the vertex count (otherwise max index + 1 is used).
    """
    triples = []
    header_n = None
    header_directed = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                for token in stripped[1:].split():
                    if token.startswith("n="):
                        header_n = int(token[2:])
                    elif token.startswith("directed="):
                        header_directed = bool(int(token[9:]))
                continue
            parts = stripped.split("\t")
            if len(parts) != 3:
                raise ParseError("expected 'src<TAB>dst<TAB>weight'", lineno)
            try:
                triples.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise ParseError(f"cannot parse entry '{stripped}'", lineno)
    if n is None:
        n = header_n
    if n is None:
        n = 1 + max((max(s, d) for s, d, _ in triples), default=-1)
    if header_directed is not None:
        directed = header_directed
    return from_edge_list(n, triples, directed=directed)


def write_edge_list(g: Graph, path: str | Path, comments: Sequence[str] = ()) -> None:
    header = f"# n={g.n} directed={int(g.directed)}\n"
    header += "".join(f"# {c}\n" for c in comments)
    with open(path, "w") as fh:
        fh.write(header + _format_edges(g.src, g.dst, g.weight, "\t"))


def reorder_by_cluster(g: Graph, labels: Sequence[int]) -> tuple[Graph, np.ndarray]:
    """Permute vertices so cluster labels are nondecreasing (stable).

    Returns the permuted graph and the permutation mapping
    new index -> old index.
    """
    labels = np.asarray(labels)
    if len(labels) != g.n:
        raise LengthMismatchError(
            f"got {len(labels)} labels for {g.n} vertices"
        )
    perm = np.argsort(labels, kind="stable")
    inverse = np.empty(g.n, dtype=np.int64)
    inverse[perm] = np.arange(g.n)
    src, dst, weight = _aggregate(inverse[g.src], inverse[g.dst], g.weight.copy(), g.n)
    return Graph(n=g.n, src=src, dst=dst, weight=weight, directed=g.directed), perm
