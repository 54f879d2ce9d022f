"""Weighted directed graphs, degrees, transition matrices, and file I/O.

Graphs are stored as sparse edge lists and are immutable after
construction; dense matrices are only materialized downstream.
"""

from __future__ import annotations

import lzma
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DanglingVertexError,
    EmptyMatrixError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonPositiveWeightError,
    ParseError,
    ToscaError,
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
    weights in both directions. Every constructor of this module, and the
    DSBM sampler, yields the edges sorted by (src, dst), with int64 ``src``
    and ``dst``.
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


class _CumulativeRows(NamedTuple):
    """Per-row cumulative transition probabilities in CSR layout.

    ``cum[indptr[v]:indptr[v + 1]]`` is the sequential cumsum of row v's
    stored probabilities in column order, and ``indices`` holds their
    columns. Adding the unstored zeros changes no partial sum, so these
    are the values of the dense row cumsum at the stored columns, bit for
    bit. ``even[v]`` is row v's count of stored entries when they all hold
    the same positive probability, and 0 otherwise: such a row is drawn
    from by its entry index, with no search over its cums.
    """

    indptr: np.ndarray
    indices: np.ndarray
    cum: np.ndarray
    even: np.ndarray


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix of one-step walk probabilities.

    The CSR cumulative rows that both walk samplers search are built from
    ``s`` on the first draw and kept for the life of this object: ``nnz``
    floats, ``n + 1`` int64 row starts and ``n`` int64 counts of the rows
    with equal probabilities, the columns being ``s``'s own. Beside the
    2.0 MiB of ``s`` at n = 8000 with 168k stored entries they hold
    1.4 MiB; beside the 27 MiB of ``s`` at n = 10^5 with 2.3M entries,
    19 MiB. A row with no stored entry, or whose stored entries are all
    <= 0, raises ``DanglingVertexError`` when they are built. ``s`` is not
    to be changed in place.
    """

    s: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.s.shape[0]

    def dense(self) -> np.ndarray:
        return self.s.toarray()

    @cached_property
    def _cumulative_rows(self) -> _CumulativeRows:
        csr = self.s
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        indptr = csr.indptr.astype(np.int64)
        degree = np.diff(indptr)
        if (degree == 0).any():
            raise DanglingVertexError(int(np.argmax(degree == 0)))
        cum = csr.data.astype(np.float64)  # a copy: the cumsum runs in place
        # A row whose largest entry is <= 0 has no step to take. A row is even
        # when its least and largest entries are equal and > 0 (a nan makes
        # both nan).
        largest = np.maximum.reduceat(cum, indptr[:-1])
        if (largest <= 0.0).any():
            raise DanglingVertexError(int(np.argmax(largest <= 0.0)))
        least = np.minimum.reduceat(cum, indptr[:-1])
        even = np.where((least == largest) & (least > 0.0), degree, 0)
        # Position j of every row with more than j entries in one vectorised
        # step: O(nnz) work in max-degree steps, with no padding to max degree.
        order = np.argsort(degree, kind="stable")
        degree, starts = degree[order], indptr[:-1][order]
        for j in range(1, int(degree[-1]) if len(degree) else 0):
            pos = starts[np.searchsorted(degree, j, side="right") :] + j
            cum[pos] += cum[pos - 1]
        return _CumulativeRows(indptr=indptr, indices=csr.indices, cum=cum, even=even)


def _check_vertices(vertices: np.ndarray, n: int, what: str = "vertex index") -> None:
    """Raise IndexOutOfRangeError naming the first of ``vertices`` outside [0, n).

    Integer-valued float vertices are named as integers below 2^53 in size
    (5.0 as 5) and as floats beyond (1e+300).
    """
    if len(vertices) and not 0 <= vertices.min() <= vertices.max() < n:
        bad = vertices[(vertices < 0) | (vertices >= n)][0]
        if -(2**53) < bad < 2**53:
            bad = int(bad)
        raise IndexOutOfRangeError(f"{what} {bad} outside [0, {n})")


def _non_integer(values: np.ndarray) -> np.ndarray:
    """Where a vertex value is no integer: a fraction, nan or +-inf (2.0 is vertex 2).

    ``values`` is a numeric array; integer and boolean values always pass.
    """
    return ~np.isfinite(values) | (np.floor(values) != values)


def _not_an_integer(vertex) -> ToscaError:
    return ToscaError(f"vertex {vertex} is not an integer")


def _validate_triples(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray):
    _check_vertices(src, n)
    _check_vertices(dst, n)
    bad = ~((weight > 0.0) & (weight < np.inf))  # nan fails both
    if bad.any():
        i = int(np.argmax(bad))
        raise NonPositiveWeightError(
            f"edge ({int(src[i])}, {int(dst[i])}) has weight {weight[i]}; "
            "weights must be positive and finite"
        )


def _aggregate(src: np.ndarray, dst: np.ndarray, weight: np.ndarray, n: int):
    """Sum duplicate (src, dst) pairs; int64 output sorted by (src, dst).

    ``src`` and ``dst`` are int64 or integer-valued float64 columns in
    [0, n); they are read, not copied, into one int64 key ``src * n + dst``.
    One stable argsort of the key gathers the key, then the weights, and is
    freed; the inputs are never written. One compare of neighbouring keys
    into a bool buffer marks the first key of each run, and src and dst are
    decoded from the runs' keys. Without duplicates the sorted key and the
    gathered weights become the output. Beside the input, at most three
    m-long arrays are held while ordering (the order and two of the keys
    and weights) and four while summing (with the run starts and sums).

    Each pair's weights are summed by ``np.add.reduceat`` in their input
    order, which is not strictly left to right: [1e16, 1, 1] sums to 1e16 + 2.
    """
    if len(src) == 0:
        return src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False), weight
    key = np.multiply(src, n, dtype=np.int64, casting="unsafe")
    np.add(key, dst, out=key, dtype=np.int64, casting="unsafe")
    order = np.argsort(key, kind="stable")
    key = key[order]
    weight = weight[order]
    del order
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if not first.all():
        start = np.flatnonzero(first)
        weight = np.add.reduceat(weight, start)
        key = key[start]
        del start
    del first
    dst = key % n
    key //= n
    return key, dst, weight


_BLOCK = 1 << 16  # rows checked, or formatted and written, at a time

# One edge row as a numpy record: the (m,) array of records is the
# (m, 3) float64 array of the rows.
_TRIPLE = np.dtype([("src", np.float64), ("dst", np.float64), ("weight", np.float64)])


def _three_values(rows: Iterable, stop: list[tuple[int, tuple]]) -> Iterator[tuple]:
    """Each row as a tuple, up to the first row that is not three values.

    That row ends the rows, and its index and values go to ``stop``, as do
    those of the row being read if the reader closes the rows. A row that
    is not a sequence counts as one value, and so does a string, which
    "012" would otherwise make (0, 1, 2.0). No reference to a row is kept
    past its ``yield``, so a ``zip`` of columns refills one tuple for every
    row instead of allocating m of them (the tuple of a tuple is itself).
    """
    for index, row in enumerate(rows):
        try:
            values = (row,) if isinstance(row, (str, bytes)) else tuple(row)
        except TypeError:
            values = (row,)
        if len(values) != 3:
            stop.append((index, values))
            return
        try:
            yield values
        except GeneratorExit:
            stop.append((index, values))
            raise
        del row, values


def _first_non_number(values: Iterable) -> tuple[int, object, bool] | None:
    """The index and value of the first of ``values`` that ``float`` rejects ("x", None, [1, 2], 10**400),
    if any, and whether it is a number beyond float's range."""
    for index, value in enumerate(values):
        try:
            float(value)
        except OverflowError:
            return index, value, True
        except (TypeError, ValueError):
            return index, value, False
    return None


def from_edge_list(
    n: int,
    triples: Iterable[tuple[int, int, float]],
    directed: bool = True,
) -> Graph:
    """Build a graph from (src, dst, weight) triples.

    The rows may come as tuples, lists, numpy rows or scalars, from a
    list, a generator, a ``zip`` or a 2-D array; they are read in one pass
    into an (m, 3) float64 array, holding no list of rows. Duplicate pairs
    are summed. For undirected graphs each edge is materialized in both
    directions with identical accumulated weight. Errors, in this order:

    - a row that is not three values, or a value that is no number ("x",
      [1, 2]), raises ToscaError naming the row's index and its length or
      value; None reads as nan, but is named in a row with such a value;
    - vertices are integer values: 2.0 is vertex 2, and the first of 0.5,
      nan or inf in row order, src before dst, raises ToscaError;
    - a negative ``n``, or a vertex outside [0, n) (named as given, 1e+300
      too), raises IndexOutOfRangeError; all src are checked before dst;
    - a weight that is not positive and finite raises NonPositiveWeightError;
      10**400 raises as soon as its row is read, as a vertex out of range or a non-finite weight.
    """
    stop: list[tuple[int, tuple]] = []
    rows = _three_values(triples, stop)
    try:
        arr = np.fromiter(rows, dtype=_TRIPLE)
    except (TypeError, ValueError, OverflowError):  # on a value that is no number, "x", or 10**400
        rows.close()  # hands the row being read to stop
        index, values = stop[0] if stop else (0, ())
        if (bad := _first_non_number(values)) is None:  # the rows raised
            raise
        column, value, huge = bad
        if huge and column < 2:
            raise IndexOutOfRangeError(f"vertex index {value} outside [0, {n})") from None
        if huge:
            raise NonPositiveWeightError(f"edge ({values[0]}, {values[1]}) has weight {value}; weights must be "
                                         "positive and finite") from None
        raise ToscaError(f"edge row {index} has {_TRIPLE.names[column]} {value!r}, not a number") from None
    if stop:
        index, values = stop[0]
        s = "" if len(values) == 1 else "s"
        raise ToscaError(
            f"edge row {index} has {len(values)} value{s}, not a (src, dst, weight) triple"
        )
    arr = arr.view(np.float64).reshape(-1, 3)
    for lo in range(0, len(arr), _BLOCK):
        ends = arr[lo : lo + _BLOCK, :2]
        bad = _non_integer(ends)
        if bad.any():  # the first in row order, src before dst
            raise _not_an_integer(ends[np.unravel_index(np.argmax(bad), bad.shape)])
    return _from_arrays(n, arr[:, 0], arr[:, 1], arr[:, 2], directed)


def _from_arrays(
    n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray, directed: bool
) -> Graph:
    """``from_edge_list`` on integer-valued ``src``/``dst`` (int64, or float64,
    which ``_aggregate`` casts as it forms its key) and float64 ``weight``."""
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
    if not 0.0 < w < np.inf:
        raise NonPositiveWeightError(f"self-loop weight must be positive and finite, got {w}")
    loops = np.arange(g.n, dtype=np.int64)
    src = np.concatenate([g.src, loops])
    dst = np.concatenate([g.dst, loops])
    weight = np.concatenate([g.weight, np.full(g.n, float(w))])
    src, dst, weight = _aggregate(src, dst, weight, g.n)
    return Graph(n=g.n, src=src, dst=dst, weight=weight, directed=g.directed)


def degree_info(g: Graph) -> DegreeInfo:
    # bincount sums in input order like np.add.at; float64 also without edges
    out = np.bincount(g.src, g.weight, minlength=g.n).astype(np.float64, copy=False)
    inn = np.bincount(g.dst, g.weight, minlength=g.n).astype(np.float64, copy=False)
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
    if values.min() == values.max():
        raise NonPositiveWeightError(
            f"all {len(values)} stored values equal {values[0]} <= 0, so the shift "
            "-min + 1e-3 * (max - min) cannot make them positive"
        )
    delta = 1e-3 * (values.max() - values.min())
    return values + (-values.min() + delta)


class _Rows(NamedTuple):
    """A text table, read up to its first malformed line (its ``fault``).

    Its rows are the first lines from line ``first`` on that ``text_of`` keeps.
    Only faults name lines, so ``lines`` and ``line_count`` read the file when asked.
    """

    columns: list[np.ndarray]  # one array per column
    comments: list[tuple[int, str]]  # (line, text after the mark) per comment line before the first row
    fault: ParseError | None
    path: str | Path
    first: int  # the line of the first row
    text_of: Callable[[str], str]  # a line's row text: "" for a blank, header or comment line

    @property
    def lines(self) -> list[int]:  # the 1-based line of each row
        with open(self.path) as fh:
            kept = (number for number, line in enumerate(fh, 1) if number >= self.first and self.text_of(line))
            return list(islice(kept, len(self.columns[0]) if self.columns else 0))

    @property
    def line_count(self) -> int:  # the lines in the file
        with open(self.path) as fh:
            return sum(1 for _ in fh)

    def fault_at(self, bad: np.ndarray, message: Callable[[int], str]) -> ParseError | None:
        """A ParseError at the first row flagged in ``bad``, worded by ``message(row)``."""
        if not bad.any():
            return None
        k = int(np.argmax(bad))
        return ParseError(message(k), self.lines[k])

    def check(self, *faults: ParseError | None) -> None:
        """Raise the earliest of ``faults`` and the table's fault; ties go to the first."""
        found = [fault for fault in (*faults, self.fault) if fault is not None]
        if found:
            raise min(found, key=lambda fault: fault.line)

    def table(self) -> np.ndarray:
        """The rows as one (rows, columns) array, (0, 1) without rows."""
        self.check()
        return np.column_stack(self.columns) if self.columns else np.empty((0, 1))


def _read_rows(
    path: str | Path,
    types: tuple[type, ...] | type,
    sep: str | None = None,
    comment: str = "#",
    header: str | None = None,
    start: int = 0,
    shape: str = "expected {width} values like the first row, found {found}",
    entry: str = "cannot parse entry '{text}'",
) -> _Rows:
    """Rows of ``sep``-separated fields (None: whitespace) from a file.

    The file's first ``start`` lines are passed over. ``types`` holds each
    column's numpy type; one type reads as many columns as the first row
    has. The text from ``comment`` to the end of a line is a comment, and
    lines left blank by that cut and ``header`` lines are skipped. The first
    other line that is no row of the types is the fault, worded by
    ``shape`` (field count) or ``entry``.

    The lines before the first row are read one at a time; that row and
    the rest of the file go to one ``np.loadtxt`` call (``_load_rows``),
    which reads them from the path with numpy's chunked reader. Its rows
    are taken as they come: the lines it skips are blank after the cut.
    When it rejects the block, a line parser reads on from that row and
    stops at the first fault, to the same arrays. Neither path holds the
    file's lines or numbers the rows; ``_Rows.lines`` does when a fault asks.
    """

    def text_of(line: str) -> str:  # the skip rule, by which _Rows numbers the rows
        text = line.split(comment, 1)[0].strip()
        return "" if text == header else text

    with open(path) as fh:
        rows, comments = [], []  # as in _Rows; rows as lists of values
        fault, first = None, 0  # ``first``: the line of the first row, 0 before it
        for number, line in enumerate(islice(fh, start, None), start + 1):
            text = text_of(line)
            if not text:
                if not first and (stripped := line.strip()).startswith(comment):
                    comments.append((number, stripped[len(comment):]))
                continue
            fields = text.split(sep)
            if not first:
                first = number
                types = types if isinstance(types, tuple) else (types,) * len(fields)
                columns = _load_rows(path, number - 1, types, sep, comment)
                if columns is not None:
                    return _Rows(columns, comments, None, path, first, text_of)
            if len(fields) != len(types):
                fault = ParseError(shape.format(width=len(types), found=len(fields)), number)
                break
            try:
                rows.append([t(f) for t, f in zip(types, fields)])
            except (ValueError, OverflowError):
                fault = ParseError(entry.format(text=text), number)
                break
    types = types if isinstance(types, tuple) else ()  # a one-type table without rows has no columns
    columns = [np.array([row[c] for row in rows], dtype=t) for c, t in enumerate(types)]
    return _Rows(columns, comments, fault, path, first, text_of)


def _load_rows(
    path: str | Path, skip: int, types: tuple[type, ...], sep: str | None, comment: str
) -> list[np.ndarray] | None:
    """``_read_rows``' columns for the lines of the file at ``path`` after
    its first ``skip``, from one ``np.loadtxt`` that cuts lines at ``comment``.

    None when ``np.loadtxt`` rejects the lines, such as a header line
    among them. Every line it skips is one that ``str.strip`` leaves
    empty after the cut, which the line parser skips too. numpy opens
    names ending in .gz, .bz2 or .xz as compressed files; on a plain file
    that fails, and the line parser reads it.
    """
    dtype = np.dtype([(f"c{i}", t) for i, t in enumerate(types)])
    try:
        with warnings.catch_warnings():
            # an empty block warns; any warning means "let the line parser decide"
            warnings.simplefilter("error")
            table = np.loadtxt(  # a Path, as numpy fetches a name that parses as a URL
                Path(path), dtype=dtype, delimiter=sep, comments=comment, skiprows=skip, ndmin=1
            )
    except (ValueError, OSError, EOFError, lzma.LZMAError, Warning):
        return None
    return [np.ascontiguousarray(table[name]) for name in dtype.names]


def _write_rows(
    path: str | Path, columns: Iterable[np.ndarray], sep: str = ",", head: Sequence[str] = ()
) -> None:
    """Write the ``head`` lines, then one ``sep``-separated row per index of ``columns``.

    Integer columns are written in decimal, float columns as '%.17g', which
    ``_read_rows`` reads back bit for bit. Each distinct value is formatted
    once, keyed by its bits, so -0.0, 0.0 and nan keep their own text;
    integers by numpy's cast to bytes, which writes ``str``'s digits with no
    Python object per value. An integer column whose values span a range no
    longer than the column is formatted from that whole range, each value
    found at its offset from the least, with no sort; any other column from
    its distinct values. The rows are bytes, not strings: per block of
    rows, every column's texts are gathered from a NUL-padded ``S`` table
    into one uint8 array, one row per line, with ``sep`` and newline bytes
    between the fields, and one mask drops the padding.
    """
    tables, inverses = [], []
    for column in map(np.asarray, columns):
        floats = column.dtype.kind == "f"
        column = column.astype(np.float64 if floats else np.int64, copy=False)
        if floats or not len(column) or int(column.max()) - int(column.min()) >= len(column):
            keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
        else:
            keys = np.arange(int(column.min()), int(column.max()) + 1, dtype=np.int64)
            inverse = column - keys[0]
        if floats:
            table = np.array(list(map("{:.17g}".format, keys.view(np.float64).tolist())), dtype=bytes)
        else:  # numpy's cast writes str's digits, with no Python object per value
            table = keys.astype(f"S{max(len(str(v)) for v in keys[[0, -1]].tolist())}" if len(keys) else "S1")
        tables.append(table.view(np.uint8).reshape(len(table), table.itemsize))
        inverses.append(inverse)
    rows = min(map(len, inverses), default=0)
    # each field's bytes are followed by one byte: sep, or the newline after the last
    ends = np.cumsum([table.shape[1] + 1 for table in tables])
    with open(path, "w") as fh:
        fh.write("".join(f"{line}\n" for line in head))
        for lo in range(0, rows, _BLOCK):
            block = np.empty((min(_BLOCK, rows - lo), ends[-1]), dtype=np.uint8)
            block[:, ends - 1] = ord(sep)
            block[:, -1] = ord("\n")
            for table, inverse, end in zip(tables, inverses, ends):
                field = block[:, end - 1 - table.shape[1] : end - 1]
                table.take(inverse[lo : lo + len(block)], axis=0, out=field)
            fh.write(block[block != 0].tobytes().decode("ascii"))


def _vertex_fault(rows: _Rows, columns: Sequence[np.ndarray], n: int | None) -> ParseError | None:
    """The first row naming a negative vertex, or with ``n`` a vertex >= n."""
    bad = [(v < 0) | (v >= n) if n is not None else v < 0 for v in columns]

    def message(k: int) -> str:
        v = next(int(column[k]) for column, flags in zip(columns, bad) if flags[k])
        return f"negative vertex {v}" if v < 0 else f"vertex {v} outside [0, {n})"

    return rows.fault_at(np.logical_or.reduce(bad), message)


def _weight_fault(rows: _Rows, weight: np.ndarray) -> ParseError | None:
    """The first row whose weight is nan or infinite."""
    return rows.fault_at(~np.isfinite(weight), lambda k: f"non-finite weight {weight[k]}")


def _header_values(
    comments: list[tuple[int, str]], parsers: dict[str, Callable[[str], object]]
) -> tuple[dict[str, object], ParseError | None]:
    """Values of the 'key=value' tokens in comment lines (the last one wins).

    The first value its parser rejects is the fault at its line: "cannot
    parse <key> '<value>'" for a ValueError, a LookupError's own message.
    """
    values: dict[str, object] = {}
    for line, text in comments:
        for key, eq, value in (token.partition("=") for token in text.split()):
            try:
                if eq and key in parsers:
                    values[key] = parsers[key](value)
            except LookupError as exc:
                return values, ParseError(exc.args[0], line)
            except ValueError:
                return values, ParseError(f"cannot parse {key} '{value}'", line)
    return values, None


def _vertex_count(value: str) -> int:
    """A header's 'n=' value: a nonnegative integer (ValueError otherwise)."""
    if int(value) < 0:
        raise ValueError(value)
    return int(value)


_EDGE_ROW = (np.int64, np.int64, np.float64)


def read_matrix_market(path: str | Path) -> Graph:
    """Read a Matrix Market coordinate file as a weighted graph.

    A nan or infinite stored value raises ParseError with its line.
    Non-positive stored entries are shifted by (-min + 1e-3*(max - min));
    the sparsity pattern is preserved. Stored values that are all equal
    and <= 0 cannot be shifted positive and raise NonPositiveWeightError.
    Symmetric files are expanded to both directions and yield an
    undirected graph.
    """
    path = Path(path)
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file", 1)
        header = first.strip().lower().split()
        if len(header) < 5 or header[0] != "%%matrixmarket":
            raise ParseError("expected '%%MatrixMarket matrix coordinate ...' header", 1)
        if header[1] != "matrix" or header[2] != "coordinate":
            raise ParseError(f"unsupported object/format '{header[1]} {header[2]}'", 1)
        if header[3] not in ("real", "integer"):
            raise ParseError(f"unsupported field '{header[3]}'", 1)
        symmetric = header[4] == "symmetric"
        if header[4] not in ("general", "symmetric"):
            raise ParseError(f"unsupported symmetry '{header[4]}'", 1)

        number, parts = 1, None  # the line just read; the size line's fields
        for number, text in enumerate(iter(fh.readline, ""), 2):
            stripped = text.strip()
            if stripped and not stripped.startswith("%"):
                parts = stripped.split()
                break
    if parts is None:
        raise ParseError("missing size line", number)
    if len(parts) != 3:
        raise ParseError("size line must be 'rows cols nnz'", number)
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError("size line must contain three integers", number)
    if rows != cols:
        raise ParseError(f"matrix must be square, got {rows}x{cols}", number)
    if nnz < 0:
        raise ParseError(f"negative entry count {nnz}", number)
    if rows == 0 or nnz == 0:
        raise EmptyMatrixError(f"{path} holds an empty matrix")

    entries = _read_rows(path, _EDGE_ROW, comment="%", start=number, shape="entry must be 'row col value'")
    i, j, val = entries.columns
    outside = (i < 1) | (i > rows) | (j < 1) | (j > rows)
    entries.check(
        ParseError(f"more than {nnz} entries", entries.lines[nnz]) if len(i) > nnz else None,
        entries.fault_at(outside, lambda k: f"index ({i[k]}, {j[k]}) outside 1..{rows}"),
        _weight_fault(entries, val),
    )
    if len(i) != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(i)}", entries.line_count)
    for index in (i, j):  # to 0-based in place, without a second copy of each column
        index -= 1
    return _from_arrays(rows, i, j, _shift_weights(val), directed=not symmetric)


def write_matrix_market(
    g: Graph, path: str | Path, comments: Sequence[str] = ()
) -> None:
    """Write a graph as a Matrix Market coordinate real general file."""
    head = ["%%MatrixMarket matrix coordinate real general", *(f"% {c}" for c in comments)]
    head.append(f"{g.n} {g.n} {g.num_edges}")
    _write_rows(path, (g.src + 1, g.dst + 1, g.weight), sep=" ", head=head)


def read_edge_list(path: str | Path, n: int | None = None, directed: bool = True) -> Graph:
    """Read a TSV edge list (src, dst, weight per line, 0-based).

    '#' starts a comment; a '# n=<count>' comment before the first row
    fixes the vertex count (otherwise max index + 1 is used). A negative
    vertex, one >= a fixed count, or a nan or infinite weight raises
    ParseError with its line; a file with no vertices raises
    EmptyMatrixError.
    """
    rows = _read_rows(path, _EDGE_ROW, sep="\t", shape="expected 'src<TAB>dst<TAB>weight'")
    values, fault = _header_values(rows.comments, {"n": _vertex_count, "directed": lambda v: bool(int(v))})
    rows.check(fault)
    src, dst, weight = rows.columns
    n = values.get("n") if n is None else n
    rows.check(_vertex_fault(rows, (src, dst), n), _weight_fault(rows, weight))
    if n is None:
        n = 1 + int(max(src.max(initial=-1), dst.max(initial=-1)))
    if n == 0:
        raise EmptyMatrixError(f"{path} holds a graph with no vertices")
    return _from_arrays(n, src, dst, weight, values.get("directed", directed))


def write_edge_list(g: Graph, path: str | Path, comments: Sequence[str] = ()) -> None:
    """TSV edge list; an undirected graph lists each edge once, as its src <= dst row."""
    rows = slice(None) if g.directed else g.src <= g.dst
    head = [f"# n={g.n} directed={int(g.directed)}", *(f"# {c}" for c in comments)]
    _write_rows(path, (g.src[rows], g.dst[rows], g.weight[rows]), sep="\t", head=head)


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
    src, dst, weight = _aggregate(inverse[g.src], inverse[g.dst], g.weight, g.n)
    return Graph(n=g.n, src=src, dst=dst, weight=weight, directed=g.directed), perm
