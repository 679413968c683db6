"""CSV serialization. Matrices use header i,j,value; vectors i,value; v tables
p,r,value. States and bins are 1-indexed on disk; generation indices p start
at 0. Every file opens with a comment line carrying the config hash when one
is supplied, so outputs are traceable and byte-reproducible.
"""
from __future__ import annotations

import hashlib
import re
import warnings
from contextlib import ExitStack, contextmanager
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .markov import TransitionMatrix


# most nonzero entries a CSV may list, and most slots of a chain's padded
# ELL rows (markov.TransitionMatrix): 16 bytes a slot, plus 8 of sampling
# tables (markov.CdfTables), so a chain takes at most about 24 MB. A chain
# needs a positive entry per state, so it has at most this many states too
NONZERO_LIMIT = 10**6


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# rows written per block: each block is formatted a column at a time and
# written in one call, so writing holds one block of rows and text at a time.
# Blocks of 4096 rows raised the peak RSS of `run --mode all` at 60 replicates
# by 0.5 MB (of 39 MB); per-block costs are still negligible at 256
BLOCK_ROWS = 1 << 8

_FLAGS = ("0", "1")
_QUOTED = re.compile(r'[,"\r\n]').search


def _quoted(text: str) -> str:
    """A string cell as the csv module's default dialect writes it: quoted,
    with its quotes doubled, when it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if _QUOTED(text) else text


def _format(kind: type):
    """The text of a cell of this type: floats (numpy's float64 among them)
    by the shortest repr that reads back to the same float, bools as 1/0,
    ints and strings by str. Other types raise TypeError."""
    if kind is bool:
        return _FLAGS.__getitem__
    if issubclass(kind, float):
        return float.__repr__
    if kind is int:
        return int.__repr__
    if kind is str:
        return _quoted
    raise TypeError(f"cannot write a CSV cell of type {kind.__name__}")


def _column_text(cells: tuple) -> Iterable[str]:
    """One column of a block as text: one formatter mapped over the column,
    or one per cell where the column mixes types."""
    kinds = set(map(type, cells))
    if len(kinds) == 1:
        return map(_format(kinds.pop()), cells)
    formats = {kind: _format(kind) for kind in kinds}
    return [formats[type(cell)](cell) for cell in cells]


def _lines(block: list, width: int) -> str:
    """The CSV lines of a block of rows, each of width cells."""
    if set(map(len, block)) != {width}:
        raise ValueError(f"every row of the CSV needs {width} cells")
    lines = map(",".join, zip(*map(_column_text, zip(*block))))
    if width == 1:  # as csv does, a row of one empty string is written ""
        lines = (line or '""' for line in lines)
    return "\r\n".join(lines) + "\r\n"


@contextmanager
def _open_csv(path: Path, header: Sequence[str], cfg_hash: Optional[str]
              ) -> Iterator[TextIO]:
    """A new CSV at path, open for writing while the context lasts, with its
    ``# config_hash=`` line when cfg_hash is given and its header written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if cfg_hash is not None:
            fh.write(f"# config_hash={cfg_hash}\n")
        fh.write(_lines([tuple(header)], len(header)))
        yield fh


def write_rows(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    cfg_hash: Optional[str] = None,
):
    """Write a CSV: a ``# config_hash=`` line when cfg_hash is given, the
    header, then the rows, each with a cell per header field. Lines end in
    \\r\\n and strings are quoted as the csv module quotes them. Rows are
    formatted BLOCK_ROWS at a time, a column at a time (see `_format`), so
    callers pass Python cells, as ndarray.tolist() gives them, in rows."""
    width = len(header)
    if width == 0:
        raise ValueError("a CSV needs at least one column")
    rows = iter(rows)
    with _open_csv(path, header, cfg_hash) as fh:
        while block := list(islice(rows, BLOCK_ROWS)):
            fh.write(_lines(block, width))


RUNS_HEADER = ("replicate", "p", "eta_f", "total_weight", "num_particles", "extinct")
# a runs row's last cell and line end, by its extinct flag
_RUN_ENDS = tuple(f",{flag}\r\n" for flag in _FLAGS)


def write_runs(
    files: Sequence[tuple[Path, int, np.ndarray]],
    etas: np.ndarray,
    weights: np.ndarray,
    counts: np.ndarray,
    cfg_hash: Optional[str] = None,
):
    """Write the runs files of one run, whose (replicates, generations) eta,
    total weight and integer particle count traces are given: for each
    (path, n, extinct) of ``files``, a CSV like write_rows's with header
    RUNS_HEADER and a row (replicate, p, eta_f, total_weight, num_particles,
    extinct) per replicate and generation p = 0..n, the replicate's extinct
    flag repeated on its rows. Each n is below the traces' width.

    Every file is open at once. The traces are formatted one block of
    replicates (of at most BLOCK_ROWS rows, or one replicate) at a time, a
    column at a time, with `_format`'s formatters, and each file takes the
    first n + 1 lines of each replicate of the block."""
    reps, width = etas.shape
    step = max(1, BLOCK_ROWS // width)
    number, real = _format(int), _format(float)
    generations = list(map(number, range(width)))
    with ExitStack() as stack:
        handles = [stack.enter_context(_open_csv(path, RUNS_HEADER, cfg_hash))
                   for path, _, _ in files]
        for lo in range(0, reps, step):
            block = slice(lo, lo + step)
            replicates = range(lo, min(lo + step, reps))
            lines = list(map(",".join, zip(
                chain.from_iterable(map(repeat, map(number, replicates), repeat(width))),
                generations * len(replicates),
                map(real, etas[block].ravel().tolist()),
                map(real, weights[block].ravel().tolist()),
                map(number, counts[block].ravel().tolist()))))
            starts = range(0, len(lines), width)
            for fh, (_, n, extinct) in zip(handles, files):
                ends = map(_RUN_ENDS.__getitem__, extinct[block].tolist())
                fh.write("".join(end.join(lines[k:k + n + 1]) + end
                                 for k, end in zip(starts, ends)))


def array_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length 1-D arrays, as Python cells: each column is
    converted BLOCK_ROWS entries at a time by tolist()."""
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        yield from zip(*(column[lo:lo + BLOCK_ROWS].tolist() for column in columns))


def write_matrix_csv(path: Path, K: TransitionMatrix, cfg_hash: Optional[str] = None):
    """Every i,j entry of a (small, coarse) kernel, zeros included."""
    m = K.to_dense()
    i, j = np.indices(m.shape).reshape(2, -1) + 1
    write_rows(path, ("i", "j", "value"), array_rows(i, j, m.ravel()), cfg_hash)


def write_vector_csv(path: Path, values: np.ndarray, cfg_hash: Optional[str] = None):
    values = np.asarray(values, dtype=float)
    write_rows(path, ("i", "value"),
               array_rows(np.arange(1, values.size + 1), values), cfg_hash)


def write_v_table_csv(path: Path, v: np.ndarray, cfg_hash: Optional[str] = None):
    p, r = np.indices(v.shape).reshape(2, -1)
    write_rows(path, ("p", "r", "value"), array_rows(p, r + 1, v.ravel()), cfg_hash)


# raw lines parsed per numpy call: a chain's file is read in slices of this
# many lines, so reading holds one slice of text at a time
_CHUNK_LINES = 1 << 16


def _data_lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines that hold data: those not blank once the comment a `#`
    starts, which runs to the end of its line, is cut off."""
    return (line for line in lines if line.partition("#")[0].strip())


def _row_text(path: Path, k: int) -> str:
    """Data row k of a CSV, counted after its header, as written."""
    with open(path, newline="") as fh:
        return next(islice(_data_lines(fh), k + 1, None)).rstrip("\r\n")


def _parse(path: Path, lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The width integer indices and the value of each data row of a slice
    of raw lines, by numpy's parser, which skips comments and empty lines; by
    the csv module's where that one fails, which also skips lines of
    whitespace, reads quoted fields and names a row with the wrong number of
    fields or a field that is not a number."""
    try:
        dtype = [(f"i{k}", np.int64) for k in range(width)] + [("value", float)]
        with warnings.catch_warnings():
            # a slice of comments alone holds no data: that is no error
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(lines, delimiter=",", comments="#", dtype=dtype,
                               ndmin=1)
        index = np.column_stack([table[f"i{k}"] for k in range(width)])
        return index, table["value"]
    except ValueError:
        import csv  # here alone: the module costs every command's import
        rows = list(csv.reader(line.partition("#")[0] for line in _data_lines(lines)))
    index, value = [], []
    for row in rows:
        if len(row) != width + 1:
            raise ValueError(f"{path}: row {','.join(row)!r} needs {width + 1} fields")
        try:
            index.append([int(t) for t in row[:width]])
            value.append(float(row[width]))
        except ValueError:
            raise ValueError(f"{path}: row {','.join(row)!r} needs integer indices "
                             "and a numeric value") from None
    return np.array(index, dtype=np.int64).reshape(-1, width), np.array(value)


def _read_indexed(path: Path, width: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The data rows of an i,value (width 1) or i,j,value (width 2) CSV: the
    state count n, the largest i; each row's 0-indexed indices; its values.
    The first data line is the header; a `#` starts a comment.

    Raises ValueError, naming the row, for a row with the wrong field count,
    for the nonzero value that passes NONZERO_LIMIT, for an index outside
    1..n and for an index that an earlier row already set; and for n above
    NONZERO_LIMIT. Each check comes before anything of size n is allocated.
    """
    indices, values = [], []
    rows = nonzero = 0
    with open(path, newline="") as fh:
        next(_data_lines(fh), None)
        while chunk := list(islice(fh, _CHUNK_LINES)):
            index, value = _parse(path, chunk, width)
            nz = np.flatnonzero(value != 0.0)
            if nonzero + nz.size > NONZERO_LIMIT:
                row = _row_text(path, rows + int(nz[NONZERO_LIMIT - nonzero]))
                raise ValueError(f"{path}: row {row!r} is nonzero entry "
                                 f"{NONZERO_LIMIT + 1}; a CSV holds at most "
                                 f"{NONZERO_LIMIT}")
            rows += value.size
            nonzero += nz.size
            indices.append(index)
            values.append(value)
    if not rows:
        raise ValueError(f"{path} has no data rows")
    index = np.concatenate(indices) - 1
    n = int(index[:, 0].max()) + 1
    if n > NONZERO_LIMIT:
        raise ValueError(f"{path} names state {n}; chains have at most "
                         f"{NONZERO_LIMIT} states")
    outside = np.flatnonzero(((index < 0) | (index >= n)).any(axis=1))
    if outside.size:
        row = _row_text(path, outside[0])
        raise ValueError(f"{path}: row {row!r} has an index outside 1..{n}")
    flat = np.ravel_multi_index(tuple(index.T), (n,) * width)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][np.diff(flat[order]) == 0]
    if repeats.size:
        row = _row_text(path, repeats.min())
        raise ValueError(f"{path}: row {row!r} repeats the index of an earlier row")
    return n, index, np.concatenate(values)


def read_matrix_csv(path: Path) -> TransitionMatrix:
    """The kernel of an i,j,value CSV, built in ELL rows without any n x n
    array. Raises ValueError, naming the state, when its widest row would pad
    the rows to more than NONZERO_LIMIT slots."""
    n, index, values = _read_indexed(path, 2)
    count = np.bincount(index[values != 0.0, 0], minlength=n)
    widest = int(count.argmax())
    if n * int(count[widest]) > NONZERO_LIMIT:
        raise ValueError(f"{path}: state {widest + 1} has {count[widest]} nonzero "
                         f"entries; padded to that many, the {n} rows would hold "
                         f"more than {NONZERO_LIMIT}")
    return TransitionMatrix.from_entries(n, index[:, 0], index[:, 1], values)


def read_vector_csv(path: Path) -> np.ndarray:
    n, index, values = _read_indexed(path, 1)
    v = np.zeros(n)
    v[index[:, 0]] = values
    return v
