"""CSV serialization. Matrices use header i,j,value; vectors i,value; v tables
p,r,value. States and bins are 1-indexed on disk; generation indices p start
at 0. Every file opens with a comment line carrying the config hash when one
is supplied, so outputs are traceable and byte-reproducible.
"""
from __future__ import annotations

import csv
import hashlib
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .markov import Observable, TransitionMatrix


# most nonzero entries a CSV may list, and most slots of a chain's padded
# ELL rows (markov.TransitionMatrix): 16 bytes a slot, plus 8 of sampling
# tables (markov.CdfTables), so a chain takes at most about 24 MB. A chain
# needs a positive entry per state, so it has at most this many states too
NONZERO_LIMIT = 10**6


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return str(x)


def write_rows(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    cfg_hash: Optional[str] = None,
):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if cfg_hash is not None:
            fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_matrix_csv(path: Path, K: TransitionMatrix, cfg_hash: Optional[str] = None):
    """Every i,j entry of a (small, coarse) kernel, zeros included."""
    m = K.to_dense()
    rows = (
        (i + 1, j + 1, m[i, j])
        for i in range(m.shape[0])
        for j in range(m.shape[1])
    )
    write_rows(path, ("i", "j", "value"), rows, cfg_hash)


def write_vector_csv(path: Path, values: np.ndarray, cfg_hash: Optional[str] = None):
    values = np.asarray(values, dtype=float)
    rows = ((i + 1, values[i]) for i in range(values.size))
    write_rows(path, ("i", "value"), rows, cfg_hash)


def write_v_table_csv(path: Path, v: np.ndarray, cfg_hash: Optional[str] = None):
    rows = (
        (p, r + 1, v[p, r]) for p in range(v.shape[0]) for r in range(v.shape[1])
    )
    write_rows(path, ("p", "r", "value"), rows, cfg_hash)


# data lines parsed per numpy call: a chain's file is read in slices of this
# size, so reading holds one slice of text at a time
_CHUNK_LINES = 1 << 16


def _data_lines(path: Path) -> Iterator[str]:
    """The lines of a CSV after its comment lines, blank lines and header."""
    with open(path, newline="") as fh:
        lines = (line for line in fh if line.strip() and not line.startswith("#"))
        next(lines, None)
        yield from lines


def _row_text(path: Path, k: int) -> str:
    """Data row k of a CSV, as written."""
    return next(islice(_data_lines(path), k, None)).rstrip("\r\n")


def _parse(path: Path, lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each line's width integer indices and its value, by numpy's parser; by
    the csv module's where that one fails, which also reads quoted fields and
    names a row with the wrong number of fields."""
    try:
        dtype = [(f"i{k}", np.int64) for k in range(width)] + [("value", float)]
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=1)
        index = np.column_stack([table[f"i{k}"] for k in range(width)])
        return index, table["value"]
    except ValueError:
        rows = list(csv.reader(lines))
    for row in rows:
        if len(row) != width + 1:
            raise ValueError(f"{path}: row {','.join(row)!r} needs {width + 1} fields")
    index = np.array([[int(t) for t in row[:width]] for row in rows], dtype=np.int64)
    return index, np.array([float(row[width]) for row in rows])


def _read_indexed(path: Path, width: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The data rows of an i,value (width 1) or i,j,value (width 2) CSV: the
    state count n, the largest i; each row's 0-indexed indices; its values.

    Raises ValueError, naming the row, for a row with the wrong field count,
    for the nonzero value that passes NONZERO_LIMIT, for an index outside
    1..n and for an index that an earlier row already set; and for n above
    NONZERO_LIMIT. Each check comes before anything of size n is allocated.
    """
    indices, values = [], []
    nonzero = 0
    lines = _data_lines(path)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        index, value = _parse(path, chunk, width)
        nz = np.flatnonzero(value != 0.0)
        if nonzero + nz.size > NONZERO_LIMIT:
            row = chunk[nz[NONZERO_LIMIT - nonzero]].rstrip("\r\n")
            raise ValueError(f"{path}: row {row!r} is nonzero entry "
                             f"{NONZERO_LIMIT + 1}; a CSV holds at most {NONZERO_LIMIT}")
        nonzero += nz.size
        indices.append(index)
        values.append(value)
    if not values:
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


def observable_from_csv(path: Path) -> Observable:
    return Observable(read_vector_csv(path))
