"""CSV serialization. Matrices use header i,j,value; vectors i,value; v tables
p,r,value. States and bins are 1-indexed on disk; generation indices p start
at 0. Every file opens with a comment line carrying the config hash when one
is supplied, so outputs are traceable and byte-reproducible.
"""
from __future__ import annotations

import csv
import hashlib
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .markov import Observable, TransitionMatrix


# largest chain a CSV may hold: its dense S x S matrix and the exact
# stationary and first-passage solves on it stay within memory and time. The
# sampler's tables (markov.CdfTables) add about (8 + 2) S W + 2 S (G + 1)
# bytes, W the most positive entries in a row and G <= 1024 guide buckets
ORACLE_SIZE_LIMIT = 10**4


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
    m = K.matrix
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


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)
                if row and not row[0].startswith("#")]


def _read_indexed(path: Path, width: int) -> tuple[int, np.ndarray, list[float]]:
    """The data rows of an i,value (width 1) or i,j,value (width 2) CSV: the
    state count n, the largest i; each row's 0-indexed indices; its values.

    Raises ValueError, naming the row, for an index outside 1..n or an index
    that an earlier row already set, and for n above ORACLE_SIZE_LIMIT, before
    anything of size n is allocated.
    """
    rows = _read_csv(path)[1:]  # drop header
    if not rows:
        raise ValueError(f"{path} has no data rows")
    for row in rows:
        if len(row) != width + 1:
            raise ValueError(f"{path}: row {','.join(row)!r} needs {width + 1} fields")
    index = np.array([int(t) for row in rows for t in row[:width]])
    index = index.reshape(-1, width) - 1
    n = int(index[:, 0].max()) + 1
    if n > ORACLE_SIZE_LIMIT:
        raise ValueError(f"{path} names state {n}; chains have at most "
                         f"{ORACLE_SIZE_LIMIT} states")
    outside = np.flatnonzero(((index < 0) | (index >= n)).any(axis=1))
    if outside.size:
        row = ",".join(rows[outside[0]])
        raise ValueError(f"{path}: row {row!r} has an index outside 1..{n}")
    flat = np.ravel_multi_index(tuple(index.T), (n,) * width)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][np.diff(flat[order]) == 0]
    if repeats.size:
        row = ",".join(rows[repeats.min()])
        raise ValueError(f"{path}: row {row!r} repeats the index of an earlier row")
    return n, index, [float(row[width]) for row in rows]


def read_matrix_csv(path: Path) -> TransitionMatrix:
    n, index, values = _read_indexed(path, 2)
    m = np.zeros((n, n))
    m[index[:, 0], index[:, 1]] = values
    return TransitionMatrix(m)


def read_vector_csv(path: Path) -> np.ndarray:
    n, index, values = _read_indexed(path, 1)
    v = np.zeros(n)
    v[index[:, 0]] = values
    return v


def observable_from_csv(path: Path) -> Observable:
    return Observable(read_vector_csv(path))
