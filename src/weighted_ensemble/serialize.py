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


def read_matrix_csv(path: Path) -> TransitionMatrix:
    rows = _read_csv(path)[1:]  # drop header
    n = max(int(r[0]) for r in rows)
    m = np.zeros((n, n))
    for i, j, val in rows:
        m[int(i) - 1, int(j) - 1] = float(val)
    return TransitionMatrix(m)


def read_vector_csv(path: Path) -> np.ndarray:
    rows = _read_csv(path)[1:]
    n = max(int(r[0]) for r in rows)
    v = np.zeros(n)
    for i, val in rows:
        v[int(i) - 1] = float(val)
    return v


def observable_from_csv(path: Path) -> Observable:
    return Observable(read_vector_csv(path))
