"""Disjoint bin partitions of a finite state space."""
from __future__ import annotations

import numpy as np


class BinPartition:
    """Maps each state to one of R bins; every bin must be nonempty."""

    def __init__(self, bin_of: np.ndarray, n_bins: int = 0):
        b = np.asarray(bin_of, dtype=np.int64)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("bin_of must be a nonempty vector")
        r = int(n_bins) if n_bins else int(b.max()) + 1
        if b.min() < 0 or b.max() >= r:
            raise ValueError("bin indices out of range")
        present = np.bincount(b, minlength=r)
        if np.any(present == 0):
            empty = int(np.argmin(present)) + 1
            raise ValueError(f"bin {empty} contains no states")
        b.setflags(write=False)
        self.bin_of = b  # 0-indexed bin per 0-indexed state
        self.n_bins = r

    @property
    def n_states(self) -> int:
        return self.bin_of.shape[0]

    def states_in(self, r: int) -> np.ndarray:
        """0-indexed states belonging to 0-indexed bin r, ascending."""
        return np.flatnonzero(self.bin_of == r)

    @classmethod
    def from_width(cls, n_states: int, width: int) -> "BinPartition":
        """Contiguous bins of equal width; n_states must divide evenly."""
        if width < 1 or n_states % width != 0:
            raise ValueError(f"width {width} does not evenly divide {n_states} states")
        return cls(np.arange(n_states) // width, n_states // width)

