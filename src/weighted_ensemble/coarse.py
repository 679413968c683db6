"""Markov-state-model preconditioner: coarse matrix P, coarse observable u,
coarse stationary vector mu, and the per-generation variance-proxy table v.

v[p][r] estimates, inside bin r, the local mutation variance
K(K^{n-p-1}f)^2 - (K^{n-p}f)^2 that drives the square-root allocation rule.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .binning import BinPartition
from .diagnostics import g_sequence
from .engine import RngStream
from .markov import Distribution, Observable, TransitionMatrix, stationary


class CoarseModel(NamedTuple):
    """Coarse transition matrix over bins plus everything derived from it."""

    P: TransitionMatrix
    u: np.ndarray
    mu: Distribution
    v: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.P.n_states


def build_coarse_exact(
    K: TransitionMatrix,
    bins: BinPartition,
    f: Observable,
) -> tuple[TransitionMatrix, np.ndarray]:
    """Exact bin-to-bin transition probabilities and bin averages of f, each
    state of a bin weighted alike."""
    R = bins.n_bins
    w = np.full(K.n_states, 1.0 / K.n_states)  # the uniform measure on states
    mass = np.bincount(bins.bin_of, weights=w, minlength=R)
    # P_rs = sum_{x in B^r} w(x) sum_{y in B^s} K(x,y) / w(B^r): one
    # bincount over the (bin of x, bin of y) pairs that K's entries join
    x, y, k = K.entries()
    pairs, slot = np.unique(bins.bin_of[x] * R + bins.bin_of[y], return_inverse=True)
    rows = pairs // R
    flow = np.bincount(slot, weights=w[x] * k) / mass[rows]
    flow /= np.bincount(rows, weights=flow, minlength=R)[rows]
    u = np.bincount(bins.bin_of, weights=w * f.values, minlength=R) / mass
    return TransitionMatrix.from_entries(R, rows, pairs % R, flow), u


def check_sample_budget(bins: BinPartition, total_samples: int) -> None:
    """Raise ValueError unless `build_coarse_mc` starts a step in every bin
    from ``total_samples`` samples.

    Each state starts total // S steps and the first total % S states one
    more, so a budget below the state count starts one step from each of
    its first ``total_samples`` states.
    The least budget that visits every bin is therefore 1 + the largest
    first state of a bin (0-indexed): S - w + 1 for bins of width w.
    """
    need = int(np.unique(bins.bin_of, return_index=True)[1].max()) + 1
    if total_samples < need:
        raise ValueError(f"coarse_samples = {total_samples} leaves a bin unsampled; "
                         f"the least budget that samples every bin is {need}")


def build_coarse_mc(
    K: TransitionMatrix,
    bins: BinPartition,
    f: Observable,
    total_samples: int,
    rng: np.random.Generator,
) -> tuple[TransitionMatrix, np.ndarray]:
    """Monte Carlo coarse model from one-step trajectories.

    The sample budget is spread evenly over the start states (stratified),
    and `check_sample_budget` refuses a budget that would leave a bin
    unvisited. The steps are sampled by `TransitionMatrix.step`, the inverse
    CDF that `engine.mutate` uses.
    """
    check_sample_budget(bins, total_samples)
    R = bins.n_bins
    S = K.n_states
    n_starts = total_samples // S + (np.arange(S) < total_samples % S)
    starts = np.repeat(np.arange(S), n_starts)
    ends = K.step(starts, rng.random(starts.size))
    sb = bins.bin_of[starts]
    eb = bins.bin_of[ends]
    visits = np.bincount(sb, minlength=R)
    pairs, counts = np.unique(sb * R + eb, return_counts=True)
    rows = pairs // R
    u_num = np.bincount(sb, weights=f.values[starts], minlength=R)
    u = u_num / visits
    return TransitionMatrix.from_entries(R, rows, pairs % R, counts / visits[rows]), u


def compute_v(P: TransitionMatrix, u: np.ndarray, n: int) -> np.ndarray:
    """Variance-proxy table: v[p] = P (P^{n-p-1} u)^2 - (P^{n-p} u)^2, entrywise
    squares, which is the local variance of the g sequence of P and u."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    return g_sequence(P, Observable(u), n).local_var


def build_coarse_model(
    K: TransitionMatrix,
    bins: BinPartition,
    f: Observable,
    horizon: int,
    samples: int = 0,
    seed: int = 0,
) -> CoarseModel:
    """Coarse model with its stationary vector and v table for one horizon.

    Exact when ``samples`` is 0; otherwise estimated by `build_coarse_mc` from
    that many one-step samples, drawn from the "coarse" stream of ``seed``.
    """
    if samples:
        P, u = build_coarse_mc(K, bins, f, samples, RngStream(seed).at(0, "coarse"))
    else:
        P, u = build_coarse_exact(K, bins, f)
    return CoarseModel(P=P, u=u, mu=stationary(P), v=compute_v(P, u, horizon))
