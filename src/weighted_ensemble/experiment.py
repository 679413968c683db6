"""Replicate sweeps of the stationary-average workflow on a chain setup.

A setup is a chain with its binning, observable and sampling measure: the
90-state three-well benchmark of `run`, a chain read from CSV, or a
source-sink chain of `hill`. `run_sweep_cell` is the one replicate runner
behind `run`, `hill` and `diagnose`: every replicate starts from the same
initial ensemble (the coarse model's mu-preconditioned spread), selects with
one policy, and is read out at one or more horizons. On request it also
accumulates each replicate's exact Doob terms, which `diagnose` checks.
Replicates can fan out over worker processes; results depend only on
(seed, config), never on the worker count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .binning import BinPartition
from .engine import (
    AdaptivePolicy,
    Ensemble,
    NaivePolicy,
    SelectionPolicy,
    TraditionalPolicy,
    empirical_estimate,
    replicates,
    run_we,
)
from .diagnostics import GSequence, backward, doob_terms, g_sequence, policy_name
from .markov import Distribution, Observable, TransitionMatrix

MODES = ("adaptive", "traditional", "naive")


@dataclass(frozen=True)
class ChainSetup:
    """A chain plus binning, observable, and sampling measure for experiments."""

    K: TransitionMatrix
    bins: BinPartition
    f: Observable
    zeta: Distribution


def make_policy(
    mode: str,
    bins: BinPartition,
    n_particles: int,
    n_floor: float = 1.0,
    per_bin_target: float = 5.0,
    v: Optional[np.ndarray] = None,
) -> SelectionPolicy:
    """The policy of one mode; only the adaptive one reads ``v``, the coarse
    model's table."""
    if mode == "adaptive":
        return AdaptivePolicy(bins, float(n_particles), n_floor, v)
    if mode == "traditional":
        return TraditionalPolicy(bins, per_bin_target)
    if mode == "naive":
        return NaivePolicy()
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class SweepResult:
    """Replicate statistics for one (mode, horizon) cell."""

    mode: str
    n: int
    exact: float  # eta_0 K^n f from the deterministic initial ensemble
    traces: np.ndarray  # (reps, n+1) eta per generation
    weight_traces: np.ndarray  # (reps, n+1) total weight
    count_traces: np.ndarray  # (reps, n+1) particle counts, 0 from extinction on
    # every replicate's last ensemble, one per pass in replicate order; largest n only
    final: Optional[list[Ensemble]] = None
    # each replicate's sum_p (mut_p + sel_p), largest n of a doob=True call only
    variance: Optional[np.ndarray] = None

    def __post_init__(self):
        self.reps = self.traces.shape[0]
        self.etas = self.traces[:, -1].copy()  # final eta_n(f) per replicate
        self.extinct_flags = self.count_traces[:, -1] == 0
        self.extinct_count = int(self.extinct_flags.sum())

    @property
    def mean(self) -> float:
        return float(self.etas.mean())

    @property
    def std(self) -> float:
        return float(self.etas.std(ddof=1)) if self.reps > 1 else 0.0

    @property
    def std_err(self) -> float:
        return self.std / np.sqrt(self.reps)

    def final_eta(self, g: Observable) -> np.ndarray:
        """eta_n(g) of every replicate's final ensemble, in replicate order."""
        return np.concatenate([empirical_estimate(e, g) for e in self.final])


def _batch(K: TransitionMatrix, f: Observable, policy: SelectionPolicy,
           init: Ensemble, n: int, seed: int, gseq: Optional[GSequence], reps: range):
    """run_we on one pass of replicates. With ``gseq`` it observes the exact
    Doob terms against it and also returns each replicate's sum_p (mut_p +
    sel_p); without, that second value is None."""
    if gseq is None:
        return run_we(K, f, policy, init, n, seed, reps), None
    observe, mut, sel = doob_terms(gseq, len(reps))
    rec = run_we(K, f, policy, init, n, seed, reps, observe=observe)
    return rec, mut.sum(axis=1) + sel.sum(axis=1)


def run_sweep_cell(
    setup: ChainSetup,
    init: Ensemble,
    policy: SelectionPolicy,
    horizons: Sequence[int],
    reps: int,
    seed: int,
    threads: int = 1,
    doob: bool = False,
) -> list[SweepResult]:
    """Run replicates 0..reps-1 of ``seed`` from ``init`` under one policy;
    one result per horizon, in order.

    The adaptive policy reads its v table by horizon (`AdaptivePolicy.row`),
    so it runs once per horizon. The other policies never read the horizon
    and draw by (chunk, generation), with chunks that do not depend on the
    horizon, so one run to the largest horizon holds every shorter run as
    its prefix; their cells are views into it. The largest horizon's cells
    also carry the final ensemble of every replicate, one per pass.

    With ``doob``, the largest horizon's run observes the exact conditional
    mutation and selection variance terms against K^{n-p} f, and its cells
    carry each replicate's accumulated sum in ``variance`` instead of the
    final ensembles. M_0 is deterministic, so the mean of ``variance`` is
    unbiased for Var(eta_n f).
    """
    n_max = max(horizons)
    adaptive = isinstance(policy, AdaptivePolicy)
    # exact reference eta_0 K^h f = eta_0 g[n_max - h] from the initial ensemble
    g_max = g_sequence(setup.K, setup.f, n_max) if doob else None
    g = backward(setup.K, setup.f, n_max) if g_max is None else g_max.g
    exact = [float(init.weights @ g_h[init.states]) for g_h in g[::-1]]

    mode = policy_name(policy)
    results = []
    for cells in ([[n] for n in horizons] if adaptive else [horizons]):
        n = max(cells)
        traces = np.empty((reps, n + 1))
        weights = np.empty((reps, n + 1))
        counts = np.empty((reps, n + 1), dtype=np.int64)
        gseq = g_max if n == n_max else None
        finals, variances = [], []
        one = partial(_batch, setup.K, setup.f, policy, init, n, seed, gseq)
        lo = 0
        for rec, variance in replicates(one, reps, threads):
            hi = lo + len(rec.eta_f)
            traces[lo:hi] = rec.eta_f
            weights[lo:hi] = rec.total_weight
            counts[lo:hi] = rec.num_particles
            lo = hi
            if gseq is not None:
                variances.append(variance)
            elif n == n_max:
                finals.append(rec.final)
        final = finals or None
        variance = np.concatenate(variances) if variances else None
        results += [SweepResult(mode, h, exact[h], traces[:, :h + 1],
                                weights[:, :h + 1], counts[:, :h + 1],
                                final if h == n_max else None,
                                variance if h == n_max else None)
                    for h in cells]
    return results
