"""Three-well experiment driver: setup, replicate sweeps, histograms.

The benchmark chain is the 90-state three-well landscape with resampling lag
4, bins of width 3 (R = 30), observable f = indicator of states 28..33, and
the stationary-average workflow started from the coarse-model preconditioned
ensemble. Replicates can fan out over worker processes; results depend only
on (seed, config), never on the worker count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .binning import BinPartition
from .coarse import CoarseModel, build_coarse_model, compute_v
from .engine import (
    AdaptivePolicy,
    Ensemble,
    NaivePolicy,
    RngStream,
    SelectionPolicy,
    TraditionalPolicy,
    replicates,
    run_replicate,
    stationary_init_ensemble,
)
from .markov import (
    Distribution,
    Observable,
    TransitionMatrix,
    build_three_well_chain,
    stationary,
)

MODES = ("adaptive", "traditional", "naive")


@dataclass(frozen=True)
class ChainSetup:
    """A chain plus binning, observable, and sampling measure for experiments."""

    K: TransitionMatrix
    bins: BinPartition
    f: Observable
    zeta: Distribution
    Q: Optional[TransitionMatrix] = None  # one-step matrix when K is a lag power


def three_well_setup(lag: int = 4, bin_width: int = 3,
                     f_lo: int = 28, f_hi: int = 33) -> ChainSetup:
    """The benchmark configuration; f_lo..f_hi are 1-indexed states."""
    Q, K = build_three_well_chain(lag)
    n = K.n_states
    bins = BinPartition.from_width(n, bin_width)
    f = Observable.indicator(range(f_lo - 1, f_hi), n)
    zeta = Distribution(np.full(n, 1.0 / n))
    return ChainSetup(K=K, bins=bins, f=f, zeta=zeta, Q=Q)


def make_policy(
    mode: str,
    bins: BinPartition,
    n_particles: int,
    n_floor: float = 1.0,
    per_bin_target: float = 5.0,
) -> SelectionPolicy:
    if mode == "adaptive":
        return AdaptivePolicy(bins, float(n_particles), n_floor)
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
    reps: int
    etas: np.ndarray  # final eta_n(f) per replicate
    extinct_count: int
    exact: float  # eta_0 K^n f from the deterministic initial ensemble
    hist_counts: Optional[np.ndarray] = None  # mean per-replicate count fractions
    hist_weights: Optional[np.ndarray] = None  # mean per-replicate weight fractions
    traces: Optional[np.ndarray] = None  # (reps, n+1) eta per generation
    weight_traces: Optional[np.ndarray] = None  # (reps, n+1) total weight
    count_traces: Optional[np.ndarray] = None  # (reps, n+1) particle counts
    extinct_flags: Optional[np.ndarray] = None  # (reps,) bool

    @property
    def mean(self) -> float:
        return float(self.etas.mean())

    @property
    def std(self) -> float:
        return float(self.etas.std(ddof=1)) if self.reps > 1 else 0.0

    @property
    def std_err(self) -> float:
        return self.std / np.sqrt(self.reps)


def run_sweep_cell(
    setup: ChainSetup,
    mode: str,
    n: int,
    reps: int,
    seed: int,
    n_particles: int = 150,
    n_floor: float = 1.0,
    per_bin_target: float = 5.0,
    model: Optional[CoarseModel] = None,
    init: Optional[Ensemble] = None,
    threads: int = 1,
    keep_traces: bool = False,
) -> SweepResult:
    """Run one (mode, horizon) cell of the experiment.

    The coarse model preconditions the initial ensemble for every mode; only
    the adaptive mode also uses its v table during selection. The v table is
    recomputed for the cell's own horizon.
    """
    if model is None:
        model = build_coarse_model(setup.K, setup.bins, setup.zeta, setup.f,
                                   horizon=max(n, 1))
    if init is None:
        init = stationary_init_ensemble(model.mu, setup.bins, n_particles)
    policy = make_policy(mode, setup.bins, n_particles, n_floor, per_bin_target)
    v_table = compute_v(model.P, model.u, n) if n >= 1 else None

    # exact reference from the deterministic initial empirical distribution
    gn = setup.f.values.copy()
    for _ in range(n):
        gn = setup.K.matrix @ gn
    exact = float(init.weights @ gn[init.states])

    n_states = setup.K.n_states
    etas = np.empty(reps)
    traces = np.empty((reps, n + 1))
    weights = np.empty((reps, n + 1))
    counts = np.empty((reps, n + 1), dtype=np.int64)
    flags = np.zeros(reps, dtype=bool)
    hist_c = np.zeros(n_states)
    hist_w = np.zeros(n_states)
    one = partial(run_replicate, setup.K, setup.f, policy, init, n,
                  RngStream(seed), v_table)
    for rep, rec in enumerate(replicates(one, reps, threads)):
        etas[rep] = rec.eta_f[n]
        traces[rep] = rec.eta_f
        weights[rep] = rec.total_weight
        counts[rep] = rec.num_particles
        flags[rep] = rec.extinct
        if rec.extinct:
            continue
        final = rec.final
        hist_c += np.bincount(final.states, minlength=n_states) / final.n_particles
        hist_w += np.bincount(final.states, weights=final.weights,
                              minlength=n_states) / final.total_weight
    extinct = int(flags.sum())
    alive = reps - extinct
    return SweepResult(
        mode=mode,
        n=n,
        reps=reps,
        etas=etas,
        extinct_count=extinct,
        exact=exact,
        hist_counts=hist_c / alive if alive else np.zeros(n_states),
        hist_weights=hist_w / alive if alive else np.zeros(n_states),
        traces=traces if keep_traces else None,
        weight_traces=weights if keep_traces else None,
        count_traces=counts if keep_traces else None,
        extinct_flags=flags,
    )


def stationary_reference(setup: ChainSetup) -> float:
    """pi(f) from the exact stationary solve of the chain kernel."""
    pi = stationary(setup.K)
    return float(pi.weights @ setup.f.values)
