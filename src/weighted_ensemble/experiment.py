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
from typing import Optional, Sequence

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
    run_we,
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
    exact: float  # eta_0 K^n f from the deterministic initial ensemble
    traces: np.ndarray  # (reps, n+1) eta per generation
    weight_traces: np.ndarray  # (reps, n+1) total weight
    count_traces: np.ndarray  # (reps, n+1) particle counts, 0 from extinction on
    hist_counts: Optional[np.ndarray] = None  # mean per-replicate count fractions
    hist_weights: Optional[np.ndarray] = None  # mean per-replicate weight fractions

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


def run_sweep_cell(
    setup: ChainSetup,
    mode: str,
    horizons: Sequence[int],
    reps: int,
    seed: int,
    n_particles: int = 150,
    n_floor: float = 1.0,
    per_bin_target: float = 5.0,
    model: Optional[CoarseModel] = None,
    init: Optional[Ensemble] = None,
    threads: int = 1,
) -> list[SweepResult]:
    """Run one mode of the experiment; one result per horizon, in order.

    The coarse model preconditions the initial ensemble for every mode; only
    the adaptive mode also uses its v table during selection. That table is
    recomputed for each horizon, so adaptive runs once per horizon. The other
    modes never read the horizon and draw by (replicate, generation), so one
    run to the largest horizon holds every shorter run as its prefix; their
    cells are views into it. Histograms are kept for the largest horizon.
    """
    n_max = max(horizons)
    if model is None:
        model = build_coarse_model(setup.K, setup.bins, setup.zeta, setup.f,
                                   horizon=max(n_max, 1))
    if init is None:
        init = stationary_init_ensemble(model.mu, setup.bins, n_particles)
    policy = make_policy(mode, setup.bins, n_particles, n_floor, per_bin_target)
    adaptive = isinstance(policy, AdaptivePolicy)

    # exact reference eta_0 K^p f for p = 0..n_max from the initial ensemble
    gn = setup.f.values.copy()
    exact = [float(init.weights @ gn[init.states])]
    for _ in range(n_max):
        gn = setup.K.matrix @ gn
        exact.append(float(init.weights @ gn[init.states]))

    n_states = setup.K.n_states
    results = []
    for cells in ([[n] for n in horizons] if adaptive else [horizons]):
        n = max(cells)
        v_table = compute_v(model.P, model.u, n) if adaptive and n >= 1 else None
        traces = np.empty((reps, n + 1))
        weights = np.empty((reps, n + 1))
        counts = np.empty((reps, n + 1), dtype=np.int64)
        hist = np.zeros((2, n_states))  # count and weight fractions
        one = partial(run_we, setup.K, setup.f, policy, init, n, RngStream(seed),
                      v_table=v_table)
        lo = 0
        for rec in replicates(one, reps, threads):
            hi = lo + len(rec.eta_f)
            traces[lo:hi] = rec.eta_f
            weights[lo:hi] = rec.total_weight
            counts[lo:hi] = rec.num_particles
            lo = hi
            if n < n_max:
                continue
            # added one replicate at a time, in replicate order, so the sums
            # do not depend on how the replicates were batched
            bounds = rec.final.offsets.tolist()
            for b, (start, end) in enumerate(zip(bounds, bounds[1:])):
                if start == end:  # extinct
                    continue
                states = rec.final.states[start:end]
                hist[0] += np.bincount(states, minlength=n_states) / (end - start)
                hist[1] += np.bincount(states, weights=rec.final.weights[start:end],
                                       minlength=n_states) / rec.total_weight[b, n]
        hist /= max(np.count_nonzero(counts[:, n]), 1)  # mean over survivors
        results += [SweepResult(mode, h, exact[h], traces[:, :h + 1],
                                weights[:, :h + 1], counts[:, :h + 1],
                                *(hist if h == n_max else ()))
                    for h in cells]
    return results


def stationary_reference(setup: ChainSetup) -> float:
    """pi(f) from the exact stationary solve of the chain kernel."""
    pi = stationary(setup.K)
    return float(pi.weights @ setup.f.values)
