"""Source-sink kernel modification and Hill-relation estimators.

Replacing the kernel rows inside a sink set F by the one-step distribution
from a source measure rho yields a nonreversible chain whose stationary
distribution pi encodes hitting statistics of the original chain:
E^rho[sum_{p<=tau_F} g(X_p)] = pi(g)/pi(F), so E^rho[tau_F] = 1/pi(F) (the
Hill relation) and P^rho[tau_B < tau_A] = pi(B)/pi(A u B).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binning import BinPartition
from .coarse import build_coarse_model
from .engine import (
    RngStream,
    SelectionPolicy,
    empirical_estimate,
    stationary_init_ensemble,
)
from .experiment import ChainSetup, SweepResult, run_sweep_cell
from .markov import (
    Distribution,
    Observable,
    TransitionMatrix,
    reaches,
    solve_identity_minus,
)


@dataclass(frozen=True)
class SourceSinkSpec:
    """Base kernel plus a sink set F and a source distribution rho whose
    support must avoid F."""

    base_kernel: TransitionMatrix
    sink: frozenset[int]  # 0-indexed states
    source: Distribution

    def __post_init__(self):
        sink = frozenset(int(s) for s in self.sink)
        if not sink:
            raise ValueError("sink set must be nonempty")
        n = self.base_kernel.n_states
        if any(s < 0 or s >= n for s in sink):
            raise ValueError("sink states out of range")
        if self.source.n_states != n:
            raise ValueError("source distribution has wrong dimension")
        if self.source.weights[sorted(sink)].sum() > 0:
            raise ValueError("source distribution has mass on the sink set")
        object.__setattr__(self, "sink", sink)


def source_sink_kernel(spec: SourceSinkSpec) -> TransitionMatrix:
    """K = K0 outside F; every row inside F is replaced by rho K0, i.e. the
    chain restarts at rho immediately after entering the sink."""
    K0 = spec.base_kernel
    n = K0.n_states
    restart = K0.push(spec.source.weights)
    cols = np.flatnonzero(restart)
    sink = np.array(sorted(spec.sink))
    rows, ends, probs = K0.entries()
    keep = ~np.isin(rows, sink)
    return TransitionMatrix.from_entries(
        n,
        np.concatenate((rows[keep], np.repeat(sink, cols.size))),
        np.concatenate((ends[keep], np.tile(cols, sink.size))),
        np.concatenate((probs[keep], np.tile(restart[cols], sink.size))),
    )


def hitting_probability(pi: Distribution, A, B) -> float:
    """pi(B) / pi(A u B) = P^rho[tau_B < tau_A] for disjoint A, B."""
    A, B = set(A), set(B)
    if A & B:
        raise ValueError("A and B must be disjoint")
    pa = float(pi.weights[sorted(A)].sum()) if A else 0.0
    pb = float(pi.weights[sorted(B)].sum()) if B else 0.0
    if pa + pb <= 0:
        raise ValueError("pi(A u B) = 0")
    return pb / (pa + pb)


def direct_mfpt(K0: TransitionMatrix, rho: Distribution, F) -> float:
    """Exact mean first-passage time E^rho[tau_F] by the absorbing-chain linear
    solve t = 1 + K0_restricted t on the complement of F
    (`markov.solve_identity_minus`)."""
    n = K0.n_states
    mask = np.zeros(n, dtype=bool)
    mask[list(F)] = True
    if rho.weights[mask].sum() > 0:
        raise ValueError("rho has mass on F")
    if not reaches(K0, np.flatnonzero(mask)).all():
        raise ValueError("F is unreachable from some state")
    outside = ~mask
    pos = np.cumsum(outside) - 1
    rows, cols, probs = K0.entries()
    inner = outside[rows] & outside[cols]
    m = int(outside.sum())
    t = solve_identity_minus(m, pos[rows[inner]], pos[cols[inner]], probs[inner],
                             np.ones(m))
    full = np.zeros(n)
    full[outside] = t
    return float(rho.weights @ full)


def _stationary_cell(
    K: TransitionMatrix,
    bins: BinPartition,
    policy: SelectionPolicy,
    f_guide: Observable,
    n: int,
    reps: int,
    rng: RngStream,
    n_particles: int,
    threads: int,
    coarse_samples: int,
) -> SweepResult:
    """Replicates 0..reps-1 of the stationary-average workflow on K to horizon
    n, from the mu-preconditioned ensemble of the coarse model guided by
    ``f_guide`` (exact, or from ``coarse_samples`` one-step samples) under the
    uniform sampling measure."""
    zeta = Distribution(np.full(K.n_states, 1.0 / K.n_states))
    model = build_coarse_model(K, bins, zeta, f_guide, max(n, 1), coarse_samples,
                               rng.seed)
    init = stationary_init_ensemble(model.mu, bins, n_particles)
    setup = ChainSetup(K=K, bins=bins, f=f_guide, zeta=zeta)
    return run_sweep_cell(setup, init, policy, (n,), reps, rng.seed, model.v,
                          threads)[0]


@dataclass(frozen=True)
class HillEstimate:
    """WE estimate of a Hill-relation quantity with replicate statistics.

    ``mfpt`` inverts the replicate mean of eta_n(1_F) (ratio of means, which
    inherits unbiasedness of eta); per-replicate reciprocals are only useful
    for dispersion. Replicates with eta <= 0 have no reciprocal and are
    counted in ``invalid_replicates`` (they still enter the mean, which keeps
    it unbiased).
    """

    eta_mean: float
    eta_std: float
    eta_se: float
    mfpt: float
    replicate_etas: np.ndarray = field(repr=False)
    invalid_replicates: int = 0
    extinct_replicates: int = 0


def we_hill_mfpt(
    spec: SourceSinkSpec,
    bins: BinPartition,
    policy: SelectionPolicy,
    n: int,
    reps: int,
    rng: RngStream,
    n_particles: int,
    threads: int = 1,
    coarse_samples: int = 0,
) -> HillEstimate:
    """Estimate E^rho[tau_F] = 1/pi(F) on the source-sink chain with f = 1_F."""
    K = source_sink_kernel(spec)
    f = Observable.indicator(sorted(spec.sink), K.n_states)
    res = _stationary_cell(K, bins, policy, f, n, reps, rng, n_particles, threads,
                           coarse_samples)
    if res.mean <= 0:
        raise ValueError("mean eta_n(1_F) is not positive; cannot invert")
    return HillEstimate(
        eta_mean=res.mean,
        eta_std=res.std,
        eta_se=res.std_err,
        mfpt=1.0 / res.mean,
        replicate_etas=res.etas,
        invalid_replicates=int((res.etas <= 0).sum()),
        extinct_replicates=res.extinct_count,
    )


@dataclass(frozen=True)
class HittingEstimate:
    """WE estimate of P^rho[tau_B < tau_A] = pi(B)/pi(A u B)."""

    probability: float
    eta_b_mean: float
    eta_ab_mean: float
    replicate_etas: np.ndarray = field(repr=False)  # (reps, 2): 1_B then 1_{AuB}
    extinct_replicates: int = 0


def we_hill_hitting(
    base_kernel: TransitionMatrix,
    source: Distribution,
    A,
    B,
    bins: BinPartition,
    policy: SelectionPolicy,
    n: int,
    reps: int,
    rng: RngStream,
    n_particles: int,
    threads: int = 1,
    coarse_samples: int = 0,
) -> HittingEstimate:
    """Estimate a hitting probability from one set of replicates by evaluating
    eta_n(1_B) and eta_n(1_{A u B}) on the source-sink chain with F = A u B."""
    A, B = sorted(set(A)), sorted(set(B))
    if set(A) & set(B):
        raise ValueError("A and B must be disjoint")
    spec = SourceSinkSpec(base_kernel, frozenset(A) | frozenset(B), source)
    K = source_sink_kernel(spec)
    f_ab = Observable.indicator(A + B, K.n_states)
    f_b = Observable.indicator(B, K.n_states)
    res = _stationary_cell(K, bins, policy, f_ab, n, reps, rng, n_particles,
                           threads, coarse_samples)
    etas = np.column_stack((empirical_estimate(res.final, f_b), res.etas))
    mean_b = float(etas[:, 0].mean())
    mean_ab = float(etas[:, 1].mean())
    if mean_ab <= 0:
        raise ValueError("mean eta_n(1_{A u B}) is not positive")
    return HittingEstimate(
        probability=mean_b / mean_ab,
        eta_b_mean=mean_b,
        eta_ab_mean=mean_ab,
        replicate_etas=etas,
        extinct_replicates=res.extinct_count,
    )
