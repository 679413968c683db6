"""Source-sink kernel modification and Hill-relation estimators.

Replacing the kernel rows inside a sink set F by the one-step distribution
from a source measure rho yields a nonreversible chain whose stationary
distribution pi encodes hitting statistics of the original chain:
E^rho[sum_{p<=tau_F} g(X_p)] = pi(g)/pi(F), so E^rho[tau_F] = 1/pi(F) (the
Hill relation) and P^rho[tau_B < tau_A] = pi(B)/pi(A u B).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .binning import BinPartition
from .coarse import CoarseModel, build_coarse_model
from .engine import (
    RngStream,
    empirical_estimate,
    replicates,
    run_we,
    stationary_init_ensemble,
)
from .markov import Distribution, Observable, TransitionMatrix


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

    @property
    def sink_indicator(self) -> np.ndarray:
        mask = np.zeros(self.base_kernel.n_states, dtype=bool)
        mask[sorted(self.sink)] = True
        return mask


def source_sink_kernel(spec: SourceSinkSpec) -> TransitionMatrix:
    """K = K0 outside F; every row inside F is replaced by rho K0, i.e. the
    chain restarts at rho immediately after entering the sink."""
    K0 = spec.base_kernel.matrix
    restart_row = spec.source.weights @ K0
    K = K0.copy()
    K[spec.sink_indicator] = restart_row
    return TransitionMatrix(K)


def general_hill_average(pi: Distribution, g: Observable, F) -> float:
    """pi(g) / pi(F) = E^rho[sum over one renewal cycle of g]."""
    mask = np.zeros(pi.n_states, dtype=bool)
    mask[list(F)] = True
    pf = float(pi.weights[mask].sum())
    if pf <= 0:
        raise ValueError("pi(F) = 0; the sink is never visited")
    return float(pi.weights @ g.values) / pf


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
    solve t = 1 + K0_restricted t on the complement of F."""
    n = K0.n_states
    mask = np.zeros(n, dtype=bool)
    mask[list(F)] = True
    if rho.weights[mask].sum() > 0:
        raise ValueError("rho has mass on F")
    outside = ~mask
    sub = K0.matrix[np.ix_(outside, outside)]
    m = int(outside.sum())
    try:
        t = np.linalg.solve(np.eye(m) - sub, np.ones(m))
    except np.linalg.LinAlgError as exc:
        raise ValueError("F is unreachable from some state (singular system)") from exc
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("F is unreachable from some state (invalid solution)")
    full = np.zeros(n)
    full[outside] = t
    return float(rho.weights @ full)


def stationary_replicate_estimates(
    K: TransitionMatrix,
    bins: BinPartition,
    policy_factory,
    f_guide: Observable,
    observables: Sequence[Observable],
    n: int,
    reps: int,
    rng: RngStream,
    n_particles: int,
    zeta: Optional[Distribution] = None,
    threads: int = 1,
    coarse_samples: int = 0,
) -> tuple[np.ndarray, CoarseModel, int]:
    """Run the stationary-average workflow and evaluate eta_n for several
    observables from the same replicates.

    Builds a coarse model on K guided by ``f_guide`` (exact, or from
    ``coarse_samples`` one-step samples), starts each replicate from the
    mu-preconditioned even-spread ensemble, and returns a
    (reps x len(observables)) matrix of eta_n values, the coarse model, and
    the number of extinct replicates, whose eta is 0 for every observable.
    ``policy_factory(bins, model)`` builds the selection policy.
    """
    n_states = K.n_states
    if zeta is None:
        zeta = Distribution(np.full(n_states, 1.0 / n_states))
    model = build_coarse_model(K, bins, zeta, f_guide, max(n, 1), coarse_samples,
                               rng.seed)
    init = stationary_init_ensemble(model.mu, bins, n_particles)
    policy = policy_factory(bins, model)
    one = partial(run_we, K, f_guide, policy, init, n, rng, v_table=model.v)
    out = np.zeros((reps, len(observables)))
    extinct = 0
    lo = 0
    for rec in replicates(one, reps, threads):
        hi = lo + len(rec.eta_f)
        extinct += int(rec.extinct.sum())
        for k, obs in enumerate(observables):
            out[lo:hi, k] = empirical_estimate(rec.final, obs)
        lo = hi
    return out, model, extinct


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
    policy_factory,
    n: int,
    reps: int,
    rng: RngStream,
    n_particles: int,
    zeta: Optional[Distribution] = None,
    threads: int = 1,
    coarse_samples: int = 0,
) -> HillEstimate:
    """Estimate E^rho[tau_F] = 1/pi(F) on the source-sink chain with f = 1_F."""
    K = source_sink_kernel(spec)
    f = Observable.indicator(sorted(spec.sink), K.n_states)
    etas, _, extinct = stationary_replicate_estimates(
        K, bins, policy_factory, f, [f], n, reps, rng, n_particles, zeta, threads,
        coarse_samples,
    )
    etas = etas[:, 0]
    mean = float(etas.mean())
    if mean <= 0:
        raise ValueError("mean eta_n(1_F) is not positive; cannot invert")
    std = float(etas.std(ddof=1)) if reps > 1 else 0.0
    return HillEstimate(
        eta_mean=mean,
        eta_std=std,
        eta_se=std / np.sqrt(reps),
        mfpt=1.0 / mean,
        replicate_etas=etas,
        invalid_replicates=int((etas <= 0).sum()),
        extinct_replicates=extinct,
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
    policy_factory,
    n: int,
    reps: int,
    rng: RngStream,
    n_particles: int,
    zeta: Optional[Distribution] = None,
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
    etas, _, extinct = stationary_replicate_estimates(
        K, bins, policy_factory, f_ab, [f_b, f_ab], n, reps, rng, n_particles, zeta,
        threads, coarse_samples,
    )
    mean_b = float(etas[:, 0].mean())
    mean_ab = float(etas[:, 1].mean())
    if mean_ab <= 0:
        raise ValueError("mean eta_n(1_{A u B}) is not positive")
    return HittingEstimate(
        probability=mean_b / mean_ab,
        eta_b_mean=mean_b,
        eta_ab_mean=mean_ab,
        replicate_etas=etas,
        extinct_replicates=extinct,
    )
