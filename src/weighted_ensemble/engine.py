"""The weighted-ensemble particle system: selection, mutation, generation loop.

A generation goes selection -> mutation. Selection copies or kills particles
with per-particle mean children counts beta and reweights each child to its
parent's weight divided by beta, which keeps every weighted average unbiased.
Mutation evolves each selected particle independently under the chain kernel.
Independent replicates of a run go through one driver, `replicates`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, TypeVar, Union

import numpy as np

from .binning import BinPartition
from .markov import Distribution, Observable, TransitionMatrix

_PURPOSES = {"init": 0, "select": 1, "mutate": 2, "coarse": 3}


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, replicate, generation, purpose).

    Draws depend only on the key, never on execution order or thread count, so
    parallel replicates reproduce exactly.
    """

    seed: int
    replicate: int = 0

    def for_replicate(self, replicate: int) -> "RngStream":
        return RngStream(self.seed, replicate)

    def at(self, generation: int, purpose: str) -> np.random.Generator:
        key = (self.replicate, generation, _PURPOSES[purpose])
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        )


@dataclass(frozen=True)
class Ensemble:
    """Particle population at one generation: states and strictly positive weights."""

    generation: int
    states: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        if s.shape != w.shape or s.ndim != 1:
            raise ValueError("states and weights must be matching vectors")
        if s.size and (np.any(w <= 0) or not np.all(np.isfinite(w))):
            raise ValueError("particle weights must be positive and finite")
        s.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "weights", w)

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def empirical_distribution(self, n_states: int) -> Distribution:
        w = np.bincount(self.states, weights=self.weights, minlength=n_states)
        return Distribution(w / w.sum())


@dataclass(frozen=True)
class NaivePolicy:
    """No selection: every particle is copied exactly once with its own weight."""


@dataclass(frozen=True)
class TraditionalPolicy:
    """Fixed target number of particles per occupied bin."""

    bins: BinPartition
    per_bin_target: float

    def __post_init__(self):
        if self.per_bin_target <= 0:
            raise ValueError("per_bin_target must be positive")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Coarse-model-guided targets: proportional to bin weight times sqrt(v),
    floored at n_floor particles per bin."""

    bins: BinPartition
    total_target: float
    n_floor: float

    def __post_init__(self):
        if not 0 < self.n_floor < self.total_target / self.bins.n_bins:
            raise ValueError(
                f"floor must lie in (0, N/R) = (0, {self.total_target / self.bins.n_bins})"
            )


SelectionPolicy = Union[NaivePolicy, TraditionalPolicy, AdaptivePolicy]


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one selection step.

    ``parent_of[i]`` is the index into the parent ensemble of selected particle
    i; children of parent j all carry weight ``weights[j] / mean_children[j]``.
    """

    states: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    parent_of: np.ndarray = field(repr=False)
    children_count: np.ndarray = field(repr=False)
    mean_children: np.ndarray = field(repr=False)
    generation: int = 0

    @property
    def n_selected(self) -> int:
        return self.states.shape[0]


def largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of `total` seats to fractional quotas.

    Floors every quota, then hands the leftover seats to the largest
    remainders, breaking ties by lower index.
    """
    quotas = np.asarray(quotas, dtype=float)
    base = np.floor(quotas).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover < 0:
        raise ValueError("quotas exceed the total")
    if leftover > 0:
        remainders = quotas - base
        order = np.lexsort((np.arange(quotas.size), -remainders))
        base[order[:leftover]] += 1
    return base


def init_ensemble(
    initial: Distribution,
    n0: int,
    placement: str = "stratified",
    rng: Optional[np.random.Generator] = None,
) -> Ensemble:
    """Initial population of n0 particles with equal weights 1/n0.

    `sampled` draws states i.i.d. from `initial`; `stratified` assigns
    deterministic per-state counts matching n0 * initial by largest remainder.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if placement == "sampled":
        if rng is None:
            raise ValueError("sampled placement needs an rng")
        states = rng.choice(initial.n_states, size=n0, p=initial.weights)
        states = np.sort(states)
    elif placement == "stratified":
        counts = largest_remainder(n0 * initial.weights, n0)
        states = np.repeat(np.arange(initial.n_states), counts)
    else:
        raise ValueError(f"unknown placement {placement!r}")
    return Ensemble(0, states, np.full(n0, 1.0 / n0))


def stationary_init_ensemble(
    mu: Distribution, bins: BinPartition, n_particles: int
) -> Ensemble:
    """Spread particles evenly over bins with weights from the coarse stationary
    vector: each bin gets ~N/R particles, each carrying mu_r / (count in bin).

    Bins with zero coarse mass (possible on source-sink chains, whose sink
    interior is transient) receive no particles: a zero-weight particle would
    never be selected and is not allowed. Mass at most 1e-12 of the largest,
    the roundoff that `markov.stationary` leaves on such bins, counts as zero.
    """
    R = bins.n_bins
    if n_particles < R:
        raise ValueError(f"need at least {R} particles so no bin is empty")
    if mu.n_states != R:
        raise ValueError("mu must be a distribution over bins")
    quotas = np.where(mu.weights > 1e-12 * mu.weights.max(), n_particles / R, 0.0)
    scale = n_particles / quotas.sum()
    per_bin = largest_remainder(quotas * scale, n_particles)
    states = []
    weights = []
    for r in range(R):
        if per_bin[r] == 0:
            continue
        members = bins.states_in(r)
        k = int(per_bin[r])
        # round-robin over the bin's states
        chosen = members[np.arange(k) % members.size]
        states.append(np.sort(chosen))
        weights.append(np.full(k, mu.weights[r] / k))
    return Ensemble(0, np.concatenate(states), np.concatenate(weights))


def stochastic_round(beta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Round each beta >= 0 to floor(beta) or floor(beta)+1 with mean exactly
    beta, drawing one uniform per entry in order.

    This is the minimal-second-moment integer law with mean beta.
    """
    if beta.size and beta.min() < 0:
        raise ValueError("beta must be >= 0")
    low = np.floor(beta)
    return (low + (rng.random(beta.size) < beta - low)).astype(np.int64)


def bin_totals(e: Ensemble, bins: BinPartition) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin particle counts and total weights."""
    R = bins.n_bins
    if e.n_particles == 0:
        return np.zeros(R, dtype=np.int64), np.zeros(R)
    b = bins.bin_of[e.states]
    counts = np.bincount(b, minlength=R)
    weights = np.bincount(b, weights=e.weights, minlength=R)
    return counts, weights


def allocate_targets(
    e: Ensemble,
    bins: BinPartition,
    v_p: np.ndarray,
    total_target: float,
    n_floor: float,
) -> np.ndarray:
    """Per-bin target particle numbers: (N - floor*R) sqrt(v_r) w_r / sum + floor.

    w_r is the bin's total particle weight. If every occupied bin has v = 0 the
    denominator vanishes and every bin gets the floor.
    """
    R = bins.n_bins
    if not 0 < n_floor < total_target / R:
        raise ValueError("floor must lie in (0, N/R)")
    v_p = np.asarray(v_p, dtype=float)
    if np.any(v_p < 0):
        raise ValueError("variance proxies must be nonnegative")
    _, w = bin_totals(e, bins)
    score = np.sqrt(v_p) * w
    denom = score.sum()
    if denom == 0:
        return np.full(R, n_floor)
    return (total_target - n_floor * R) * score / denom + n_floor


def _mean_children_and_child_weights(
    e: Ensemble, policy: SelectionPolicy, v_p: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle beta and the weight each of its children will carry."""
    if isinstance(policy, NaivePolicy):
        return np.ones(e.n_particles), e.weights.copy()
    bins = policy.bins
    _, bin_weight = bin_totals(e, bins)
    if isinstance(policy, TraditionalPolicy):
        targets = np.full(bins.n_bins, policy.per_bin_target)
    else:
        if v_p is None:
            raise ValueError("adaptive policy needs the per-bin variance proxies v_p")
        targets = allocate_targets(e, bins, v_p, policy.total_target, policy.n_floor)
    with np.errstate(invalid="ignore", divide="ignore"):
        omega_bar = bin_weight / targets  # only meaningful for occupied bins
    b = bins.bin_of[e.states]
    child_weight = omega_bar[b]
    beta = e.weights / child_weight
    return beta, child_weight


def select(
    e: Ensemble,
    policy: SelectionPolicy,
    v_p: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> SelectionOutcome:
    """Selection step: draw children counts and reweight.

    Under bin policies, all children in bin r share the weight
    omega_bar_r = (bin weight) / (bin target); empty bins stay empty. The naive
    policy copies every particle once deterministically and consumes no
    randomness. An empty outcome (extinction) is legal.
    """
    if e.n_particles == 0:
        raise ValueError("cannot select from an empty ensemble")
    beta, child_weight = _mean_children_and_child_weights(e, policy, v_p)
    if isinstance(policy, NaivePolicy):
        counts = np.ones(e.n_particles, dtype=np.int64)
    else:
        if rng is None:
            raise ValueError("bin policies need an rng for stochastic rounding")
        counts = stochastic_round(beta, rng)
    parent_of = np.repeat(np.arange(e.n_particles), counts)
    return SelectionOutcome(
        states=e.states[parent_of],
        weights=child_weight[parent_of],
        parent_of=parent_of,
        children_count=counts,
        mean_children=beta,
        generation=e.generation,
    )


def mutate(
    s: SelectionOutcome, K: TransitionMatrix, rng: np.random.Generator
) -> Ensemble:
    """Evolve each selected particle one step under K, keeping its weight.

    Draws one uniform per particle in particle order and inverts the row CDF
    (`TransitionMatrix.step`), so a run with the naive policy reproduces plain
    independent chains bit for bit under the same stream.
    """
    if s.n_selected == 0:
        return Ensemble(s.generation + 1, np.empty(0, np.int64), np.empty(0))
    return Ensemble(s.generation + 1, K.step(s.states, rng), s.weights.copy())


def empirical_estimate(e: Ensemble, f: Observable) -> float:
    """eta_p(f) = sum_j w_j f(xi_j); 0 for an empty (extinct) ensemble."""
    if e.n_particles == 0:
        return 0.0
    return float(e.weights @ f.values[e.states])


@dataclass
class RunRecord:
    """Per-generation trace of one WE run."""

    eta_f: np.ndarray
    num_particles: np.ndarray
    total_weight: np.ndarray
    bin_counts: Optional[np.ndarray]  # (n+1, R) or None without bins
    bin_weights: Optional[np.ndarray]
    extinct: bool
    tau_kill: Optional[int]
    final: Ensemble


def _policy_bins(policy: SelectionPolicy) -> Optional[BinPartition]:
    return None if isinstance(policy, NaivePolicy) else policy.bins


def run_we(
    K: TransitionMatrix,
    f: Observable,
    policy: SelectionPolicy,
    init: Ensemble,
    n: int,
    rng: RngStream,
    v_table: Optional[np.ndarray] = None,
    observe: Optional[Callable[[int, Ensemble, SelectionOutcome], None]] = None,
) -> RunRecord:
    """Run the select -> mutate loop for n generations from a given ensemble.

    For the adaptive policy, ``v_table`` must hold the per-generation, per-bin
    variance proxies with at least n rows. Stops early on extinction; eta is 0
    from then on by convention. ``observe(p, ensemble, outcome)``, if given, is
    called at every generation p < n that selects, with the pre-selection
    ensemble and the selection made from it.
    """
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if isinstance(policy, AdaptivePolicy) and n >= 1:
        if v_table is None:
            raise ValueError("adaptive policy requires a v table (use a coarse model)")
        v_table = np.asarray(v_table, dtype=float)
        if v_table.shape[0] < n:
            raise ValueError(f"v table has {v_table.shape[0]} rows, need {n}")
    bins = _policy_bins(policy)
    R = bins.n_bins if bins is not None else 0
    eta = np.zeros(n + 1)
    num = np.zeros(n + 1, dtype=np.int64)
    tot = np.zeros(n + 1)
    bc = np.zeros((n + 1, R), dtype=np.int64) if bins is not None else None
    bw = np.zeros((n + 1, R)) if bins is not None else None

    e = init
    tau_kill: Optional[int] = None
    for p in range(n + 1):
        eta[p] = empirical_estimate(e, f)
        num[p] = e.n_particles
        tot[p] = e.total_weight
        if bins is not None:
            bc[p], bw[p] = bin_totals(e, bins)
        if e.n_particles == 0:
            tau_kill = p
            break
        if p == n:
            break
        v_p = v_table[p] if isinstance(policy, AdaptivePolicy) else None
        select_rng = None if bins is None else rng.at(p, "select")  # naive: no draws
        outcome = select(e, policy, v_p, select_rng)
        if observe is not None:
            observe(p, e, outcome)
        e = mutate(outcome, K, rng.at(p, "mutate"))
    return RunRecord(
        eta_f=eta,
        num_particles=num,
        total_weight=tot,
        bin_counts=bc,
        bin_weights=bw,
        extinct=tau_kill is not None,
        tau_kill=tau_kill,
        final=e,
    )


T = TypeVar("T")


def replicates(one: Callable[[int], T], reps: int, threads: int = 1) -> Iterator[T]:
    """Yield one(rep) for rep = 0..reps-1, in replicate order.

    With threads > 1 the calls run in that many worker processes, forked from
    a single-threaded server that has imported this module (the forkserver
    start method), so ``one`` must pickle: a functools.partial of a
    module-level function.
    Callers fold the results in the order given, so every output depends only
    on what ``one`` computes, never on the thread count.
    """
    if threads <= 1 or reps <= 1:
        yield from map(one, range(reps))
        return
    # imported here: a single-process run does not pay for loading them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(threads, reps)
    chunk = -(-reps // (4 * workers))
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__name__])
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        yield from pool.map(one, range(reps), chunksize=chunk)


def run_replicate(
    K: TransitionMatrix,
    f: Observable,
    policy: SelectionPolicy,
    init: Ensemble,
    n: int,
    rng: RngStream,
    v_table: Optional[np.ndarray],
    rep: int,
) -> RunRecord:
    """run_we on replicate ``rep`` of the stream ``rng``; bind every argument
    but ``rep`` with functools.partial to drive it through `replicates`."""
    return run_we(K, f, policy, init, n, rng.for_replicate(rep), v_table=v_table)
