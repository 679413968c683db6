"""The weighted-ensemble particle system: selection, mutation, generation loop.

A generation goes selection -> mutation. Selection copies or kills particles
with per-particle mean children counts beta and reweights each child to its
parent's weight divided by beta, which keeps every weighted average unbiased.
Mutation evolves each selected particle independently under the chain kernel.

The chunk of `CHUNK` replicates is the unit of randomness: each (generation,
purpose) draws a chunk's uniforms from one stream keyed by its first
replicate. The pass, a few whole chunks in one flat particle array sorted by
replicate, is the unit of computation only: every stage but the draws acts on
each replicate alone, so which chunks share a pass moves no byte. Every
per-replicate sum is one `bincount`, which adds in particle order, so results
depend only on (seed, config). Passes go through one driver, `replicates`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterator, Optional, Sequence, TypeVar, Union

import numpy as np

from .binning import BinPartition
from .markov import Distribution, Observable, TransitionMatrix

_PURPOSES = {"init": 0, "select": 1, "mutate": 2, "coarse": 3}

# replicates per stream, part of the stream definition: the chunks
# 0..CHUNK-1, CHUNK..2*CHUNK-1, ... each draw from their first replicate's
# stream, so changing it changes every output byte.
CHUNK = 32
PASS_CHUNKS = 2
"""Chunks per pass, at most: more share numpy call overhead but raise the peak
memory, which two keep within 2% of one on `diagnose`. Changing it moves no byte."""


def _key_seed(key: np.ndarray) -> "np.random.bit_generator.ISeedSequence":
    """A seed sequence that answers Philox's one request, two uint64 words,
    with the given key. ``Philox(key=...)`` first builds a throwaway
    OS-entropy ``SeedSequence()``; seeded with this, it builds none."""
    return _key_seed_type()(key)


@cache
def _key_seed_type() -> type:
    # defined on first use: its base class's package, numpy.random, takes
    # about 20 ms to import; instances pickle through _key_seed
    class KeySeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.key

        def __reduce__(self):
            return _key_seed, (self.key,)

    return KeySeed


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, replicate, generation, purpose).

    A counter-based Philox generator (Salmon et al., "Parallel random numbers:
    as easy as 1, 2, 3", SC'11): its key is derived from the seed once, and
    ``at(p, purpose)`` starts its 256-bit counter at [0, replicate, p,
    purpose id]. Philox advances word 0, the draw index, so streams of
    different (replicate, generation, purpose) never overlap. Draws depend
    only on the key, never on execution order or thread count.
    """

    seed: int
    replicate: int = 0

    @cached_property
    def key(self) -> np.ndarray:
        return np.random.SeedSequence(self.seed).generate_state(2, np.uint64)

    def at(self, generation: int, purpose: str) -> np.random.Generator:
        """A new generator at the start of the (generation, purpose) stream."""
        counter = [0, self.replicate, generation, _PURPOSES[purpose]]
        return np.random.Generator(np.random.Philox(_key_seed(self.key),
                                                    counter=counter))


class _Replicates:
    """Flat per-particle states and positive, finite weights of a pass, sorted
    by replicate and cut by ``offsets``: replicate b owns the particles
    ``offsets[b]:offsets[b + 1]``; no offsets means one replicate."""

    offsets: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        o = np.asarray([0, s.size] if self.offsets is None else self.offsets, np.int64)
        if s.shape != w.shape or s.ndim != 1:
            raise ValueError("states and weights must be matching vectors")
        # false for NaN as well: min and max propagate it
        if s.size and not (w.min() > 0 and w.max() < np.inf):
            raise ValueError("particle weights must be positive and finite")
        if (o.ndim != 1 or o.size < 2 or o[0] != 0 or o[-1] != s.size
                or (o[1:] < o[:-1]).any()):
            raise ValueError("offsets must rise from 0 to the particle count")
        for name, a in (("states", s), ("weights", w), ("offsets", o)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def _trusted(cls, **fields):
        """One built from arrays the engine made, which meet the checks above
        already (weights from `select`'s per-bin check), so none runs."""
        for name in ("states", "weights", "offsets"):
            fields[name].setflags(write=False)
        built = object.__new__(cls)
        built.__dict__.update(fields)
        return built

    @property
    def n_replicates(self) -> int:
        return self.offsets.size - 1

    @property
    def sizes(self) -> np.ndarray:
        """Particles per replicate."""
        return self.offsets[1:] - self.offsets[:-1]

    @cached_property
    def replicate_of(self) -> np.ndarray:
        """Batch index of the replicate each particle belongs to."""
        return np.repeat(np.arange(self.n_replicates), self.sizes)

    def replicate_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of a per-particle array over each replicate's particles, 0 for
        an extinct replicate: one bincount, which adds in particle order."""
        return np.bincount(self.replicate_of, weights=values,
                           minlength=self.n_replicates)


@dataclass(frozen=True)
class Ensemble(_Replicates):
    """Particle populations of a pass of replicates at one generation: states
    and strictly positive weights.

    The flat arrays are sorted by replicate; replicate b owns the particles
    ``offsets[b]:offsets[b + 1]``. Without offsets the ensemble is one
    replicate. An extinct replicate owns no particles.
    """

    generation: int
    states: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    offsets: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def n_particles(self) -> int:
        """Particles in the whole pass."""
        return self.states.shape[0]

    @property
    def total_weight(self) -> np.ndarray:
        """Total weight per replicate, added in particle order (`replicate_sums`)."""
        return self.replicate_sums(self.weights)


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
    floored at n_floor particles per bin.

    ``v`` is the coarse model's variance-proxy table for a horizon H, a row
    per generation and a column per bin, checked and square-rooted (``root_v``)
    once, here, and read-only. A run to horizon n <= H reads row H - n + p at
    generation p, which is row p of the table for horizon n, bit for bit.
    """

    bins: BinPartition
    total_target: float
    n_floor: float
    v: np.ndarray = field(repr=False)
    root_v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        R = self.bins.n_bins
        if not 0 < self.n_floor < self.total_target / R:
            raise ValueError(f"floor must lie in (0, N/R) = (0, {self.total_target / R})")
        v = np.array(self.v, dtype=float)  # a missing table has shape ()
        if v.ndim != 2 or v.shape[1] != R:
            raise ValueError(f"v table must have {R} columns, one per bin; "
                             f"its shape is {v.shape}")
        if not (np.isfinite(v).all() and (v >= 0).all()):
            raise ValueError("variance proxies must be finite and nonnegative")
        for name, a in (("v", v), ("root_v", np.sqrt(v))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def row(self, p: int, n: Optional[int] = None) -> int:
        """The table row of generation p in a run to horizon n (default H)."""
        return p if n is None else len(self.v) - n + p


SelectionPolicy = Union[NaivePolicy, TraditionalPolicy, AdaptivePolicy]


@dataclass(frozen=True)
class SelectionOutcome(_Replicates):
    """Result of one selection step over a pass.

    ``parent_of[i]`` is the index into the parent ensemble of selected particle
    i; children of parent j all carry weight ``weights[j] / mean_children[j]``.
    Children stay sorted by replicate, and ``offsets`` bounds each replicate's
    children as in `Ensemble`.
    """

    states: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    parent_of: np.ndarray = field(repr=False)
    children_count: np.ndarray = field(repr=False)
    mean_children: np.ndarray = field(repr=False)
    generation: int = 0
    offsets: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def n_selected(self) -> int:
        """Children in the whole pass."""
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


def init_ensemble(initial: Distribution, n0: int) -> Ensemble:
    """Initial population of n0 particles with equal weights 1/n0, with
    deterministic per-state counts matching n0 * initial by largest remainder."""
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    counts = largest_remainder(n0 * initial.weights, n0)
    states = np.repeat(np.arange(initial.n_states), counts)
    return Ensemble(0, states, np.full(n0, 1.0 / n0))


def stationary_init_ensemble(
    mu: Distribution, bins: BinPartition, n_particles: int
) -> Ensemble:
    """Spread particles evenly over bins with weights from the coarse stationary
    vector: each bin gets ~N/R particles, each carrying mu_r / (count in bin).

    Bins with zero coarse mass (possible on source-sink chains, whose sink
    interior is transient: `markov.stationary` gives it exactly 0) receive
    no particles: a zero-weight particle would never be selected and is not
    allowed.
    """
    R = bins.n_bins
    if n_particles < R:
        raise ValueError(f"need at least {R} particles so no bin is empty")
    if mu.n_states != R:
        raise ValueError("mu must be a distribution over bins")
    quotas = np.where(mu.weights > 0, n_particles / R, 0.0)
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


def stochastic_round(beta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Round each beta >= 0 to floor(beta) or floor(beta)+1 with mean exactly
    beta, using the uniform u in [0, 1) beside it: the larger count iff
    u < beta - floor(beta).

    This is the minimal-second-moment integer law with mean beta.
    """
    if beta.size and beta.min() < 0:
        raise ValueError("beta must be >= 0")
    if u.shape != beta.shape:
        raise ValueError("need one uniform per beta")
    low = np.floor(beta)
    return (low + (u < beta - low)).astype(np.int64)


def bin_totals(e: Ensemble, bins: BinPartition,
               key: Optional[np.ndarray] = None) -> np.ndarray:
    """Total particle weight per replicate and bin, a (replicates x bins) array.

    One bincount on ``key``, replicate * R + bin unless given; it adds each
    bin's weights in particle order, as a bincount over one replicate does.
    """
    R = bins.n_bins
    key = e.replicate_of * R + bins.bin_of[e.states] if key is None else key
    return np.bincount(key, weights=e.weights,
                       minlength=e.n_replicates * R).reshape(-1, R)


def allocate_targets(bin_weight: np.ndarray, policy: AdaptivePolicy,
                     row: int) -> np.ndarray:
    """Per-bin target particle numbers: (N - floor*R) sqrt(v_r) w_r / sum + floor,
    with v the policy's table row ``row``.

    w_r is the bin's total particle weight, one row of ``bin_weight`` per
    replicate (`bin_totals`). A replicate whose occupied bins all have v = 0
    has a vanishing denominator, and every one of its bins gets the floor.
    """
    score = policy.root_v[row] * bin_weight
    total = score.sum(axis=-1, keepdims=True)
    # where the total is 0 every score is 0 too, and dividing by 1 gives the floor
    denom = np.where(total == 0, 1.0, total)
    N, floor = policy.total_target, policy.n_floor
    return (N - floor * policy.bins.n_bins) * score / denom + floor


def _mean_children_and_child_weights(
    e: Ensemble, policy: SelectionPolicy, horizon: Optional[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle beta and the weight each of its children will carry."""
    if isinstance(policy, NaivePolicy):
        return np.ones(e.n_particles), e.weights
    bins = policy.bins
    key = e.replicate_of * bins.n_bins + bins.bin_of[e.states]
    bin_weight = bin_totals(e, bins, key)
    if isinstance(policy, TraditionalPolicy):
        targets = policy.per_bin_target
    else:
        targets = allocate_targets(bin_weight, policy, policy.row(e.generation, horizon))
    omega_bar = bin_weight / targets  # targets are positive; read for occupied bins
    # checked per (replicate, bin): max is NaN if any is; only empty bins give 0
    if not (omega_bar.max() < np.inf
            and np.count_nonzero(omega_bar) == np.count_nonzero(bin_weight)):
        raise ValueError("child weights must be positive and finite")
    child_weight = omega_bar.ravel()[key]
    return e.weights / child_weight, child_weight


def select(
    e: Ensemble,
    policy: SelectionPolicy,
    u: Optional[np.ndarray] = None,
    horizon: Optional[int] = None,
) -> SelectionOutcome:
    """Selection step over a pass: draw children counts and reweight.

    Under bin policies, all children in bin r of a replicate share the weight
    omega_bar_r = (bin weight) / (bin target); empty bins stay empty. Counts
    are stochastically rounded with the uniforms ``u``, one per particle. The
    naive policy copies every particle once deterministically and needs none.
    The adaptive policy reads the v row of generation ``e.generation`` in a
    run to ``horizon`` (`AdaptivePolicy.row`). An empty outcome (extinction)
    is legal.
    """
    if e.n_particles == 0:
        raise ValueError("cannot select from an empty ensemble")
    beta, child_weight = _mean_children_and_child_weights(e, policy, horizon)
    if isinstance(policy, NaivePolicy):
        counts = np.ones(e.n_particles, dtype=np.int64)
    else:
        if u is None:
            raise ValueError("bin policies need uniforms for stochastic rounding")
        counts = stochastic_round(beta, u)
    parent_of = np.repeat(np.arange(e.n_particles), counts)
    return SelectionOutcome._trusted(
        states=e.states[parent_of],
        weights=child_weight[parent_of],
        parent_of=parent_of,
        children_count=counts,
        mean_children=beta,
        generation=e.generation,
        # replicate b's children are those of parents below offsets[b + 1]
        offsets=np.searchsorted(parent_of, e.offsets),
    )


def mutate(s: SelectionOutcome, K: TransitionMatrix, u: np.ndarray) -> Ensemble:
    """Evolve each selected particle one step under K, keeping its weight.

    Inverts the row CDF (`TransitionMatrix.step`) at the uniforms ``u``, one
    per particle in particle order, so a run with the naive policy reproduces
    plain independent chains bit for bit under the same draws.
    """
    return Ensemble._trusted(generation=s.generation + 1, states=K.step(s.states, u),
                             weights=s.weights, offsets=s.offsets,
                             replicate_of=s.replicate_of)


def empirical_estimate(e: Ensemble, f: Observable) -> np.ndarray:
    """eta_p(f) = sum_j w_j f(xi_j) per replicate; 0 for an extinct one."""
    return e.replicate_sums(e.weights * f.values[e.states])


@dataclass
class RunRecord:
    """Per-generation traces of a pass of WE runs, one row per replicate."""

    eta_f: np.ndarray  # (replicates, n+1)
    num_particles: np.ndarray
    total_weight: np.ndarray
    extinct: np.ndarray  # (replicates,) bool: no particle left at generation n
    tau_kill: Optional[int]  # generation the whole pass was extinct at, if any
    final: Ensemble


def run_we(
    K: TransitionMatrix,
    f: Observable,
    policy: SelectionPolicy,
    init: Ensemble,
    n: int,
    seed: int,
    reps: Sequence[int],
    observe: Optional[Callable[[int, Ensemble, SelectionOutcome], None]] = None,
) -> RunRecord:
    """Run the select -> mutate loop for n generations on a pass of replicates.

    Every replicate starts from ``init``, at generation 0. ``reps`` is cut
    into chunks of `CHUNK` from ``reps[0]`` on; each draws its particles'
    uniforms, in particle order, from the stream of ``seed`` and its first
    replicate, so a row depends on its chunk alone. The adaptive policy's v
    table needs at least n rows. An extinct replicate has eta 0 from then on
    by convention; the loop stops when the whole pass is.
    ``observe(p, ensemble, outcome)``, if given, is called at every
    generation p < n that selects, with the pre-selection pass and the
    selection made from it.
    """
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if init.n_replicates != 1:
        raise ValueError("init must be a single replicate's ensemble")
    if isinstance(policy, AdaptivePolicy) and n > len(policy.v):
        raise ValueError(f"v table has {len(policy.v)} rows, fewer than horizon {n}")
    naive = isinstance(policy, NaivePolicy)  # copies every particle, draws nothing
    B = len(reps)
    cuts = np.append(np.arange(0, B, CHUNK), B)  # the chunks' replicate bounds
    streams = [RngStream(seed, int(reps[lo])) for lo in cuts[:-1]]

    def uniforms(p: int, purpose: str, offsets: np.ndarray) -> np.ndarray:
        u, bounds = np.empty(offsets[-1]), offsets[cuts].tolist()
        for stream, lo, hi in zip(streams, bounds, bounds[1:]):
            if hi > lo:  # an extinct chunk draws nothing
                stream.at(p, purpose).random(out=u[lo:hi])
        return u
    eta = np.zeros((B, n + 1))
    num = np.zeros((B, n + 1), dtype=np.int64)
    tot = np.zeros((B, n + 1))

    e = Ensemble(0, np.tile(init.states, B), np.tile(init.weights, B),
                 np.arange(B + 1) * init.n_particles)
    tau_kill: Optional[int] = None
    for p in range(n + 1):
        eta[:, p] = empirical_estimate(e, f)
        num[:, p] = e.sizes
        tot[:, p] = e.total_weight
        if e.n_particles == 0:
            tau_kill = p
            break
        if p == n:
            break
        u = None if naive else uniforms(p, "select", e.offsets)
        outcome = select(e, policy, u, n)
        if observe is not None:
            observe(p, e, outcome)
        e = mutate(outcome, K, uniforms(p, "mutate", outcome.offsets))
    return RunRecord(
        eta_f=eta,
        num_particles=num,
        total_weight=tot,
        extinct=num[:, n] == 0,
        tau_kill=tau_kill,
        # anew, so that a caller who keeps finals keeps no replicate_of
        final=Ensemble._trusted(generation=e.generation, states=e.states,
                                weights=e.weights, offsets=e.offsets),
    )


T = TypeVar("T")


_worker_one: Optional[Callable[[range], object]] = None


def _install(one: Callable[[range], object]) -> None:
    global _worker_one
    _worker_one = one


def _call_installed(reps: range):
    return _worker_one(reps)


def replicates(one: Callable[[range], T], reps: int, threads: int = 1) -> Iterator[T]:
    """Yield one(pass) for consecutive passes over replicates 0..reps-1, in
    replicate order: ranges of at most `PASS_CHUNKS` whole chunks, and with
    threads > 1 of at most ceil(chunks / threads), so each worker gets work.

    With threads > 1 the calls run in that many worker processes, and each
    worker receives ``one`` once, when it starts, then only passes, so a
    large argument (a chain, and the sampling tables it caches) reaches a
    worker and is built there once. Workers fork from this process, sharing
    its memory, when it runs no other thread. Otherwise forking is unsafe,
    and they fork from a single-threaded server that has imported this module
    (the forkserver start method), so ``one`` must pickle: a functools.partial
    of a module-level function.
    Callers fold the results in the order given, so every output depends only
    on what ``one`` computes, never on the thread count.
    """
    # ceil(chunks / threads) chunks is ceil(reps / (CHUNK * threads))
    step = CHUNK * max(1, min(PASS_CHUNKS, -(-reps // (CHUNK * max(threads, 1)))))
    passes = [range(lo, min(lo + step, reps)) for lo in range(0, reps, step)]
    if threads <= 1 or len(passes) <= 1:
        yield from map(one, passes)
        return
    # imported here: a single-process run does not pay for loading them
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    if threading.active_count() == 1:
        context = multiprocessing.get_context("fork")
    else:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
    with ProcessPoolExecutor(min(threads, len(passes)), mp_context=context,
                             initializer=_install, initargs=(one,)) as pool:
        yield from pool.map(_call_installed, passes)
