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
per-replicate sum is one `np.add.reduceat` over the replicates' offsets, whose
sum for a replicate depends on that replicate's values alone, so results
depend only on (seed, config). Passes go through one driver, `replicates`.
"""
from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar, Union

import numpy as np
import numpy.random

from .binning import BinPartition
from .markov import Distribution, Observable, TransitionMatrix

_PURPOSES = {"select": 1, "mutate": 2, "coarse": 3}

# replicates per stream, part of the stream definition: the chunks
# 0..CHUNK-1, CHUNK..2*CHUNK-1, ... each draw from their first replicate's
# stream, so changing it changes every output byte.
CHUNK = 32
PASS_CHUNKS = 2
"""Chunks per pass, at most: more share numpy call overhead but raise the peak
memory, which two keep within 2% of one on `diagnose`. Changing it moves no byte."""


class RngStream:
    """Reproducible random stream keyed by (seed, replicate, generation, purpose).

    A counter-based Philox generator (Salmon et al., "Parallel random numbers:
    as easy as 1, 2, 3", SC'11), built once with its key derived from the
    seed. ``at(p, purpose)`` re-points it: its 256-bit counter restarts at
    [0, replicate, p, purpose id], with no buffered words. Philox advances
    word 0, the draw index, so streams of different (replicate, generation,
    purpose) never overlap. Draws depend only on the key and the counter,
    never on execution order or thread count.
    """

    def __init__(self, seed: int, replicate: int = 0):
        self.replicate = replicate
        self._generator = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed)))
        # counter 0 and an empty buffer; `at` writes the counter's words 1-3
        self._fresh = self._generator.bit_generator.state

    def at(self, generation: int, purpose: str) -> np.random.Generator:
        """The stream's one generator, at the start of the (generation,
        purpose) stream; an earlier `at`'s draws are abandoned."""
        self._fresh["state"]["counter"][1:] = (self.replicate, generation,
                                               _PURPOSES[purpose])
        self._generator.bit_generator.state = self._fresh
        return self._generator


class Ensemble:
    """Particle populations of a pass of replicates at one generation: flat
    per-particle states and positive, finite weights, sorted by replicate and
    cut by ``offsets``. Replicate b owns the particles
    ``offsets[b]:offsets[b + 1]``; no offsets means one replicate. An extinct
    replicate owns no particles.
    """

    def __init__(self, generation: int, states: np.ndarray, weights: np.ndarray,
                 offsets: Optional[np.ndarray] = None):
        s = np.asarray(states, dtype=np.int64)
        w = np.asarray(weights, dtype=float)
        o = np.asarray([0, s.size] if offsets is None else offsets, np.int64)
        if s.shape != w.shape or s.ndim != 1:
            raise ValueError("states and weights must be matching vectors")
        # false for NaN as well: min and max propagate it
        if s.size and not (w.min() > 0 and w.max() < np.inf):
            raise ValueError("particle weights must be positive and finite")
        if (o.ndim != 1 or o.size < 2 or o[0] != 0 or o[-1] != s.size
                or (o[1:] < o[:-1]).any()):
            raise ValueError("offsets must rise from 0 to the particle count")
        for a in (s, w, o):
            a.setflags(write=False)
        self.generation = generation
        self.states, self.weights, self.offsets = s, w, o

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
    def n_particles(self) -> int:
        """Particles in the whole pass."""
        return self.states.shape[0]

    @property
    def n_replicates(self) -> int:
        return self.offsets.size - 1

    @property
    def sizes(self) -> np.ndarray:
        """Particles per replicate."""
        return self.offsets[1:] - self.offsets[:-1]

    def replicate_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of a per-particle array over each replicate's particles, 0 for
        an extinct replicate: one `np.add.reduceat` from the occupied
        replicates' first particles (no start reaches the particle count, so
        none is clipped), scattered into zeros only when a replicate is
        extinct. A replicate's sum is its first value plus numpy's blocked
        pairwise sum of the rest, so it depends on that replicate's values
        alone, not on where the replicate sits in the pass."""
        starts = self.offsets[:-1]
        occupied = self.offsets[1:] > starts
        if occupied.all():
            return np.add.reduceat(values, starts)
        sums = np.zeros(occupied.size)
        sums[occupied] = np.add.reduceat(values, starts[occupied])
        return sums

    @property
    def total_weight(self) -> np.ndarray:
        """Total weight per replicate (`replicate_sums`)."""
        return self.replicate_sums(self.weights)


class NaivePolicy:
    """No selection: every particle is copied exactly once with its own weight."""


class TraditionalPolicy:
    """Fixed target number of particles per occupied bin."""

    def __init__(self, bins: BinPartition, per_bin_target: float):
        if per_bin_target <= 0:
            raise ValueError("per_bin_target must be positive")
        self.bins, self.per_bin_target = bins, per_bin_target


class AdaptivePolicy:
    """Coarse-model-guided targets: proportional to bin weight times sqrt(v),
    floored at n_floor particles per bin.

    ``v`` is the coarse model's variance-proxy table for a horizon H, a row
    per generation and a column per bin, checked and square-rooted (``root_v``)
    once, here, and read-only. A run to horizon n <= H reads row H - n + p at
    generation p, which is row p of the table for horizon n, bit for bit.
    """

    def __init__(self, bins: BinPartition, total_target: float, n_floor: float,
                 v: np.ndarray):
        R = bins.n_bins
        if not 0 < n_floor < total_target / R:
            raise ValueError(f"floor must lie in (0, N/R) = (0, {total_target / R})")
        v = np.array(v, dtype=float)  # a missing table has shape ()
        if v.ndim != 2 or v.shape[1] != R:
            raise ValueError(f"v table must have {R} columns, one per bin; "
                             f"its shape is {v.shape}")
        if not (np.isfinite(v).all() and (v >= 0).all()):
            raise ValueError("variance proxies must be finite and nonnegative")
        root_v = np.sqrt(v)
        for a in (v, root_v):
            a.setflags(write=False)
        self.bins, self.total_target, self.n_floor = bins, total_target, n_floor
        self.v, self.root_v = v, root_v

    def row(self, p: int, n: Optional[int] = None) -> int:
        """The table row of generation p in a run to horizon n (default H)."""
        return p if n is None else len(self.v) - n + p


SelectionPolicy = Union[NaivePolicy, TraditionalPolicy, AdaptivePolicy]


class SelectionOutcome(Ensemble):
    """The children of one selection over a pass: an `Ensemble` at the
    parents' generation, still sorted by replicate, that also records
    ``parent_of[i]``, the index into the parent ensemble of child i, and
    ``mean_children[j]``, parent j's beta; children of parent j all carry
    weight ``weights[j] / mean_children[j]``.
    """

    def __init__(self, states: np.ndarray, weights: np.ndarray, parent_of: np.ndarray,
                 mean_children: np.ndarray, generation: int = 0,
                 offsets: Optional[np.ndarray] = None):
        super().__init__(generation, states, weights, offsets)
        self.parent_of, self.mean_children = parent_of, mean_children

    # children in the whole pass, by the name bench/probe.py's mutate counter reads
    n_selected = Ensemble.n_particles


def stationary_init_ensemble(
    mu: Distribution, bins: BinPartition, n_particles: int
) -> Ensemble:
    """Spread particles evenly over bins with weights from the coarse stationary
    vector: each of the k occupied bins gets N // k particles, the first N % k
    of them one more, each carrying mu_r / (count in bin).

    Bins with zero coarse mass (possible on source-sink chains, whose sink
    interior is transient: `markov.stationary` gives it exactly 0) receive
    no particles: a zero-weight particle would never be selected and is not
    allowed. So do bins whose mass is so small (a subnormal) that
    mu_r / n_particles underflows to 0; a bin that keeps k <= n_particles
    particles then gives each a positive weight.
    """
    R = bins.n_bins
    if n_particles < R:
        raise ValueError(f"need at least {R} particles so no bin is empty")
    if mu.n_states != R:
        raise ValueError("mu must be a distribution over bins")
    occupied = mu.weights / n_particles > 0
    n_occupied = int(occupied.sum())
    per_bin = np.zeros(R, np.int64)
    per_bin[occupied] = (n_particles // n_occupied
                         + (np.arange(n_occupied) < n_particles % n_occupied))
    # a bin's k particles sit round-robin on its m states, ascending, so its
    # j-th state takes k // m + (j < k % m) of them: one pass over the states
    # in (bin, state) order, each with its rank in its bin
    size = np.bincount(bins.bin_of, minlength=R)
    rank = np.arange(bins.n_states) - np.repeat(np.cumsum(size) - size, size)
    k, m = np.repeat(per_bin, size), np.repeat(size, size)
    states = np.repeat(np.argsort(bins.bin_of, kind="stable"), k // m + (rank < k % m))
    weights = np.repeat(mu.weights[occupied] / per_bin[occupied], per_bin[occupied])
    return Ensemble(0, states, weights)


def stochastic_round(beta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Round each beta >= 0 to floor(beta) or floor(beta)+1 with mean exactly
    beta, using the uniform u in [0, 1) beside it: the larger count iff
    u < beta - floor(beta).

    This is the minimal-second-moment integer law with mean beta.
    """
    # false for NaN as well (min and max propagate it), and for a beta whose
    # floor int64 does not hold
    if beta.size and not (beta.min() >= 0 and beta.max() < 2.0**63):
        raise ValueError("beta must be finite and >= 0")
    if u.shape != beta.shape:
        raise ValueError("need one uniform per beta")
    counts = beta.astype(np.int64)  # floor, as beta >= 0
    counts += u < beta - counts
    return counts


def bin_totals(e: Ensemble, bins: BinPartition,
               key: Optional[np.ndarray] = None) -> np.ndarray:
    """Total particle weight per replicate and bin, a (replicates x bins) array.

    One bincount on ``key``, `_bin_key` unless given; it adds each bin's
    weights in particle order, as a bincount over one replicate does.
    """
    key = _bin_key(e, bins) if key is None else key
    return np.bincount(key, weights=e.weights,
                       minlength=e.n_replicates * bins.n_bins).reshape(-1, bins.n_bins)


def _bin_key(e: Ensemble, bins: BinPartition) -> np.ndarray:
    """Each particle's (replicate, bin) index, replicate * R + bin, with the
    replicate read from the offsets."""
    base = np.repeat(np.arange(e.n_replicates) * bins.n_bins, e.sizes)
    return base + bins.bin_of[e.states]


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
    N, floor = policy.total_target, policy.n_floor
    score *= N - floor * policy.bins.n_bins
    # where the total is 0 every score is 0 too, and stays 0: the floor
    np.divide(score, total, out=score, where=total > 0)
    score += floor
    return score


def select(
    e: Ensemble,
    policy: SelectionPolicy,
    u: Optional[np.ndarray] = None,
    horizon: Optional[int] = None,
) -> SelectionOutcome:
    """Selection step over a pass: draw children counts and reweight.

    Under bin policies, all children in bin r of a replicate share the weight
    omega_bar_r = (bin weight) / (bin target); empty bins stay empty. Counts
    are stochastically rounded with the uniforms ``u``, one per particle, and
    each particle's (replicate, bin) key comes from the offsets (`_bin_key`).
    The naive policy copies every particle once, in place, and needs neither.
    The adaptive policy reads the v row of generation
    ``e.generation`` in a run to ``horizon`` (`AdaptivePolicy.row`). An empty
    outcome (extinction) is legal.
    """
    if e.n_particles == 0:
        raise ValueError("cannot select from an empty ensemble")
    if isinstance(policy, NaivePolicy):
        return SelectionOutcome._trusted(
            states=e.states, weights=e.weights, parent_of=np.arange(e.n_particles),
            mean_children=np.ones(e.n_particles), generation=e.generation,
            offsets=e.offsets)
    if u is None:
        raise ValueError("bin policies need uniforms for stochastic rounding")
    key = _bin_key(e, policy.bins)
    bin_weight = bin_totals(e, policy.bins, key)
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
    beta = e.weights / child_weight
    parent_of = np.repeat(np.arange(e.n_particles), stochastic_round(beta, u))
    return SelectionOutcome._trusted(
        states=e.states[parent_of],
        weights=child_weight[parent_of],
        parent_of=parent_of,
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
                             weights=s.weights, offsets=s.offsets)


def empirical_estimate(e: Ensemble, f: Observable) -> np.ndarray:
    """eta_p(f) = sum_j w_j f(xi_j) per replicate; 0 for an extinct one."""
    return e.replicate_sums(e.weights * f.values[e.states])


class RunRecord(NamedTuple):
    """Traces of a pass of WE runs, one row per replicate: a column per
    generation 0..n, or generation n's alone for a run without traces."""

    eta_f: np.ndarray  # (replicates, n+1), or (replicates, 1)
    num_particles: np.ndarray
    total_weight: np.ndarray
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
    traces: bool = True,
) -> RunRecord:
    """Run the select -> mutate loop for n generations on a pass of replicates.

    Every replicate starts from ``init``, at generation 0. ``reps`` is cut
    into chunks of `CHUNK` from ``reps[0]`` on; each draws its particles'
    uniforms, in particle order, from the stream of ``seed`` and its first
    replicate, so a row depends on its chunk alone. The adaptive policy's v
    table needs at least n rows. An extinct replicate has eta 0 from then on
    by convention; the loop stops when the whole pass is.

    A generation is one `select`, then one `mutate`. Each replicate's
    eta_p(f), total weight and particle count are recorded at every
    generation with ``traces``, and at generation n alone without; the draws
    are the same either way.
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
    first = 0 if traces else n  # the first generation recorded
    eta = np.zeros((B, n + 1 - first))
    num = np.zeros((B, n + 1 - first), dtype=np.int64)
    tot = np.zeros((B, n + 1 - first))

    e = Ensemble(0, np.tile(init.states, B), np.tile(init.weights, B),
                 np.arange(B + 1) * init.n_particles)
    tau_kill: Optional[int] = None
    for p in range(n + 1):
        if p >= first:
            eta[:, p - first] = empirical_estimate(e, f)
            num[:, p - first] = e.sizes
            tot[:, p - first] = e.total_weight
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
        tau_kill=tau_kill,
        final=e,
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
