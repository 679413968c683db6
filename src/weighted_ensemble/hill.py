"""Source-sink kernel modification and the exact side of the Hill relation.

Replacing the kernel rows inside a sink set F by the one-step distribution
from a source measure rho yields a nonreversible chain whose stationary
distribution pi encodes hitting statistics of the original chain:
E^rho[sum_{p<=tau_F} g(X_p)] = pi(g)/pi(F), so E^rho[tau_F] = 1/pi(F) (the
Hill relation) and P^rho[tau_B < tau_A] = pi(B)/pi(A u B). `we-sample hill`
estimates pi(F) by running WE on this chain like any other stationary average.
"""
from __future__ import annotations

import numpy as np

from .markov import Distribution, TransitionMatrix, occupation, reaches


class SourceSinkSpec:
    """Base kernel plus a sink set F and a source distribution rho whose
    support must avoid F."""

    def __init__(self, base_kernel: TransitionMatrix, sink: frozenset[int],
                 source: Distribution):
        sink = frozenset(int(s) for s in sink)  # 0-indexed states
        if not sink:
            raise ValueError("sink set must be nonempty")
        n = base_kernel.n_states
        if any(s < 0 or s >= n for s in sink):
            raise ValueError("sink states out of range")
        if source.n_states != n:
            raise ValueError("source distribution has wrong dimension")
        if source.weights[sorted(sink)].sum() > 0:
            raise ValueError("source distribution has mass on the sink set")
        self.base_kernel, self.sink, self.source = base_kernel, sink, source


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
    """Exact mean first-passage time E^rho[tau_F] = rho (I - Q)^-1 1, Q the
    kernel restricted to the complement of F: the sum of the expected visits
    y to each state before the chain enters F, y (I - Q) = rho
    (`markov.occupation`, whose leaks are the flows into F)."""
    mask = np.zeros(K0.n_states, dtype=bool)
    mask[list(F)] = True
    if rho.weights[mask].sum() > 0:
        raise ValueError("rho has mass on F")
    if not reaches(K0, np.flatnonzero(mask)).all():
        raise ValueError("F is unreachable from some state")
    outside = np.flatnonzero(~mask)
    return float(occupation(K0, outside, rho.weights[outside]).sum())
