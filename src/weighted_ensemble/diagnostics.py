"""Numerical verification of the martingale structure of WE sampling.

For M_p = eta_p K^{n-p} f, the run is a martingale, E[M_n] = E[f(X_n)], and
E[M_n^2] decomposes into E[M_0^2] plus accumulated conditional variances from
mutation and selection. On a finite chain every conditional term is computable
exactly per generation, which makes these checks much sharper than pure Monte
Carlo comparisons.

This module holds the exact side: the backward recursion g_p = K^{n-p} f,
the per-generation terms, and `doob_terms`, a `run_we` observer that
accumulates them. It runs nothing itself: `experiment.run_sweep_cell(...,
doob=True)` runs the replicates with that observer, and `run_checks` is the
statistics on the cell it returns.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .engine import Ensemble, SelectionOutcome
from .markov import Observable, TransitionMatrix

if TYPE_CHECKING:
    from .experiment import SweepResult

Z_THRESHOLD = 4.0
MIN_CHECK_REPS = 100  # fewest replicates the z-checks are run on


class GSequence(NamedTuple):
    """g[p] = K^{n-p} f for p = 0..n, plus the derived local-variance vectors.

    local_var[p](x) = K g_{p+1}^2 (x) - g_p(x)^2 is the one-step conditional
    variance of g_{p+1} started at x; it is nonnegative by Jensen.
    """

    g: np.ndarray  # (n+1, states)
    local_var: np.ndarray  # (n, states)

    @property
    def horizon(self) -> int:
        return self.g.shape[0] - 1


def backward(K: TransitionMatrix, f: Observable, n: int) -> np.ndarray:
    """The backward recursion g[n] = f, g[p] = K g[p+1]: g[p] = K^{n-p} f for
    p = 0..n, as an (n+1, states) array."""
    if n < 0:
        raise ValueError("horizon must be >= 0")
    apply = K.applier()
    g = np.empty((n + 1, K.n_states))
    g[n] = f.values
    for p in range(n - 1, -1, -1):
        g[p] = apply(g[p + 1])
    return g


def g_sequence(K: TransitionMatrix, f: Observable, n: int) -> GSequence:
    """`backward` plus the local variances of its steps.

    Serves both the fine chain and, through `coarse.compute_v`, the coarse
    model's variance-proxy table. A local variance below -1e-10 violates
    Jensen and signals a bug in K or f, so it raises ValueError.
    """
    g = backward(K, f, n)
    apply = K.applier()
    kg2 = np.empty((n, K.n_states))
    for p in range(n):
        kg2[p] = apply(g[p + 1] ** 2)
    local_var = kg2 - g[:n] ** 2
    if local_var.size and local_var.min() < -1e-10:
        raise ValueError(
            f"local variance is {local_var.min():.3e} < -1e-10; this violates "
            "Jensen and signals a bug in the kernel or the observable"
        )
    return GSequence(g=g, local_var=np.maximum(local_var, 0.0))


def mutation_variance_term(
    selected: SelectionOutcome, g: GSequence, p: int
) -> np.ndarray:
    """Exact conditional mutation variance of the step from the selected
    particles, per replicate: sum_i w_i^2 [K g_{p+1}^2 - g_p^2](xi_i)."""
    if not 0 <= p <= g.horizon - 1:
        raise ValueError("p must satisfy 0 <= p <= n-1")
    w = selected.weights
    return selected.replicate_sums(w**2 * g.local_var[p][selected.states])


def selection_variance_term(
    e: Ensemble, beta: np.ndarray, g: GSequence, p: int
) -> np.ndarray:
    """Exact conditional selection variance, per replicate:
    sum_j w_j^2 Var(C_j) / beta_j^2 g_p(xi_j)^2, zero iff every beta is integer.

    Stochastic rounding gives Var C = E[C^2] - beta^2 = frac (1 - frac), with
    frac = beta - floor(beta), so each term is (w/beta)^2 frac (1 - frac) g_p^2,
    which does not cancel at large beta as E[C^2]/beta^2 - 1 would."""
    if not 0 <= p <= g.horizon - 1:
        raise ValueError("p must satisfy 0 <= p <= n-1")
    beta = np.asarray(beta, dtype=float)
    if e.n_particles and np.any(beta <= 0):
        raise ValueError("beta must be positive for every occupied particle")
    frac = beta - np.floor(beta)
    term = e.weights / beta * g.g[p][e.states]
    return e.replicate_sums(term * term * frac * (1.0 - frac))


class CheckReport(NamedTuple):
    """One verification row; `value` is the MC side, `reference` the exact or
    analytically accumulated side."""

    check: str
    n: int
    policy: str
    value: float
    reference: float
    std_err: float
    z: float
    passed: bool


def doob_terms(
    gseq: GSequence, n_replicates: int = 1,
) -> tuple[Callable[[int, Ensemble, SelectionOutcome], None], np.ndarray, np.ndarray]:
    """Observer for `run_we` plus the (replicates x n) arrays it fills: the
    exact per-generation (mutation, selection) conditional variance terms
    along each run of a batch, computed as the runs go. Generations a run
    never selects at (it went extinct, or it is shorter than the g sequence)
    keep 0. A naive run's beta is 1 everywhere, so each of its selection
    terms is exactly 0."""
    mut = np.zeros((n_replicates, gseq.horizon))
    sel = np.zeros((n_replicates, gseq.horizon))

    def observe(p: int, e: Ensemble, outcome: SelectionOutcome) -> None:
        if p < gseq.horizon:
            mut[:, p] = mutation_variance_term(outcome, gseq, p)
            sel[:, p] = selection_variance_term(e, outcome.mean_children, gseq, p)

    return observe, mut, sel


def run_checks(res: SweepResult) -> tuple[CheckReport, CheckReport]:
    """Unbiasedness and second-moment (Doob) identity checks on one cell of
    `experiment.run_sweep_cell(..., doob=True)`, both from the same replicates.

    Unbiasedness compares the replicate mean of eta_n(f) with the exact
    M_0 = eta_0 K^n f (the initial ensemble is fixed across replicates, so the
    reference is deterministic). The Doob identity compares E[M_n^2] with
    M_0^2 plus the accumulated exact conditional variance terms; both sides
    come from the same replicates, so it uses the standard error of the
    per-replicate difference.
    """
    reps = res.reps
    if reps < MIN_CHECK_REPS:
        raise ValueError(f"need at least {MIN_CHECK_REPS} replicates")
    if res.variance is None:
        raise ValueError("the cell carries no Doob terms; run it with doob=True")
    m0, n, vals, accum = res.exact, res.n, res.etas, res.variance

    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(reps))
    z = (mean - m0) / se if se > 0 else 0.0
    unbiased = CheckReport("unbiasedness", n, res.mode, mean, m0, se, z,
                           abs(z) <= Z_THRESHOLD)

    lhs = vals**2
    diff = lhs - (m0**2 + accum)
    se = float(diff.std(ddof=1) / np.sqrt(reps))
    z = float(diff.mean()) / se if se > 0 else 0.0
    doob = CheckReport("doob_identity", n, res.mode, float(lhs.mean()),
                       float(m0**2 + accum.mean()), se, z, abs(z) <= Z_THRESHOLD)
    return unbiased, doob
