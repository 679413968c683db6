"""Exact law of tiny WE runs, enumerated outcome by outcome.

On a 3-state chain started from one or three particles, every selection
outcome (each particle's children count is floor(beta) or floor(beta) + 1)
and every mutation outcome is listed with its probability, to horizon 3 or 2.
The moments of eta_n are then exact sums with no Monte Carlo noise, so
unbiasedness and the second-moment (Doob) identity are checked to roundoff,
for every policy. Extinct ensembles stay in the law with eta = 0.

The enumeration takes beta and the child weights from the engine's own
batched `select`, run on every distinct ensemble of a generation at once, and
checks that each ensemble gets the same values in a batch of its own. The
Doob terms come from `diagnostics`; the mutation law is the rows of K.
"""
import itertools
from collections import defaultdict

import numpy as np
import pytest

from weighted_ensemble import (
    AdaptivePolicy,
    BinPartition,
    Ensemble,
    NaivePolicy,
    Observable,
    SelectionOutcome,
    TraditionalPolicy,
    TransitionMatrix,
    select,
)
from weighted_ensemble.diagnostics import (
    g_sequence,
    mutation_variance_term,
    selection_variance_term,
)

K = np.array([[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.0, 0.4, 0.6]])
F = np.array([0.3, -1.0, 2.0])
BINS = BinPartition(np.array([0, 0, 1]))
# per-generation adaptive proxies; generation 1 has v = 0 on bin 1
V_TABLE = np.array([[1.0, 0.25], [2.0, 0.0], [0.5, 0.5]])
TOL = 1e-12

POLICIES = {
    "naive": NaivePolicy(),
    "traditional": TraditionalPolicy(BINS, 1.5),
    "adaptive": AdaptivePolicy(BINS, 2.0, 0.5, V_TABLE),
}
# initial (states, weights) and the horizon enumerated from it
INITS = {
    "one particle": (((1,), (1.0,)), 3),
    "three particles": (((0, 1, 2), (0.5, 0.2, 0.3)), 2),
}


def batch_of(ensembles, generation: int = 0) -> Ensemble:
    """One flat batch holding the given (states, weights) ensembles in order."""
    sizes = [len(states) for states, _ in ensembles]
    return Ensemble(
        generation,
        np.array([s for states, _ in ensembles for s in states], dtype=np.int64),
        np.array([w for _, weights in ensembles for w in weights]),
        np.concatenate(([0], np.cumsum(sizes))),
    )


def beta_and_child_weights(policy, batch: Ensemble):
    """beta and the child weight of every particle of the batch; the
    adaptive policy reads V_TABLE's row of the batch's generation. With every
    uniform 0 each parent gets ceil(beta) >= 1 children, so every parent's
    child weight shows."""
    out = select(batch, policy, u=np.zeros(batch.n_particles))
    child_weight = np.empty(batch.n_particles)
    child_weight[out.parent_of] = out.weights
    return out.mean_children, child_weight


def children_laws(beta: np.ndarray):
    """Every vector of children counts with its probability."""
    options = []
    for b in beta:
        low = np.floor(b)
        frac = b - low
        options.append([(int(low), 1.0)] if frac == 0 else
                       [(int(low), 1.0 - frac), (int(low) + 1, frac)])
    for choice in itertools.product(*options):
        yield [c for c, _ in choice], float(np.prod([q for _, q in choice]))


def exact_laws(policy, init, horizon: int):
    """The law of the ensemble at generations 0..horizon, and for each n the
    sum over p < n of E[mut_p + sel_p] taken with g = K^{n-p} f."""
    gs = [g_sequence(TransitionMatrix.from_dense(K), Observable(F), n) for n in range(horizon + 1)]
    law = {init: 1.0}
    laws = [law]
    doob = np.zeros(horizon + 1)
    for p in range(horizon):
        ensembles = list(law)
        prob = np.array([law[ens] for ens in ensembles])
        batch = batch_of(ensembles, p)
        beta, child_weight = beta_and_child_weights(policy, batch)
        bounds = batch.offsets.tolist()
        selected = []  # (probability, states, weights) after selection
        for k, ens in enumerate(ensembles):
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:  # beta does not depend on the rest of the batch
                alone, alone_weight = beta_and_child_weights(policy, batch_of([ens], p))
                assert np.array_equal(alone, beta[lo:hi])
                assert np.array_equal(alone_weight, child_weight[lo:hi])
            for counts, q in children_laws(beta[lo:hi]):
                parents = np.repeat(np.arange(lo, hi), counts)
                selected.append((prob[k] * q, batch.states[parents],
                                 child_weight[parents]))
        chosen = as_selection(batch_of([(s, w) for _, s, w in selected]))
        chosen_prob = np.array([q for q, _, _ in selected])
        for n in range(p + 1, horizon + 1):
            doob[n] += prob @ selection_variance_term(batch, beta, gs[n], p)
            doob[n] += chosen_prob @ mutation_variance_term(chosen, gs[n], p)
        law = defaultdict(float)
        for q, states, weights in selected:
            for ends in itertools.product(*(np.flatnonzero(K[s]) for s in states)):
                key = sorted(zip(ends, weights.tolist()))
                law[(tuple(int(s) for s, _ in key), tuple(w for _, w in key))] += (
                    q * float(np.prod(K[states, list(ends)])))
        laws.append(law)
    return laws, doob


def as_selection(batch: Ensemble) -> SelectionOutcome:
    """A batch of selected particles, each its own parent."""
    ones = np.ones(batch.n_particles)
    return SelectionOutcome(batch.states, batch.weights, np.arange(batch.n_particles),
                            ones.astype(np.int64), ones, offsets=batch.offsets)


@pytest.mark.parametrize("init_name", list(INITS))
@pytest.mark.parametrize("mode", list(POLICIES))
def test_unbiased_and_doob_identity_are_exact(mode, init_name):
    init, horizon = INITS[init_name]
    states, weights = np.array(init[0]), np.array(init[1])
    laws, doob = exact_laws(POLICIES[mode], init, horizon)
    for n, law in enumerate(laws):
        assert sum(law.values()) == pytest.approx(1.0, abs=TOL)
        m0 = float(weights @ (np.linalg.matrix_power(K, n) @ F)[states])
        eta = {ens: float(np.array(ens[1]) @ F[list(ens[0])]) for ens in law}
        mean = sum(prob * eta[ens] for ens, prob in law.items())
        second = sum(prob * eta[ens] ** 2 for ens, prob in law.items())
        assert abs(mean - m0) <= TOL, (n, mean, m0)
        assert abs(second - (m0**2 + doob[n])) <= TOL, (n, second, m0**2 + doob[n])
