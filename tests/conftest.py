import numpy as np
import pytest

from weighted_ensemble import (
    Observable,
    TransitionMatrix,
    cli,
    source_sink_kernel,
)
from weighted_ensemble.coarse import build_coarse_model
from weighted_ensemble.engine import Ensemble, stationary_init_ensemble
from weighted_ensemble.config import ExperimentConfig
from weighted_ensemble.experiment import ChainSetup


def _dense_cdf(m: np.ndarray) -> np.ndarray:
    # every row's full cumsums, clamped to 1 and pinned to 1 from its last
    # positive entry on: TransitionMatrix.step(s, u) must be the count of row
    # s's entries <= u, which is a column with a positive entry
    cum = np.minimum(np.cumsum(m, axis=1), 1.0)
    last = m.shape[1] - 1 - np.argmax(m[:, ::-1] > 0, axis=1)
    cum[np.arange(m.shape[1]) >= last[:, None]] = 1.0
    return cum


@pytest.fixture(scope="session")
def dense_cdf():
    """The dense reference for inverse-CDF sampling, built from the matrix
    alone: (u[:, None] >= dense_cdf(K.to_dense())[states]).sum(axis=1)."""
    return _dense_cdf


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    # floor every quota, then hand the leftover seats to the largest
    # remainders, breaking ties by lower index
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


@pytest.fixture(scope="session")
def largest_remainder():
    """Integer apportionment of ``total`` seats to fractional quotas."""
    return _largest_remainder


def _init_ensemble(initial, n0: int) -> Ensemble:
    # n0 particles of weight 1/n0 with deterministic per-state counts
    # matching n0 * initial by largest remainder
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    counts = _largest_remainder(n0 * initial.weights, n0)
    states = np.repeat(np.arange(initial.n_states), counts)
    return Ensemble(0, states, np.full(n0, 1.0 / n0))


@pytest.fixture(scope="session")
def init_ensemble():
    """A one-replicate initial ensemble of n0 equal weights, spread over the
    states of a Distribution by largest remainder."""
    return _init_ensemble


def _per_bin_init_ensemble(mu, bins, n_particles: int) -> Ensemble:
    # stationary_init_ensemble as a loop over the bins: bin r's
    # largest-remainder share of k particles sits round-robin on its states
    # (members[arange(k) % m], sorted) and each carries mu_r / k
    R = bins.n_bins
    quotas = np.where(mu.weights / n_particles > 0, n_particles / R, 0.0)
    per_bin = _largest_remainder(quotas * (n_particles / quotas.sum()), n_particles)
    states, weights = [], []
    for r in range(R):
        if per_bin[r] == 0:
            continue
        members = bins.states_in(r)
        k = int(per_bin[r])
        states.append(np.sort(members[np.arange(k) % members.size]))
        weights.append(np.full(k, mu.weights[r] / k))
    return Ensemble(0, np.concatenate(states), np.concatenate(weights))


@pytest.fixture(scope="session")
def per_bin_init_ensemble():
    """The per-bin loop that stationary_init_ensemble replaced, as the
    reference it must match bit for bit."""
    return _per_bin_init_ensemble


def _conditional_mutation_variance(e, beta, g, p) -> float:
    # sum_j w_j^2 / beta_j [K g_{p+1}^2 - g_p^2](xi_j); particles with zero
    # local variance add nothing, so beta = 0 is tolerated there only
    beta = np.asarray(beta, dtype=float)
    var = g.local_var[p][e.states]
    if np.any(beta < 0) or np.any((beta == 0) & (var > 0)):
        raise ValueError("beta must be positive wherever the local variance is")
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(var > 0, e.weights**2 * var / beta, 0.0)
    return float(terms.sum())


@pytest.fixture(scope="session")
def conditional_mutation_variance():
    """The pre-selection mutation variance of mean children counts beta at
    generation p, the quantity the square-root allocation rule minimizes."""
    return _conditional_mutation_variance


def _optimal_allocation(e, g, p, total_target: float) -> np.ndarray:
    # beta_j proportional to w_j sqrt(local variance at xi_j), summing to N
    score = e.weights * np.sqrt(g.local_var[p][e.states])
    denom = score.sum()
    if denom <= 0:
        raise ValueError("all local variances vanish; every allocation is optimal")
    return total_target * score / denom


@pytest.fixture(scope="session")
def optimal_allocation():
    """The variance-minimizing mean children counts for an expected total."""
    return _optimal_allocation


def _general_hill_average(pi, g, F) -> float:
    # pi(g) / pi(F) = E^rho[sum over one renewal cycle of g]: the Hill
    # relation for a general observable on a source-sink chain's pi
    mask = np.zeros(pi.n_states, dtype=bool)
    mask[list(F)] = True
    pf = float(pi.weights[mask].sum())
    if pf <= 0:
        raise ValueError("pi(F) = 0; the sink is never visited")
    return float(pi.weights @ g.values) / pf


@pytest.fixture(scope="session")
def general_hill_average():
    """pi(g) / pi(F) for a stationary pi, an observable g and a sink F."""
    return _general_hill_average


def _source_sink_cell(spec, bins, mode, n, reps, seed, n_particles, per_bin_target=5.0):
    # the cell `hill` runs: f = 1_F on the source-sink chain, from the exact
    # coarse model's mu-spread, with the mode's policy built on that model
    K = source_sink_kernel(spec)
    setup = ChainSetup(K, bins, Observable.indicator(sorted(spec.sink), K.n_states))
    cfg = ExperimentConfig(mode=mode, n_particles=n_particles,
                           per_bin_target=per_bin_target, seed=seed)
    [(_, [res])] = cli.cells(cfg, setup, cli.coarse_model(cfg, setup, n), (n,), reps,
                             traces=False)
    return res


@pytest.fixture(scope="session")
def source_sink_cell():
    """The SweepResult of replicates 0..reps-1 of ``seed`` to horizon n of
    eta_n(1_F) on a SourceSinkSpec's chain, started as `hill` starts them."""
    return _source_sink_cell


@pytest.fixture(scope="session")
def two_state():
    return TransitionMatrix.from_dense(np.array([[0.9, 0.1], [0.2, 0.8]]))


@pytest.fixture(scope="session")
def setup():
    return ExperimentConfig().build_setup()


@pytest.fixture(scope="session")
def model30(setup):
    return build_coarse_model(setup.K, setup.bins, setup.f, horizon=30)


@pytest.fixture(scope="session")
def init150(setup, model30):
    return stationary_init_ensemble(model30.mu, setup.bins, 150)
