import numpy as np
import pytest

from weighted_ensemble import (
    Distribution,
    Observable,
    TransitionMatrix,
    source_sink_kernel,
)
from weighted_ensemble.coarse import build_coarse_model
from weighted_ensemble.engine import stationary_init_ensemble
from weighted_ensemble.config import ExperimentConfig
from weighted_ensemble.experiment import ChainSetup, make_policy, run_sweep_cell


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
    # the cell `hill` runs: f = 1_F on the source-sink chain under the
    # uniform sampling measure, from the exact coarse model's mu-spread, with
    # the mode's policy built on that model
    K = source_sink_kernel(spec)
    zeta = Distribution(np.full(K.n_states, 1.0 / K.n_states))
    setup = ChainSetup(K, bins, Observable.indicator(sorted(spec.sink), K.n_states),
                       zeta)
    model = build_coarse_model(K, bins, zeta, setup.f, max(n, 1))
    init = stationary_init_ensemble(model.mu, bins, n_particles)
    policy = make_policy(mode, bins, n_particles, per_bin_target=per_bin_target,
                         v=model.v)
    return run_sweep_cell(setup, init, policy, (n,), reps, seed)[0]


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
    return build_coarse_model(setup.K, setup.bins, setup.zeta, setup.f, horizon=30)


@pytest.fixture(scope="session")
def init150(setup, model30):
    return stationary_init_ensemble(model30.mu, setup.bins, 150)
