import numpy as np
import pytest

from weighted_ensemble import TransitionMatrix
from weighted_ensemble.coarse import build_coarse_model
from weighted_ensemble.engine import stationary_init_ensemble
from weighted_ensemble.config import ExperimentConfig


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
    alone: (u[:, None] >= dense_cdf(K.matrix)[states]).sum(axis=1)."""
    return _dense_cdf


@pytest.fixture(scope="session")
def two_state():
    return TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))


@pytest.fixture(scope="session")
def setup():
    return ExperimentConfig().build_setup()


@pytest.fixture(scope="session")
def model30(setup):
    return build_coarse_model(setup.K, setup.bins, setup.zeta, setup.f, horizon=30)


@pytest.fixture(scope="session")
def init150(setup, model30):
    return stationary_init_ensemble(model30.mu, setup.bins, 150)
