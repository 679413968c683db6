import numpy as np
import pytest

from weighted_ensemble import TransitionMatrix
from weighted_ensemble.coarse import build_coarse_model
from weighted_ensemble.engine import stationary_init_ensemble
from weighted_ensemble.config import ExperimentConfig


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
