"""Weighted-ensemble resampling for finite-state Markov chains."""

from .binning import BinPartition
from .coarse import (
    CoarseModel,
    build_coarse_exact,
    build_coarse_mc,
    build_coarse_model,
    compute_v,
)
from .engine import (
    AdaptivePolicy,
    Ensemble,
    NaivePolicy,
    RngStream,
    RunRecord,
    SelectionOutcome,
    TraditionalPolicy,
    allocate_targets,
    bin_totals,
    empirical_estimate,
    mutate,
    run_we,
    select,
    stationary_init_ensemble,
    stochastic_round,
)
from .hill import (
    SourceSinkSpec,
    direct_mfpt,
    hitting_probability,
    source_sink_kernel,
)
from .markov import (
    Distribution,
    Observable,
    TransitionMatrix,
    build_three_well_chain,
    power,
    second_eigenvalue_modulus,
    stationary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
