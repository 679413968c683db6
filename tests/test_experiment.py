import numpy as np
import pytest

from weighted_ensemble import RngStream, empirical_estimate, run_we
from weighted_ensemble.experiment import make_policy, run_sweep_cell


def test_final_merges_the_batches_in_replicate_order(setup, init150):
    # 70 replicates run as batches of 32, 32 and 6
    policy = make_policy("traditional", setup.bins, 150)
    short, full = run_sweep_cell(setup, init150, policy, (2, 4), 70, 3)
    assert short.final is None
    final = full.final
    assert final.n_replicates == 70
    assert np.array_equal(empirical_estimate(final, setup.f), full.etas)
    assert np.array_equal(final.sizes, full.count_traces[:, -1])
    pair = run_we(setup.K, setup.f, policy, init150, 4, RngStream(3), [31, 32]).final
    lo, hi = final.offsets[31], final.offsets[33]
    assert np.array_equal(final.states[lo:hi], pair.states)
    assert np.array_equal(final.weights[lo:hi], pair.weights)


def test_adaptive_needs_a_v_table_as_long_as_its_horizons(setup, model30, init150):
    policy = make_policy("adaptive", setup.bins, 150)
    with pytest.raises(ValueError, match="v table has 3 rows"):
        run_sweep_cell(setup, init150, policy, (2, 5), 2, 0, v_table=model30.v[:3])
