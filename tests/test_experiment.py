import numpy as np
import pytest

from weighted_ensemble import run_we
from weighted_ensemble.coarse import compute_v
from weighted_ensemble.diagnostics import doob_terms, g_sequence
from weighted_ensemble.experiment import make_policy, run_sweep_cell


def test_final_holds_the_passes_in_replicate_order(setup, init150):
    # 70 replicates run in passes of whole chunks, the last one short; each
    # final is kept as its pass left it
    policy = make_policy("traditional", setup.bins, 150)
    short, full = run_sweep_cell(setup, init150, policy, (2, 4), 70, 3)
    assert short.final is None
    assert len(full.final) > 1 and sum(f.n_replicates for f in full.final) == 70
    assert np.array_equal(full.final_eta(setup.f), full.etas)
    sizes = np.concatenate([final.sizes for final in full.final])
    assert np.array_equal(sizes, full.count_traces[:, -1])
    last = full.final[-1]
    chunk = run_we(setup.K, setup.f, policy, init150, 4, 3,
                   range(70 - last.n_replicates, 70)).final
    for name in ("states", "weights", "offsets"):
        assert np.array_equal(getattr(last, name), getattr(chunk, name))


def test_adaptive_needs_a_v_table_as_long_as_its_horizons(setup, model30, init150):
    policy = make_policy("adaptive", setup.bins, 150,
                         v=compute_v(model30.P, model30.u, 3))
    with pytest.raises(ValueError, match="v table has 3 rows"):
        run_sweep_cell(setup, init150, policy, (2, 5), 2, 0)


@pytest.fixture(scope="module")
def doob_cells(setup, model30, init150):
    """mode -> (plain cell, doob cell) at n = 4 of a sweep over n = 2 and 4,
    40 replicates (two batches); the doob sweep's n = 2 cell comes third."""
    cells = {}
    for mode in ("adaptive", "traditional"):
        policy = make_policy(mode, setup.bins, 150, v=model30.v)
        _, plain = run_sweep_cell(setup, init150, policy, (2, 4), 40, 5)
        short, doob = run_sweep_cell(setup, init150, policy, (2, 4), 40, 5, doob=True)
        cells[mode] = plain, doob, short
    return cells


@pytest.mark.parametrize("mode", ["adaptive", "traditional"])
def test_doob_readout_keeps_the_etas(doob_cells, mode):
    plain, doob, short = doob_cells[mode]
    assert np.array_equal(plain.etas, doob.etas)
    assert plain.variance is None and plain.final is not None
    assert doob.final is None and doob.variance.shape == (40,)
    # only the largest horizon carries the Doob terms
    assert short.variance is None and short.final is None


@pytest.mark.parametrize("mode", ["adaptive", "traditional"])
def test_doob_variance_is_the_observer_row_sums(setup, model30, init150,
                                                doob_cells, mode):
    policy = make_policy(mode, setup.bins, 150, v=model30.v)
    gseq = g_sequence(setup.K, setup.f, 4)
    expected = []
    for chunk in (range(0, 32), range(32, 40)):  # the driver's two batches
        observe, mut, sel = doob_terms(gseq, len(chunk))
        run_we(setup.K, setup.f, policy, init150, 4, 5, chunk, observe=observe)
        expected.append(mut.sum(axis=1) + sel.sum(axis=1))
    assert np.array_equal(doob_cells[mode][1].variance, np.concatenate(expected))


def test_doob_variance_does_not_depend_on_threads(setup, model30, init150,
                                                  doob_cells):
    policy = make_policy("adaptive", setup.bins, 150, v=model30.v)
    [res] = run_sweep_cell(setup, init150, policy, (4,), 40, 5, threads=2, doob=True)
    assert np.array_equal(res.variance, doob_cells["adaptive"][1].variance)
    assert np.array_equal(res.etas, doob_cells["adaptive"][1].etas)

