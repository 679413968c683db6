import numpy as np
import pytest

from weighted_ensemble import BinPartition


def test_from_width_basic():
    bins = BinPartition.from_width(90, 3)
    assert bins.n_bins == 30
    assert bins.bin_of[0] == 0 and bins.bin_of[89] == 29
    assert list(bins.states_in(9)) == [27, 28, 29]


def test_from_width_must_divide_evenly():
    with pytest.raises(ValueError):
        BinPartition.from_width(10, 3)


def test_every_bin_must_be_nonempty():
    with pytest.raises(ValueError):
        BinPartition(np.array([0, 0, 2]), n_bins=3)


def test_bin_indices_in_range():
    with pytest.raises(ValueError):
        BinPartition(np.array([0, 1, 5]), n_bins=3)

