from dataclasses import fields

import numpy as np
import pytest

from weighted_ensemble.config import ExperimentConfig, parse_state_set


class TestParseStateSet:
    def test_interval(self):
        assert parse_state_set("28..33") == [27, 28, 29, 30, 31, 32]

    def test_list(self):
        assert parse_state_set("1,5,7") == [0, 4, 6]

    def test_empty(self):
        assert parse_state_set("") == []

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            parse_state_set("0,3")


class TestExperimentConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig.from_file(None)
        assert cfg.chain == "three-well"
        assert cfg.modes == ("adaptive",)

    def test_file_plus_overrides(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("mode = all\nreps = 50  # comment\n\nhorizons = 1,2\n")
        cfg = ExperimentConfig.from_file(p, seed=9)
        assert cfg.mode == "all" and cfg.reps == 50
        assert cfg.horizons == (1, 2) and cfg.seed == 9
        assert cfg.modes == ("adaptive", "traditional", "naive")

    def test_unknown_key_errors(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_file(p)

    def test_bad_mode_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(None, mode="fancy")

    def test_unsorted_horizons_error(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("horizons = 5,1\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(p)

    def test_canonical_text_distinguishes_configs(self):
        a = ExperimentConfig.from_file(None, seed=1).canonical_text()
        b = ExperimentConfig.from_file(None, seed=2).canonical_text()
        assert a != b
        assert "seed=1" in a

    def test_every_field_survives_canonical_text(self, tmp_path):
        # a value unlike every default, of each field's type; out and threads
        # are left out of the text and the hash, so they come back as flags
        cfg = ExperimentConfig(
            chain="csv:K.csv", lag=2, bin_width=5, mode="all", n_particles=90,
            n_floor=0.5, per_bin_target=2.5, horizons=(0, 3, 8), reps=17, seed=2**40,
            out="elsewhere", threads=3, f_states="csv:f.csv", coarse_samples=900,
            source_state=4, sink_states="1,2,9", hill_horizon=70, hit_a="11..12",
            hit_b="20", diag_horizon=2, diag_reps=120)
        defaults = ExperimentConfig()
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name) for f in fields(cfg))
        path = tmp_path / "config.txt"
        path.write_text(cfg.canonical_text())
        back = ExperimentConfig.from_file(path, out=cfg.out, threads=cfg.threads)
        assert back == cfg
        assert back.canonical_text() == cfg.canonical_text()
        assert [type(getattr(back, f.name)) for f in fields(cfg)] == [
            type(getattr(cfg, f.name)) for f in fields(cfg)]

    def test_build_setup_three_well(self):
        setup = ExperimentConfig.from_file(None).build_setup()
        assert setup.K.n_states == 90
        assert setup.bins.n_bins == 30
        assert setup.f.values.sum() == 6.0

    def test_build_setup_from_csv_chain(self, tmp_path, two_state):
        from weighted_ensemble.serialize import write_matrix_csv

        path = tmp_path / "K.csv"
        write_matrix_csv(path, two_state)
        cfg = ExperimentConfig.from_file(
            None, chain=f"csv:{path}", bin_width=1, f_states="2"
        )
        setup = cfg.build_setup()
        assert setup.K.n_states == 2 and setup.bins.n_bins == 2
        assert list(setup.f.values) == [0.0, 1.0]


def test_csv_chain_set_up_and_solved_in_sparse_memory(tmp_path):
    # a 3000-state chain of bandwidth 4: its dense matrix alone would take
    # 72 MB; reading it, its coarse model and its stationary solve stay in
    # ELL rows and blocks of the band
    import tracemalloc

    from weighted_ensemble.coarse import build_coarse_model
    from weighted_ensemble.markov import stationary

    n, band = 3000, 4
    rng = np.random.default_rng(0)
    i = np.repeat(np.arange(n), 2 * band + 1)
    j = i + np.tile(np.arange(-band, band + 1), n)
    keep = (j >= 0) & (j < n)
    i, j = i[keep], j[keep]
    p = rng.uniform(0.5, 1.0, i.size)
    p /= np.bincount(i, weights=p)[i]
    path = tmp_path / "K.csv"
    path.write_text("i,j,value\n" + "".join(
        f"{a + 1},{b + 1},{v!r}\n" for a, b, v in zip(i.tolist(), j.tolist(), p.tolist())))
    cfg = ExperimentConfig(chain=f"csv:{path}", bin_width=30, f_states="940..1100")
    tracemalloc.start()
    try:
        setup = cfg.build_setup()
        build_coarse_model(setup.K, setup.bins, setup.zeta, setup.f, horizon=20)
        stationary(setup.K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
