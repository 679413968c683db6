import csv
import hashlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from weighted_ensemble import (
    Distribution,
    Ensemble,
    Observable,
    SourceSinkSpec,
    TransitionMatrix,
    cli,
    source_sink_kernel,
)
from weighted_ensemble.config import ExperimentConfig
from weighted_ensemble.diagnostics import CheckReport
from weighted_ensemble.engine import stationary_init_ensemble
from weighted_ensemble.experiment import SweepResult, make_policy, run_sweep_cell
from weighted_ensemble.serialize import BLOCK_ROWS, write_matrix_csv


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return header, body


def assert_config_txt_matches_csvs(out):
    """config.txt hashes to every CSV's config_hash comment."""
    digest = hashlib.sha256((out / "config.txt").read_bytes()).hexdigest()[:16]
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert path.read_text().splitlines()[0] == f"# config_hash={digest}", path.name


def write_config(tmp_path, **kv):
    p = tmp_path / "config"
    p.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return p


SMALL_RUN = dict(mode="all", horizons="1,2", reps="10", n_particles="60")


def assert_threads_do_not_change_outputs(tmp_path, command, cfg, threads):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main([command, "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(
        [command, "--config", str(cfg), "--out", str(b), "--threads", str(threads)]
    ) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestCoarse:
    def test_writes_model_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, horizons="3")
        assert cli.main(["coarse", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("P.csv", "u.csv", "mu.csv", "v.csv"):
            text = (out / name).read_text()
            assert text.startswith("# config_hash=")
        header, body = read_csv(out / "P.csv")
        assert header == ["i", "j", "value"]
        assert len(body) == 900
        header, _ = read_csv(out / "v.csv")
        assert header == ["p", "r", "value"]
        assert_config_txt_matches_csvs(out)

    def test_mc_builder_close_to_exact(self, tmp_path):
        exact_out, mc_out = tmp_path / "exact", tmp_path / "mc"
        cfg = write_config(tmp_path, horizons="1")
        assert cli.main(["coarse", "--config", str(cfg), "--out", str(exact_out)]) == 0
        cfg2 = write_config(tmp_path, horizons="1", coarse_samples="200000")
        assert cli.main(["coarse", "--config", str(cfg2), "--out", str(mc_out)]) == 0
        from weighted_ensemble.serialize import read_matrix_csv

        exact = read_matrix_csv(exact_out / "P.csv").to_dense()
        mc = read_matrix_csv(mc_out / "P.csv").to_dense()
        assert np.abs(exact - mc).max() < 0.05

    @pytest.mark.parametrize("flag, value",
                             [("--reps", "5"), ("--threads", "2"), ("--mode", "naive")])
    def test_unread_flag_is_config_error(self, tmp_path, flag, value):
        cfg = write_config(tmp_path, horizons="1")
        out = tmp_path / "o"
        assert cli.main(["coarse", "--config", str(cfg), "--out", str(out),
                         flag, value]) == 1
        assert not out.exists()

    def test_unread_config_keys_are_accepted(self, tmp_path):
        cfg = write_config(tmp_path, horizons="1", reps="5", threads="2", mode="naive")
        assert cli.main(["coarse", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0


class TestRun:
    def test_outputs_and_consistency(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, **SMALL_RUN)
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, body = read_csv(out / "summary.csv")
        assert header == [
            "mode", "n", "reps", "mean", "std", "std_err", "exact",
            "stationary", "extinct_count",
        ]
        assert len(body) == 6  # 3 modes x 2 horizons
        for row in body:
            std, se = float(row[4]), float(row[5])
            assert se == pytest.approx(std / np.sqrt(10))
        header, body = read_csv(out / "runs_naive_n2.csv")
        assert header == [
            "replicate", "p", "eta_f", "total_weight", "num_particles", "extinct",
        ]
        assert len(body) == 30  # 10 replicates x (n+1) generations
        header, body = read_csv(out / "histograms.csv")
        assert header == ["mode", "i", "count_fraction", "weight_fraction"]
        assert len(body) == 270
        for mode in ("adaptive", "traditional", "naive"):
            rows = [r for r in body if r[0] == mode]
            assert sum(float(r[2]) for r in rows) == pytest.approx(1.0)
            assert sum(float(r[3]) for r in rows) == pytest.approx(1.0)
        assert (out / "v_snapshot.csv").exists()
        assert (out / "extinctions.csv").exists()
        assert_config_txt_matches_csvs(out)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, **SMALL_RUN)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_horizons_match_runs_of_their_own(self, tmp_path):
        """A sweep reports each horizon as a sweep run at that horizon alone
        would. On this config traditional replicates die out between the
        horizons, so the per-horizon extinction flags are compared too."""
        dying = dict(mode="all", reps="30", seed="5", n_particles="60",
                     per_bin_target="0.5")

        def run(horizons):
            out = tmp_path / horizons
            cfg = write_config(tmp_path, horizons=horizons, **dying)
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            return out

        def body(path):  # the bytes below the config_hash line
            return path.read_bytes().split(b"\n", 1)[1]

        swept = run("1,3,6,12")
        summary = body(swept / "summary.csv").splitlines()
        extinct = {row.split(b",")[1]: row.split(b",")[-1]
                   for row in summary if row.startswith(b"traditional,")}
        assert len(set(extinct.values())) > 2
        for n in ("1", "3", "6", "12"):
            alone = run(n)
            for mode in ("adaptive", "traditional", "naive"):
                name = f"runs_{mode}_n{n}.csv"
                assert body(swept / name) == body(alone / name), name
            own = body(alone / "summary.csv").splitlines()
            assert own[1:] == [row for row in summary[1:]
                               if row.split(b",")[1] == n.encode()]
        assert body(swept / "histograms.csv") == body(alone / "histograms.csv")

    def test_written_floats_read_back_bit_for_bit(self, tmp_path):
        """The eta_f and total_weight columns of each runs file and both
        fraction columns of histograms.csv parse back to the very floats of
        a sweep run by hand on the same config and seed."""
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, **{**SMALL_RUN, "seed": "7"})
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = ExperimentConfig.from_file(cfg_path)
        setup = cfg.build_setup()
        model = cli.coarse_model(cfg, setup, max(cfg.horizons))
        init = stationary_init_ensemble(model.mu, setup.bins, cfg.n_particles)
        _, hist_body = read_csv(out / "histograms.csv")

        def column(body, k):
            return np.array([float(row[k]) for row in body])

        for mode in cfg.modes:
            policy = make_policy(mode, setup.bins, cfg.n_particles, cfg.n_floor,
                                 cfg.per_bin_target, model.v)
            results = run_sweep_cell(setup, init, policy, cfg.horizons, cfg.reps,
                                     cfg.seed, cfg.threads)
            for res in results:
                _, body = read_csv(out / f"runs_{mode}_n{res.n}.csv")
                assert np.array_equal(column(body, 2), res.traces.ravel())
                assert np.array_equal(column(body, 3), res.weight_traces.ravel())
            want = cli.histograms(results[-1], setup.K.n_states)
            rows = [row for row in hist_body if row[0] == mode]
            assert np.array_equal(column(rows, 2), want[0])
            assert np.array_equal(column(rows, 3), want[1])

    # at 40 and 70 replicates and 2 threads the workers run several batches
    # each, the last one short, so a fold in any order but the replicate
    # order shows
    @pytest.mark.parametrize("reps, threads", [(10, 4), (40, 2), (70, 2)])
    def test_threads_do_not_change_results(self, tmp_path, reps, threads):
        cfg = write_config(tmp_path, **{**SMALL_RUN, "reps": str(reps)})
        assert_threads_do_not_change_outputs(tmp_path, "run", cfg, threads)

    @staticmethod
    def assert_histograms_match_a_loop_over_survivors(rng, offsets, cuts=()):
        """histograms over the replicates of ``offsets``, held as passes that
        start at the replicates ``cuts``, against a plain loop."""
        n, reps = int(offsets[-1]), offsets.size - 1
        final = Ensemble(2, rng.integers(0, 5, n), rng.uniform(0.1, 1.0, n), offsets)
        totals, sizes = final.total_weight, final.sizes
        bounds = [0, *cuts, reps]
        passes = [Ensemble(2, final.states[offsets[lo]:offsets[hi]],
                           final.weights[offsets[lo]:offsets[hi]],
                           offsets[lo:hi + 1] - offsets[lo])
                  for lo, hi in zip(bounds, bounds[1:])]
        res = SweepResult("naive", 2, 0.0, np.zeros((reps, 3)),
                          np.repeat(totals[:, None], 3, axis=1),
                          np.repeat(sizes[:, None], 3, axis=1), passes)
        want = np.zeros((2, 5))
        for b in np.flatnonzero(sizes):
            states = final.states[offsets[b]:offsets[b + 1]]
            weights = final.weights[offsets[b]:offsets[b + 1]]
            want[0] += np.bincount(states, minlength=5) / sizes[b]
            want[1] += np.bincount(states, weights=weights, minlength=5) / totals[b]
        assert np.array_equal(cli.histograms(res, 5), want / np.count_nonzero(sizes))

    def test_histograms_match_a_loop_over_survivors(self):
        # replicate 1 is extinct; the others add in replicate order
        self.assert_histograms_match_a_loop_over_survivors(
            np.random.default_rng(3), np.array([0, 4, 4, 9, 15]))

    def test_histograms_add_across_blocks_in_replicate_order(self):
        # three passes of replicates, the last one short and every third
        # replicate extinct
        rng = np.random.default_rng(4)
        sizes = rng.integers(1, 6, 2 * BLOCK_ROWS + 3)
        sizes[::3] = 0
        self.assert_histograms_match_a_loop_over_survivors(
            rng, np.concatenate(([0], np.cumsum(sizes))), (BLOCK_ROWS, 2 * BLOCK_ROWS))

    def test_coarse_samples_set_the_coarse_model(self, tmp_path):
        """With coarse_samples > 0, run's v table is the one `coarse` writes
        for the same config: p = 0 and p = n_max - 1 of coarse's v.csv."""
        small = dict(mode="adaptive", horizons="1,3", reps="3", n_particles="60")

        def run(command, **kv):
            out = tmp_path / f"{command}{kv}"
            cfg = write_config(tmp_path, **small, **kv)
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            return out

        _, exact = read_csv(run("run", coarse_samples="0") / "v_snapshot.csv")
        _, sampled = read_csv(run("run", coarse_samples="20000") / "v_snapshot.csv")
        assert sampled != exact
        _, table = read_csv(run("coarse", coarse_samples="20000") / "v.csv")
        assert sampled == [row for row in table if row[0] in ("0", "2")]


class TestDiagnose:
    def test_passes_on_benchmark_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, mode="all", diag_horizon="2", diag_reps="150",
            n_particles="60", horizons="2",
        )
        assert cli.main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        header, body = read_csv(out / "diagnostics.csv")
        assert header == [
            "check", "n", "policy", "value", "exact_or_rhs", "std_err", "z", "pass",
        ]
        assert len(body) == 6  # 2 checks x 3 modes
        assert all(row[-1] == "1" for row in body)
        assert_config_txt_matches_csvs(out)

    def test_reps_flag_sets_diag_reps(self, tmp_path):
        small = dict(mode="naive", diag_horizon="2", n_particles="60", horizons="2")
        flagged, configured = tmp_path / "flagged", tmp_path / "configured"
        cfg = write_config(tmp_path, diag_reps="150", **small)
        assert cli.main(["diagnose", "--config", str(cfg), "--reps", "120",
                         "--out", str(flagged)]) == 0
        cfg = write_config(tmp_path, diag_reps="120", **small)
        assert cli.main(["diagnose", "--config", str(cfg),
                         "--out", str(configured)]) == 0
        for name in ("config.txt", "diagnostics.csv"):
            assert (flagged / name).read_bytes() == (configured / name).read_bytes()

    def test_threads_do_not_change_results(self, tmp_path):
        cfg = write_config(
            tmp_path, mode="all", diag_horizon="2", diag_reps="150",
            n_particles="60", horizons="2",
        )
        assert_threads_do_not_change_outputs(tmp_path, "diagnose", cfg, 2)

    def test_failed_check_exits_three(self, tmp_path, monkeypatch):
        def broken(res):
            return (
                CheckReport("unbiasedness", res.n, "naive", 1.0, 0.0, 0.1, 10.0, False),
                CheckReport("doob_identity", res.n, "naive", 1.0, 1.0, 0.1, 0.0, True),
            )

        monkeypatch.setattr(cli, "run_checks", broken)
        cfg = write_config(tmp_path, mode="naive", diag_reps="150", horizons="1")
        code = cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3


class TestHill:
    def test_two_state_chain_against_oracle(self, tmp_path, two_state):
        path = tmp_path / "K.csv"
        write_matrix_csv(path, two_state)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, chain=f"csv:{path}", bin_width="1", f_states="2",
            source_state="1", sink_states="2", hill_horizon="10", reps="100",
            n_particles="20", horizons="1", mode="traditional",
        )
        assert cli.main(["hill", "--config", str(cfg), "--out", str(out)]) == 0
        header, body = read_csv(out / "hill.csv")
        assert header == [
            "quantity", "estimate", "oracle", "std_err", "invalid_replicates",
        ]
        rows = {r[0]: r for r in body}
        assert float(rows["mfpt"][2]) == pytest.approx(10.0)
        est = float(rows["pi_F"][1])
        se = float(rows["pi_F"][3])
        assert abs(est - 0.1) <= 5 * max(se, 1e-3)
        assert "hitting_probability" not in rows  # no hit sets configured
        assert_config_txt_matches_csvs(out)

    def test_mode_all_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, mode="all")
        assert cli.main(["hill", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_threads_do_not_change_results(self, tmp_path):
        small = dict(mode="adaptive", hill_horizon="20", n_particles="60",
                     horizons="1")
        cfg = write_config(tmp_path, reps="40", **small)
        assert_threads_do_not_change_outputs(tmp_path, "hill", cfg, 2)
        # the hitting estimate reads the final ensembles of all three batches
        # of 70 replicates, merged in replicate order
        hit = tmp_path / "hit"
        hit.mkdir()
        cfg = write_config(hit, reps="70", hit_a="11..30", hit_b="61..75", **small)
        assert_threads_do_not_change_outputs(hit, "hill", cfg, 2)

    def test_three_state_hitting_probability(self, tmp_path):
        K0 = TransitionMatrix.from_dense(
            np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        )
        path = tmp_path / "K.csv"
        write_matrix_csv(path, K0)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, chain=f"csv:{path}", bin_width="1", f_states="3",
            source_state="2", sink_states="3", hill_horizon="8", reps="100",
            n_particles="21", horizons="1", mode="traditional",
            hit_a="1", hit_b="3",
        )
        assert cli.main(["hill", "--config", str(cfg), "--out", str(out)]) == 0
        _, body = read_csv(out / "hill.csv")
        rows = {r[0]: r for r in body}
        assert float(rows["hitting_probability"][2]) == pytest.approx(0.5)
        assert abs(float(rows["hitting_probability"][1]) - 0.5) <= 0.15

    @staticmethod
    def hill_rows_and_cell(tmp_path, **config):
        """hill.csv's rows, as floats, of a hill run on ``config``, the config,
        and a function that runs the source-sink cell of a set F by hand, as
        cmd_run runs a cell, on the same config and seed."""
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, **config)
        assert cli.main(["hill", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = ExperimentConfig.from_file(cfg_path)
        setup = cfg.build_setup()
        rho = Distribution.point_mass(cfg.source_state - 1, 90)

        def cell(F):
            spec = SourceSinkSpec(setup.K, frozenset(F), rho)
            chain = replace(setup, K=source_sink_kernel(spec),
                            f=Observable.indicator(F, 90))
            model = cli.coarse_model(cfg, chain, cfg.hill_horizon)
            init = stationary_init_ensemble(model.mu, chain.bins, cfg.n_particles)
            policy = make_policy(cfg.mode, chain.bins, cfg.n_particles, cfg.n_floor,
                                 cfg.per_bin_target, model.v)
            return run_sweep_cell(chain, init, policy, (cfg.hill_horizon,), cfg.reps,
                                  cfg.seed, cfg.threads)[0]

        _, body = read_csv(out / "hill.csv")
        return {r[0]: [float(x) for x in r[1:]] for r in body}, cfg, cell

    @staticmethod
    def assert_hitting_row_reads_back(rows, cfg, cell):
        """The hitting row is the ratio of the replicate means of eta_n(1_B)
        and eta_n(1_{A u B}), its delta-method SE, and the count of
        replicates with eta_n(1_{A u B}) <= 0, bit for bit."""
        A, B = cfg.state_set("hit_a", 90), cfg.state_set("hit_b", 90)
        res = cell(A + B)
        eta_b = res.final_eta(Observable.indicator(B, 90))
        ratio = eta_b.mean() / res.mean
        se = (eta_b - ratio * res.etas).std(ddof=1) / np.sqrt(res.reps) / res.mean
        assert rows["hitting_probability"][0] == ratio
        assert rows["hitting_probability"][2] == se
        assert rows["hitting_probability"][3] == (res.etas <= 0).sum()

    def test_written_floats_read_back_bit_for_bit(self, tmp_path):
        """hill.csv's estimates and standard errors parse back to the very
        floats of its two source-sink cells run by hand."""
        rows, cfg, cell = self.hill_rows_and_cell(
            tmp_path, mode="adaptive", hill_horizon="20", reps="10", n_particles="60",
            hit_a="11..30", hit_b="61..75", seed="7")
        res = cell(list(range(80, 90)))
        assert rows["pi_F"][0] == res.mean and rows["pi_F"][2] == res.std_err
        assert rows["mfpt"][0] == 1 / res.mean
        assert rows["mfpt"][2] == res.std_err / res.mean**2
        assert rows["pi_F"][3] == rows["mfpt"][3] == (res.etas <= 0).sum()
        self.assert_hitting_row_reads_back(rows, cfg, cell)

    def test_hitting_row_of_a_spec_with_a_nonzero_answer(self, tmp_path):
        # from state 1 the lag-4 chain cannot reach 61..75 without entering
        # 11..30, so the spec above has the answer 0 and an SE of 0; from
        # state 30, P[tau_B < tau_A] is 0.2846 for A = 1..15 and B = 61..90
        rows, cfg, cell = self.hill_rows_and_cell(
            tmp_path, mode="adaptive", hill_horizon="20", reps="10", n_particles="60",
            source_state="30", hit_a="1..15", hit_b="61..90", seed="7")
        assert rows["hitting_probability"][1] == pytest.approx(0.2846, abs=5e-5)
        assert rows["hitting_probability"][0] > 0 and rows["hitting_probability"][2] > 0
        self.assert_hitting_row_reads_back(rows, cfg, cell)

    def test_source_inside_sink_is_numerical_error(self, tmp_path, two_state):
        path = tmp_path / "K.csv"
        write_matrix_csv(path, two_state)
        cfg = write_config(
            tmp_path, chain=f"csv:{path}", bin_width="1", f_states="2",
            source_state="2", sink_states="2", horizons="1", reps="10",
            n_particles="4",
        )
        code = cli.main(["hill", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, nonsense="1")
        assert cli.main(["run", "--config", str(cfg)]) == 1

    def test_bad_mode_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, mode="bogus")
        assert cli.main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("where", ["flag", "config key"])
    def test_negative_seed_is_config_error(self, tmp_path, where):
        cfg = write_config(tmp_path, horizons="1", **({"seed": "-1"}
                                                      if where == "config key" else {}))
        flag = ["--seed", "-1"] if where == "flag" else []
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), *flag]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [
        ("run", {"chain": "nope"}),
        ("run", {"bin_width": "7"}),
        ("run", {"f_states": "95"}),
        ("hill", {"source_state": "95"}),
        ("hill", {"source_state": "0"}),
        ("hill", {"hit_a": "1..10", "hit_b": "91"}),
        # a hit set without its partner would write no hitting row at all;
        # overlapping sets have no first hit to tell apart
        ("hill", {"hit_a": "11..30"}),
        ("hill", {"hit_a": "11..30", "hit_b": "25..40"}),
        # CSV files, given by their data rows: a 0 index that would wrap to
        # the last state, a vector index 0, and a state above 10^4
        ("run", {"chain": ["1,1,0.9", "1,2,0.1", "0,1,0.2", "2,2,0.8"],
                 "bin_width": "1", "f_states": "2"}),
        ("run", {"f_states": ["0,1.0", "90,0.0"]}),
        ("run", {"chain": ["10001,1,1.0"]}),
        ("run", {"chain": ["1,1,0.9", "1,2,0.1", "2,1,0.2", "2,2,nan"],
                 "bin_width": "1", "f_states": "2"}),
        ("diagnose", {"diag_reps": "99"}),
        ("diagnose", {"diag_horizon": "-1"}),
        ("hill", {"hill_horizon": "-3"}),
    ], ids=["chain", "bin_width", "f_states", "source_above", "source_zero",
            "hit_b", "hit_a_alone", "hit_overlap", "csv_chain_index_0", "csv_f_index_0", "csv_chain_too_big",
            "csv_chain_nan", "diag_reps", "diag_horizon", "hill_horizon"])
    def test_bad_setup_input_is_config_error(self, tmp_path, capsys, command,
                                             config):
        values = {}
        for key, value in config.items():
            if isinstance(value, list):
                path = tmp_path / f"{key}.csv"
                header = "i,j,value" if key == "chain" else "i,value"
                path.write_text("\n".join([header, *value]) + "\n")
                value = f"csv:{path}"
            values[key] = value
        cfg = write_config(tmp_path, horizons="1", reps="2", **values)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "absent")]) == 1


def test_import_leaves_scipy_out():
    # every command solves with numpy alone; scipy.sparse.linalg would add
    # about 0.35 s of import to every command's set-up
    code = "import sys, weighted_ensemble.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
