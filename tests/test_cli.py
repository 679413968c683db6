import csv
import hashlib
import os
import subprocess
import sys
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

import weighted_ensemble
from weighted_ensemble import (
    Distribution,
    Ensemble,
    Observable,
    SourceSinkSpec,
    TransitionMatrix,
    cli,
    markov,
    source_sink_kernel,
    stationary_init_ensemble,
)
from weighted_ensemble.config import ExperimentConfig
from weighted_ensemble.diagnostics import CheckReport
from weighted_ensemble.experiment import SweepResult
from weighted_ensemble.serialize import BLOCK_ROWS, write_matrix_csv, write_rows


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
# a config on which traditional replicates die out between horizons 1, 3, 6
# and 12
DYING_RUN = dict(mode="all", reps="30", seed="5", n_particles="60",
                 per_bin_target="0.5")


def write_steep_chain(tmp_path):
    """A birth-death chain on 600 states with up 0.4 and down 0.1, whose pi
    spans 4^599, past the double range: the solves for its mu and pi
    overflow, so a run on it exits 2. Bins of 20 states keep the bin count
    (30) below the default n_particles."""
    n = 600
    rows = []
    for i in range(n):
        to = {i - 1: 0.1 * (i > 0), i + 1: 0.4 * (i < n - 1)}
        to[i] = 1.0 - sum(to.values())
        rows += [f"{i + 1},{j + 1},{p!r}" for j, p in to.items() if p > 0]
    path = tmp_path / "K.csv"
    path.write_text("\n".join(["i,j,value", *rows]) + "\n")
    return path


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

    def test_horizon_zero_writes_the_table_run_builds(self, tmp_path, monkeypatch):
        # a run to horizon 0 selects never, but its coarse model still has a
        # v table, for one generation; coarse writes that table
        cfg = write_config(tmp_path, horizons="0", mode="adaptive", reps="2")
        built, build = [], cli.coarse_model

        def keep(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(cli, "coarse_model", keep)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        out = tmp_path / "c"
        assert cli.main(["coarse", "--config", str(cfg), "--out", str(out)]) == 0
        _, body = read_csv(out / "v.csv")
        assert {row[0] for row in body} == {"0"}
        assert [float(row[2]) for row in body] == built[0].v.ravel().tolist()

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

    @pytest.mark.parametrize("horizon", [1, 5])
    def test_v_snapshot_lists_each_generation_once(self, tmp_path, horizon):
        # generations 0 and n_max - 1, which are one generation at n_max = 1
        cfg = write_config(tmp_path, mode="naive", horizons=str(horizon), reps="2",
                           n_particles="60")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, body = read_csv(out / "v_snapshot.csv")
        assert header == ["p", "r", "value"]
        assert [(int(p), int(r)) for p, r, _ in body] == [
            (p, r) for p in sorted({0, horizon - 1}) for r in range(1, 31)]

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

        def run(horizons):
            out = tmp_path / horizons
            cfg = write_config(tmp_path, horizons=horizons, **DYING_RUN)
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
        the sweep's cells run again, by `cli.cells`, on the same config and
        seed."""
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, **{**SMALL_RUN, "seed": "7"})
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = ExperimentConfig.from_file(cfg_path)
        setup = cfg.build_setup()
        model = cli.coarse_model(cfg, setup, max(cfg.horizons))
        _, hist_body = read_csv(out / "histograms.csv")

        def column(body, k):
            return np.array([float(row[k]) for row in body])

        for mode, results in cli.cells(cfg, setup, model, cfg.horizons, cfg.reps):
            for res in results:
                _, body = read_csv(out / f"runs_{mode}_n{res.n}.csv")
                assert np.array_equal(column(body, 2), res.traces.ravel())
                assert np.array_equal(column(body, 3), res.weight_traces.ravel())
            want = cli.histograms(results[-1], setup.K.n_states)
            rows = [row for row in hist_body if row[0] == mode]
            assert np.array_equal(column(rows, 2), want[0])
            assert np.array_equal(column(rows, 3), want[1])

    @staticmethod
    def reference_run_rows(res):
        """The rows of a runs file as the writer that formatted each horizon's
        file on its own built them: (replicate, p, eta_f, total_weight,
        num_particles, extinct) per replicate and generation, from the
        cell's own traces and extinct flags."""
        reps, width = res.traces.shape
        step = max(1, BLOCK_ROWS // width)
        for lo in range(0, reps, step):
            block = slice(lo, lo + step)
            for rep, etas, weights, counts, extinct in zip(
                    range(lo, reps), res.traces[block].tolist(),
                    res.weight_traces[block].tolist(), res.count_traces[block].tolist(),
                    res.extinct_flags[block].tolist()):
                yield from zip(repeat(rep), range(width), etas, weights, counts,
                               repeat(extinct))

    # (config, flags, whether traditional replicates die out between horizons)
    @pytest.mark.parametrize("config, flags, dying", [
        (dict(DYING_RUN, horizons="1,3,6,12"), [], True),
        (dict(mode="all", horizons="0,2", reps="7", n_particles="60"), [], False),
        # wider than a block: each block holds one replicate
        (dict(mode="all", horizons=f"3,{BLOCK_ROWS + 4}", reps="3",
              n_particles="40"), [], False),
        # 25 replicates a block at width 10, so the last block holds 12
        (dict(mode="all", horizons="5,9", reps="37", n_particles="40"), [], False),
        (dict(SMALL_RUN, reps="40"), ["--threads", "2"], False),
    ], ids=["dying", "horizon_zero", "one_replicate_a_block", "short_last_block",
            "threads"])
    def test_runs_files_match_the_per_file_writer(self, tmp_path, config, flags,
                                                    dying):
        """Each runs file holds the bytes of its cell's rows written on their
        own by write_rows, with the cells run again by `cli.cells`."""
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, **config)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         *flags]) == 0
        cfg = ExperimentConfig.from_file(cfg_path)
        setup = cfg.build_setup()
        model = cli.coarse_model(cfg, setup, max(cfg.horizons))
        h = hashlib.sha256((out / "config.txt").read_bytes()).hexdigest()[:16]
        extinct = []
        for mode, results in cli.cells(cfg, setup, model, cfg.horizons, cfg.reps):
            for res in results:
                want = tmp_path / "want.csv"
                write_rows(want, ("replicate", "p", "eta_f", "total_weight",
                                  "num_particles", "extinct"),
                           self.reference_run_rows(res), h)
                name = f"runs_{mode}_n{res.n}.csv"
                assert (out / name).read_bytes() == want.read_bytes(), name
                if mode == "traditional":
                    extinct.append(res.extinct_count)
        assert sorted(path.name for path in out.glob("runs_*.csv")) == sorted(
            f"runs_{mode}_n{n}.csv" for mode in cfg.modes for n in cfg.horizons)
        if dying:
            assert len(set(extinct)) > 2

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

    def test_transient_bins_get_no_mass_and_no_particles(self, tmp_path):
        """At seed 7, the 300-sample coarse model has transient bins, ones
        that reach a bin that does not reach them back. They get mu = 0
        exactly and no particle, and the run goes on."""
        cfg = write_config(tmp_path, coarse_samples="300", horizons="1", reps="2")
        conf = ExperimentConfig.from_file(cfg, seed=7)
        setup = conf.build_setup()
        model = cli.coarse_model(conf, setup, 1)
        reach = (model.P.to_dense() > 0) | np.eye(model.P.n_states, dtype=bool)
        for _ in range(model.P.n_states):
            reach |= (reach.astype(int) @ reach.astype(int)) > 0
        transient = np.flatnonzero((reach & ~reach.T).any(axis=1))
        assert transient.size and np.all(model.mu.weights[transient] == 0.0)
        init = stationary_init_ensemble(model.mu, setup.bins, conf.n_particles)
        assert not np.isin(setup.bins.bin_of[init.states], transient).any()
        assert cli.main(["run", "--mode", "all", "--seed", "7", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0


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
        and a function that runs the source-sink cell of a set F again, by
        `cli.cells`, on the same config and seed."""
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, **config)
        assert cli.main(["hill", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = ExperimentConfig.from_file(cfg_path)
        setup = cfg.build_setup()
        rho = Distribution.point_mass(cfg.source_state - 1, 90)

        def cell(F):
            spec = SourceSinkSpec(setup.K, frozenset(F), rho)
            chain = setup._replace(K=source_sink_kernel(spec),
                                   f=Observable.indicator(F, 90))
            n = cfg.hill_horizon
            [(_, [res])] = cli.cells(cfg, chain, cli.coarse_model(cfg, chain, n), (n,),
                                     cfg.reps, traces=False)
            return res

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
        floats of its two source-sink cells run again."""
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

    def test_no_replicate_in_the_sink_is_numerical_error(self, tmp_path, capsys):
        # one particle at the first state of each bin of 15 (1, 16, ..., 76)
        # and 3 steps of K = Q^4 take none past state 88, so every replicate
        # has eta_3(1_F) = 0 for F = {90}: the MFPT has no estimate
        cfg = write_config(tmp_path, mode="naive", bin_width="15", n_particles="6",
                           sink_states="90", hill_horizon="3", reps="4",
                           horizons="1")
        code = cli.main(["hill", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mean eta_n(1_F) is not positive" in capsys.readouterr().err


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
        # a reversed interval would name no state at all
        ("run", {"f_states": "33..28"}),
        ("hill", {"hit_a": "30..11", "hit_b": "61..75"}),
        ("hill", {"source_state": "95"}),
        ("hill", {"source_state": "0"}),
        ("hill", {"hit_a": "1..10", "hit_b": "91"}),
        # a hit set without its partner would write no hitting row at all;
        # overlapping sets have no first hit to tell apart
        ("hill", {"hit_a": "11..30"}),
        ("hill", {"hit_a": "11..30", "hit_b": "25..40"}),
        # the config phase builds each source-sink spec, which checks these
        ("hill", {"sink_states": ""}),
        ("hill", {"source_state": "85"}),
        ("hill", {"source_state": "12", "hit_a": "11..30", "hit_b": "61..75"}),
        # CSV files, given by their data rows: a 0 index that would wrap to
        # the last state, a vector index 0, and a state above 10^4
        ("run", {"chain": ["1,1,0.9", "1,2,0.1", "0,1,0.2", "2,2,0.8"],
                 "bin_width": "1", "f_states": "2"}),
        ("run", {"f_states": ["0,1.0", "90,0.0"]}),
        ("run", {"chain": ["10001,1,1.0"]}),
        ("run", {"chain": ["1,1,0.9", "1,2,0.1", "2,1,0.2", "2,2,nan"],
                 "bin_width": "1", "f_states": "2"}),
        # a csv: chain is the kernel itself, so a lag would be ignored
        ("run", {"chain": ["1,1,0.9", "1,2,0.1", "2,1,0.2", "2,2,0.8"],
                 "bin_width": "1", "f_states": "2", "lag": "7"}),
        ("diagnose", {"diag_reps": "99"}),
        ("diagnose", {"diag_horizon": "-1"}),
        ("hill", {"hill_horizon": "-3"}),
        # the 90 states in bins of width 3 make R = 30 bins: the adaptive
        # floor must lie in (0, n_particles / R), and each bin needs a particle
        ("run", {"n_floor": "10"}),
        ("hill", {"n_floor": "0"}),
        ("diagnose", {"mode": "all", "n_floor": "5"}),
        ("run", {"mode": "traditional", "n_particles": "20"}),
        ("hill", {"n_particles": "20"}),
        ("diagnose", {"n_particles": "20"}),
    ], ids=["chain", "bin_width", "f_states", "f_states_reversed", "hit_a_reversed",
            "source_above", "source_zero",
            "hit_b", "hit_a_alone", "hit_overlap", "sink_empty", "source_in_sink",
            "source_in_hit_a", "csv_chain_index_0", "csv_f_index_0", "csv_chain_too_big",
            "csv_chain_nan", "csv_chain_lag", "diag_reps", "diag_horizon", "hill_horizon",
            "n_floor_above", "n_floor_zero", "n_floor_at_bound", "few_particles_run",
            "few_particles_hill", "few_particles_diagnose"])
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

    # the floor is read by the adaptive policy alone, and coarse builds
    # neither a policy nor a starting ensemble
    @pytest.mark.parametrize("args, config", [
        (["run", "--mode", "naive"], {"n_floor": "10"}),
        (["coarse"], {"n_floor": "10"}),
        (["coarse"], {"n_particles": "20"}),
    ], ids=["naive_floor", "coarse_floor", "coarse_particles"])
    def test_floor_and_particles_are_checked_only_where_used(self, tmp_path, args,
                                                              config):
        cfg = write_config(tmp_path, horizons="1", reps="2", **config)
        assert cli.main([*args, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_stationary_residual_miss_is_numerical_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chain=f"csv:{write_steep_chain(tmp_path)}",
                           bin_width="20", horizons="1", reps="2")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "stationary solve missed its tolerance" in capsys.readouterr().err

    def test_solve_wider_than_max_block_is_numerical_error(self, tmp_path, capsys):
        # each state i steps to state 1, to its mirror S + 1 - i and to i + 1
        # (S to 1). Every state reaches 1 in one step, so the stationary
        # solve keeps states 2..S in their order, and state 2 and its mirror
        # S - 1 lie S - 3 apart, more than MAX_BLOCK
        n = markov.MAX_BLOCK + 52
        rows = []
        for i in range(n):
            to = {}
            for j in (0, n - 1 - i, (i + 1) % n):
                to[j] = to.get(j, 0.0) + 1 / 3
            rows += [f"{i + 1},{j + 1},{p!r}" for j, p in to.items()]
        path = tmp_path / "K.csv"
        path.write_text("\n".join(["i,j,value", *rows]) + "\n")
        cfg = write_config(tmp_path, chain=f"csv:{path}", bin_width="30",
                           horizons="1", reps="2")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"couples states {n - 3} apart" in capsys.readouterr().err

    def test_repeated_horizons_are_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, horizons="2,2", reps="2")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "horizons must be strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "absent")]) == 1

    # bins of width 3 on the 90-state chain: a budget below 90 starts one step
    # from each of its first states, and the last bin starts at state 88
    @pytest.mark.parametrize("budget", ["-5", "29", "30", "87"])
    def test_coarse_budget_that_misses_a_bin_is_config_error(self, tmp_path, capsys,
                                                             budget):
        cfg = write_config(tmp_path, horizons="1", reps="2", coarse_samples=budget)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: coarse_samples")
        assert budget == "-5" or "samples every bin is 88" in err
        assert not out.exists()

    def test_least_coarse_budget_runs(self, tmp_path):
        cfg = write_config(tmp_path, horizons="1", reps="2", coarse_samples="88")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    # CFG stands for a config file that runs: at horizon 1, with 2 replicates
    @pytest.mark.parametrize("argv", [
        [],
        ["walk", "--config", "CFG"],
        ["run", "--config", "CFG", "--bogus", "1"],
        ["run", "--conf", "CFG"],
        ["run", "--config", "CFG", "--out", "o", "--seed"],
        ["run", "--config", "CFG", "--seed", "abc"],
        ["run", "--config", "CFG", "--reps", "ten"],
        ["run", "--config", "CFG", "--threads", "1.5"],
    ], ids=["no_arguments", "unknown_command", "unknown_flag", "abbreviation",
            "flag_without_value", "seed_not_integer", "reps_not_integer",
            "threads_not_integer"])
    def test_bad_command_line_is_config_error(self, tmp_path, monkeypatch, capsys,
                                              argv):
        cfg = write_config(tmp_path, horizons="1", reps="2")
        monkeypatch.chdir(tmp_path)  # where the default out directory would go
        assert cli.main([str(cfg) if arg == "CFG" else arg for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert [path.name for path in tmp_path.iterdir()] == ["config"]

    def test_help_names_every_command_and_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--help"]) == 0
        printed = capsys.readouterr().out
        for name in ("coarse", "run", "diagnose", "hill", "--config", "--seed",
                     "--out", "--reps", "--threads", "--mode"):
            assert name in printed
        assert not any(tmp_path.iterdir())

    def test_flag_value_after_an_equals_sign(self, tmp_path):
        # --flag=value reads as --flag value, and a repeated flag keeps its
        # last value
        cfg = write_config(tmp_path, horizons="1", reps="4", n_particles="60")
        outs = {}
        for name, seed in [("spaced", ["--seed", "7"]), ("equals", ["--seed=7"]),
                           ("repeated", ["--seed", "3", "--seed=7"])]:
            outs[name] = tmp_path / name
            assert cli.main(["run", "--config", str(cfg), "--out", str(outs[name]),
                             *seed]) == 0
        names = sorted(path.name for path in outs["spaced"].iterdir())
        for out in outs.values():
            assert sorted(path.name for path in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (outs["spaced"] / name).read_bytes()


def test_main_freezes_the_heap_once_per_process(tmp_path, monkeypatch):
    frozen = []
    monkeypatch.setattr(cli, "_heap_frozen", False)
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(1))
    cfg = write_config(tmp_path, horizons="1")
    for out in ("a", "b"):
        assert cli.main(["coarse", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    assert frozen == [1]


@pytest.mark.parametrize("case, code", [("run", 0), ("config_error", 1),
                                        ("bad_flag", 1), ("numerical_failure", 2)])
def test_exit_of_a_process_with_a_frozen_heap(tmp_path, case, code):
    """A frozen heap matters only at a real interpreter exit: a command run
    as `python -m weighted_ensemble.cli` keeps its exit code, and every file
    it writes holds the bytes of the same command run in this process."""
    config = {"run": SMALL_RUN,
              "config_error": dict(horizons="1", coarse_samples="29"),
              "bad_flag": SMALL_RUN,
              "numerical_failure": dict(chain=f"csv:{write_steep_chain(tmp_path)}",
                                        bin_width="20", horizons="1", reps="2")}[case]
    flags = ["--bogus", "1"] if case == "bad_flag" else []
    cfg = write_config(tmp_path, **config)
    package_root = str(Path(weighted_ensemble.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    sub, ref = tmp_path / "sub", tmp_path / "ref"
    proc = subprocess.run([sys.executable, "-m", "weighted_ensemble.cli", "run",
                           "--config", str(cfg), "--out", str(sub), *flags],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert cli.main(["run", "--config", str(cfg), "--out", str(ref), *flags]) == code
    if code == 1:
        assert proc.stderr.startswith("config error:")
        assert not sub.exists()
        return
    names = sorted(path.name for path in ref.iterdir())
    assert names == sorted(path.name for path in sub.iterdir())
    for name in names:
        assert (sub / name).read_bytes() == (ref / name).read_bytes(), name
    if code == 0:
        assert (sub / "summary.csv").read_bytes().endswith(b"\r\n")
        assert len(read_csv(sub / "summary.csv")[1]) == 6  # 3 modes x 2 horizons


def test_import_leaves_scipy_out():
    # every command solves with numpy alone; scipy.sparse.linalg would add
    # about 0.35 s of import to every command's set-up
    code = "import sys, weighted_ensemble.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_numpy_random_loads_with_the_package():
    # numpy.random loads at import, so before main's heap freeze and outside
    # every run_we span; a stream's first draw then loads nothing
    code = ("import sys, weighted_ensemble.cli\n"
            "assert 'numpy.random' in sys.modules\n"
            "from weighted_ensemble import RngStream\n"
            "before = set(sys.modules)\n"
            "RngStream(0, 0).at(0, 'select').random(3)\n"
            "print(sorted(set(sys.modules) - before))\n")
    package_root = str(Path(weighted_ensemble.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_dataclasses_out():
    # the package's types are plain classes and NamedTuples: a dataclass
    # generates and execs its methods at every import, which bytecode does
    # not cache, so its classes alone once took about 10 ms of each command
    code = "import sys, weighted_ensemble.cli; print('dataclasses' in sys.modules)"
    package_root = str(Path(weighted_ensemble.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"



def test_import_and_a_csv_run_load_no_parser_modules(tmp_path):
    # argparse with gettext (and locale, once a parser is built) and csv
    # took about 3 ms of every command's import; csv now loads only where a
    # chain file's line defeats numpy's parser, which this one's do not
    chain = tmp_path / "K.csv"
    chain.write_text("i,j,value\n1,1,0.9\n1,2,0.1\n2,1,0.2\n2,2,0.8\n")
    cfg = write_config(tmp_path, chain=f"csv:{chain}", bin_width="1", f_states="2",
                       horizons="1", reps="2", n_particles="4")
    code = ("import sys\n"
            "names = {'dataclasses', 'argparse', 'gettext', 'locale', 'csv'}\n"
            "bare = names & set(sys.modules)\n"
            "import weighted_ensemble.cli as cli\n"
            "print(sorted(names & set(sys.modules) - bare))\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, sorted(names & set(sys.modules) - bare))\n")
    package_root = str(Path(weighted_ensemble.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, "run", "--config", str(cfg),
                           "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "0 []"
