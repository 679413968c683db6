"""Command-line front end.

Subcommands: coarse, run, diagnose, hill. Exit codes: 0 success, 1 config
error, 2 numerical failure, 3 diagnostic check failure. All CSVs carry a
header row and a leading comment recording the config hash, the sha256 of
the config.txt written beside them.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .coarse import CoarseModel, build_coarse_model
from .config import ExperimentConfig
from .diagnostics import run_checks
from .engine import stationary_init_ensemble
from .experiment import ChainSetup, SweepResult, make_policy, run_sweep_cell
from .hill import (
    SourceSinkSpec,
    direct_mfpt,
    hitting_probability,
    source_sink_kernel,
)
from .markov import (
    ConvergenceError,
    Distribution,
    Observable,
    second_eigenvalue_modulus,
    stationary,
)
from .serialize import (
    BLOCK_ROWS,
    array_rows,
    config_hash,
    write_matrix_csv,
    write_rows,
    write_v_table_csv,
    write_vector_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", type=Path, default=None, help="key=value config file")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (64-bit)")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--reps", type=int, default=None,
                     help="replicate count (diag_reps for diagnose)")
    sub.add_argument("--threads", type=int, default=None, help="worker processes")
    sub.add_argument("--mode", type=str, default=None,
                     help="adaptive | traditional | naive | all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="we-sample",
        description="Weighted-ensemble resampling for finite-state Markov chains.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("coarse", "build the coarse model and write P/u/mu/v CSVs"),
        ("run", "run the replicate sweep over modes and horizons"),
        ("diagnose", "unbiasedness and Doob-identity checks"),
        ("hill", "source-sink MFPT and hitting-probability estimates"),
    ):
        sub = subs.add_parser(name, help=doc)
        _common_flags(sub)
    return parser


def _load_config(args) -> tuple[ExperimentConfig, ChainSetup]:
    """The config phase: the config with its flag overrides, checked, and the
    chain setup it builds. Each error here is a config error."""
    if args.command == "coarse":
        for flag in ("reps", "threads", "mode"):
            if getattr(args, flag) is not None:
                raise ValueError(f"coarse does not take --{flag}")
    reps_key = "diag_reps" if args.command == "diagnose" else "reps"
    cfg = ExperimentConfig.from_file(
        args.config,
        seed=args.seed,
        out=args.out,
        threads=args.threads,
        mode=args.mode,
        **{reps_key: args.reps},
    )
    if args.command == "hill" and len(cfg.modes) > 1:
        raise ValueError("hill runs one mode: adaptive, traditional or naive")
    setup = cfg.build_setup()
    if args.command == "hill":
        _, _, A, B = (cfg.state_set(key, setup.K.n_states)
                      for key in ("source_state", "sink_states", "hit_a", "hit_b"))
        if bool(cfg.hit_a) != bool(cfg.hit_b):
            raise ValueError("hit_a and hit_b go together: set both or neither")
        if set(A) & set(B):
            raise ValueError("hit_a and hit_b must be disjoint")
    return cfg, setup


def coarse_model(cfg: ExperimentConfig, setup: ChainSetup, horizon: int) -> CoarseModel:
    """The coarse model every subcommand uses: exact when coarse_samples = 0,
    otherwise sampled from the seed's "coarse" stream."""
    return build_coarse_model(setup.K, setup.bins, setup.zeta, setup.f, horizon,
                              cfg.coarse_samples, cfg.seed)


def cmd_coarse(cfg: ExperimentConfig, setup: ChainSetup, out: Path, h: str) -> int:
    model = coarse_model(cfg, setup, max(cfg.horizons))
    write_matrix_csv(out / "P.csv", model.P, h)
    write_vector_csv(out / "u.csv", model.u, h)
    write_vector_csv(out / "mu.csv", model.mu.weights, h)
    write_v_table_csv(out / "v.csv", model.v, h)
    lam2 = second_eigenvalue_modulus(model.P)
    print(f"coarse model written to {out} (R={model.n_bins}, lambda_2={lam2:.6f})")
    return EXIT_OK


def histograms(res: SweepResult, n_states: int) -> np.ndarray:
    """Count and weight fractions per state in each surviving replicate's final
    ensemble, averaged over the survivors.

    Per pass, to bound the memory, one bincount over the occupied (replicate,
    state) pairs for counts and one for weights, each pair scaled by its
    replicate's size or total weight; `np.add.at` adds them to their states'
    sums in replicate order. Extinct replicates own no pair.
    """
    hist, lo = np.zeros((2, n_states)), 0
    for final in res.final:
        hi = lo + final.n_replicates
        keys = np.repeat(np.arange(lo, hi) * n_states, final.sizes) + final.states
        pairs, pair_of = np.unique(keys, return_inverse=True)
        replicate, state = np.divmod(pairs, n_states)
        np.add.at(hist[0], state, np.bincount(pair_of) / final.sizes[replicate - lo])
        np.add.at(hist[1], state, np.bincount(pair_of, final.weights)
                  / res.weight_traces[replicate, -1])
        lo = hi
    return hist / max(res.reps - res.extinct_count, 1)


def run_rows(res: SweepResult) -> Iterator[tuple]:
    """The rows of runs_<mode>_n<n>.csv, one per replicate and generation:
    (replicate, p, eta_f, total_weight, num_particles, extinct), converted
    to Python cells by tolist() a block of replicates at a time."""
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


def cmd_run(cfg: ExperimentConfig, setup: ChainSetup, out: Path, h: str) -> int:
    n_max = max(cfg.horizons)
    model = coarse_model(cfg, setup, n_max or 1)
    init = stationary_init_ensemble(model.mu, setup.bins, cfg.n_particles)
    pi_f = float(stationary(setup.K).weights @ setup.f.values)
    n_states = setup.K.n_states

    summary_rows = []
    hist_rows = []
    extinct_total = 0
    for mode in cfg.modes:
        policy = make_policy(mode, setup.bins, cfg.n_particles, cfg.n_floor,
                             cfg.per_bin_target, model.v)
        for res in run_sweep_cell(setup, init, policy, cfg.horizons, cfg.reps,
                                  cfg.seed, cfg.threads):
            n = res.n
            extinct_total += res.extinct_count
            summary_rows.append((
                mode, n, cfg.reps, res.mean, res.std, res.std_err,
                res.exact, pi_f, res.extinct_count,
            ))
            write_rows(out / f"runs_{mode}_n{n}.csv",
                       ("replicate", "p", "eta_f", "total_weight",
                        "num_particles", "extinct"), run_rows(res), h)
            if res.final is not None:
                count_frac, weight_frac = histograms(res, n_states).tolist()
                hist_rows += zip(repeat(mode), range(1, n_states + 1), count_frac,
                                 weight_frac)
            if res.extinct_count > 0.01 * cfg.reps:
                print(f"warning: {res.extinct_count}/{cfg.reps} replicates went "
                      f"extinct in mode={mode}, n={n}", file=sys.stderr)
    write_rows(out / "summary.csv",
               ("mode", "n", "reps", "mean", "std", "std_err", "exact",
                "stationary", "extinct_count"),
               summary_rows, h)
    write_rows(out / "histograms.csv",
               ("mode", "i", "count_fraction", "weight_fraction"), hist_rows, h)
    # v tables at p = 0 and p = n_max - 1 (the figure-3 style snapshot)
    v = model.v if n_max >= 1 else np.zeros((1, model.n_bins))
    snap = np.array([0, n_max - 1] if n_max >= 1 else [0])
    p, r = np.repeat(snap, v.shape[1]), np.tile(np.arange(1, v.shape[1] + 1), snap.size)
    write_rows(out / "v_snapshot.csv", ("p", "r", "value"),
               array_rows(p, r, v[snap].ravel()), h)
    write_rows(out / "extinctions.csv", ("total_extinct_replicates",),
               [(extinct_total,)], h)
    print(f"run results written to {out}")
    return EXIT_OK


def cmd_diagnose(cfg: ExperimentConfig, setup: ChainSetup, out: Path, h: str) -> int:
    n = cfg.diag_horizon
    model = coarse_model(cfg, setup, max(n, 1))
    init = stationary_init_ensemble(model.mu, setup.bins, cfg.n_particles)
    rows = []
    all_passed = True
    for mode in cfg.modes:
        policy = make_policy(mode, setup.bins, cfg.n_particles,
                             cfg.n_floor, cfg.per_bin_target, model.v)
        [res] = run_sweep_cell(setup, init, policy, (n,), cfg.diag_reps, cfg.seed,
                               cfg.threads, doob=True)
        for report in run_checks(res):
            rows.append((report.check, report.n, report.policy, report.value,
                         report.reference, report.std_err, report.z,
                         report.passed))
            all_passed &= report.passed
            status = "pass" if report.passed else "FAIL"
            print(f"{report.check:16s} mode={report.policy:12s} n={report.n} "
                  f"z={report.z:+.3f} [{status}]")
    write_rows(out / "diagnostics.csv",
               ("check", "n", "policy", "value", "exact_or_rhs", "std_err",
                "z", "pass"), rows, h)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_hill(cfg: ExperimentConfig, setup: ChainSetup, out: Path, h: str) -> int:
    base = setup.K
    n_states = base.n_states
    n = cfg.hill_horizon
    rho = Distribution.point_mass(cfg.source_state - 1, n_states)
    sink = cfg.state_set("sink_states", n_states)

    def restart_run(F: list[int]) -> tuple[ChainSetup, SweepResult]:
        """The chain that restarts from rho on entering F, with f = 1_F, and
        its replicates to the hill horizon, run as cmd_run runs a cell."""
        K = source_sink_kernel(SourceSinkSpec(base, frozenset(F), rho))
        chain = replace(setup, K=K, f=Observable.indicator(F, n_states))
        model = coarse_model(cfg, chain, max(n, 1))
        init = stationary_init_ensemble(model.mu, chain.bins, cfg.n_particles)
        policy = make_policy(cfg.modes[0], chain.bins, cfg.n_particles,
                             cfg.n_floor, cfg.per_bin_target, model.v)
        [res] = run_sweep_cell(chain, init, policy, (n,), cfg.reps, cfg.seed,
                               cfg.threads)
        if res.mean <= 0:
            raise ValueError("mean eta_n(1_F) is not positive")
        return chain, res

    # mfpt inverts the replicate mean of eta_n(1_F); a replicate with eta <= 0
    # has no inverse of its own and counts as invalid, but still enters the mean
    chain, res = restart_run(sink)
    mfpt = 1.0 / res.mean
    invalid = int((res.etas <= 0).sum())
    oracle_mfpt = direct_mfpt(base, rho, sink)
    rows = [
        ("pi_F", res.mean, float(stationary(chain.K).weights[sink].sum()),
         res.std_err, invalid),
        ("mfpt", mfpt, oracle_mfpt, res.std_err / res.mean**2, invalid),
    ]
    if cfg.hit_b:
        # P[tau_B < tau_A] = eta_n(1_B) / eta_n(1_{A u B}) from one set of
        # replicates on the chain that restarts on entering A u B; invalid
        # replicates are again those with eta_n(1_{A u B}) <= 0
        A = cfg.state_set("hit_a", n_states)
        B = cfg.state_set("hit_b", n_states)
        del res  # free the first run's traces before the second run
        chain, res = restart_run(A + B)
        eta_b = res.final_eta(Observable.indicator(B, n_states))
        ratio = float(eta_b.mean()) / res.mean
        # delta method: the ratio's SE is the SE of the mean of
        # eta_n(1_B) - ratio eta_n(1_{A u B}), over the mean of the latter
        resid = eta_b - ratio * res.etas
        se = float(resid.std(ddof=1)) / np.sqrt(res.reps) if res.reps > 1 else 0.0
        rows.append(("hitting_probability", ratio,
                     hitting_probability(stationary(chain.K), A, B), se / res.mean,
                     int((res.etas <= 0).sum())))
    write_rows(out / "hill.csv",
               ("quantity", "estimate", "oracle", "std_err", "invalid_replicates"),
               rows, h)
    print(f"hill estimates written to {out} "
          f"(mfpt={mfpt:.4f}, oracle={oracle_mfpt:.4f})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, setup = _load_config(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {
        "coarse": cmd_coarse,
        "run": cmd_run,
        "diagnose": cmd_diagnose,
        "hill": cmd_hill,
    }[args.command]
    out = Path(cfg.out)
    text = cfg.canonical_text()
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_bytes(text.encode())
    try:
        return handler(cfg, setup, out, config_hash(text))
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
