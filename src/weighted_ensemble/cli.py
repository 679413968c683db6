"""Command-line front end.

Commands: coarse, run, diagnose, hill, each with the flags of FLAGS. Exit
codes: 0 success (and -h/--help), 1 config error (a malformed command line
too), 2 numerical failure, 3 diagnostic check failure. All CSVs carry a
header row and a leading comment recording the config hash, the sha256 of
the config.txt written beside them.
"""
from __future__ import annotations

import gc
import sys
from itertools import groupby, repeat
from pathlib import Path
from typing import Iterator, Sequence

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
    Distribution,
    Observable,
    second_eigenvalue_modulus,
    stationary,
)
from .serialize import (
    array_rows,
    config_hash,
    write_matrix_csv,
    write_rows,
    write_runs,
    write_v_table_csv,
    write_vector_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


# every flag, which every command reads, with its help. --config names the
# file; every other flag's value is the text of the config key of its name
# (diag_reps for --reps of diagnose), which `ExperimentConfig.from_file` types
FLAGS = {
    "config": "key=value config file",
    "seed": "RNG seed, a nonnegative integer",
    "out": "output directory",
    "reps": "replicate count (diag_reps for diagnose)",
    "threads": "worker processes",
    "mode": "adaptive | traditional | naive | all",
}


def usage() -> str:
    """What -h and --help print: the command line's form, the commands and
    the flags."""
    return "\n".join([
        "usage: we-sample <command> [--flag value | --flag=value] ...",
        "",
        "Weighted-ensemble resampling for finite-state Markov chains.",
        "",
        "commands:",
        *(f"  {name:10s}{doc}" for name, (_, doc) in COMMANDS.items()),
        "",
        "flags (a repeated flag keeps its last value):",
        *(f"  --{name:10s}{doc}" for name, doc in FLAGS.items()),
    ])


def parse_args(argv: Sequence[str]) -> tuple[str, dict]:
    """The command of ``argv``, `<command> [--flag value | --flag=value] ...`,
    and the text of each flag of FLAGS, None where absent. A repeated flag
    keeps its last value. Raises ValueError for an unknown command or flag
    (an abbreviation too) and a flag with no value."""
    if not argv or argv[0] not in COMMANDS:
        given = f", not {argv[0]!r}" if argv else ""
        raise ValueError(f"the command must be one of {', '.join(COMMANDS)}{given}")
    flags = dict.fromkeys(FLAGS)
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        name = flag[2:]
        if flag[:2] != "--" or name not in FLAGS:
            raise ValueError(f"unknown flag {flag!r}; the flags are --"
                             + ", --".join(FLAGS))
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{flag} needs a value")
        flags[name] = value
    return argv[0], flags


def _load_config(command: str, flags: dict
                 ) -> tuple[ExperimentConfig, ChainSetup, list[SourceSinkSpec]]:
    """The config phase: the config with its flag overrides, checked, the
    chain setup it builds and, for hill, its source-sink specs (on the sink,
    then on A u B when hit sets are given). Each error here is a config
    error."""
    if command == "coarse":
        for flag in ("reps", "threads", "mode"):
            if flags[flag] is not None:
                raise ValueError(f"coarse does not take --{flag}")
    overrides = dict(flags)
    path = overrides.pop("config")
    if command == "diagnose":
        overrides["diag_reps"] = overrides.pop("reps")
    cfg = ExperimentConfig.from_file(path, **overrides)
    if command == "hill" and len(cfg.modes) > 1:
        raise ValueError("hill runs one mode: adaptive, traditional or naive")
    setup = cfg.build_setup()
    if command != "coarse":
        # the starting ensemble and the adaptive policy check these again
        R = setup.bins.n_bins
        if cfg.n_particles < R:
            raise ValueError(f"n_particles must be at least the bin count, {R}")
        if "adaptive" in cfg.modes and not 0 < cfg.n_floor < cfg.n_particles / R:
            raise ValueError(f"n_floor must lie in (0, n_particles / R) = "
                             f"(0, {cfg.n_particles / R})")
    specs = []
    if command == "hill":
        n = setup.K.n_states
        [source], sink, A, B = (cfg.state_set(key, n) for key in
                                ("source_state", "sink_states", "hit_a", "hit_b"))
        if bool(cfg.hit_a) != bool(cfg.hit_b):
            raise ValueError("hit_a and hit_b go together: set both or neither")
        if set(A) & set(B):
            raise ValueError("hit_a and hit_b must be disjoint")
        rho = Distribution.point_mass(source, n)
        specs = [SourceSinkSpec(setup.K, frozenset(F), rho)
                 for F in [sink] + ([A + B] if cfg.hit_b else [])]
    return cfg, setup, specs


def coarse_model(cfg: ExperimentConfig, setup: ChainSetup, horizon: int) -> CoarseModel:
    """The coarse model every subcommand uses, with its v table for
    max(horizon, 1) generations (a run to horizon 0 never selects, so it
    reads no row): exact when coarse_samples = 0, otherwise sampled from the
    seed's "coarse" stream."""
    return build_coarse_model(setup.K, setup.bins, setup.f, max(horizon, 1),
                              cfg.coarse_samples, cfg.seed)


def cells(cfg: ExperimentConfig, setup: ChainSetup, model: CoarseModel,
          horizons: Sequence[int], reps: int, doob: bool = False,
          traces: bool = True) -> Iterator[tuple[str, list[SweepResult]]]:
    """Each mode of the config with its cell: replicates 0..reps-1 of the
    seed from the model's mu-spread ensemble, under the mode's policy on the
    model's v table, one result per horizon. A mode's cell runs when it is
    asked for. Only `run` writes every generation; `hill` and `diagnose`
    read generation n alone and ask for no ``traces``."""
    init = stationary_init_ensemble(model.mu, setup.bins, cfg.n_particles)
    for mode in cfg.modes:
        policy = make_policy(mode, setup.bins, cfg.n_particles, cfg.n_floor,
                             cfg.per_bin_target, model.v)
        yield mode, run_sweep_cell(setup, init, policy, horizons, reps, cfg.seed,
                                   cfg.threads, doob, traces)


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
    hist = np.zeros((2, n_states))
    for final in res.final:
        keys = np.repeat(np.arange(final.n_replicates) * n_states, final.sizes)
        pairs, pair_of = np.unique(keys + final.states, return_inverse=True)
        replicate, state = np.divmod(pairs, n_states)
        np.add.at(hist[0], state, np.bincount(pair_of) / final.sizes[replicate])
        np.add.at(hist[1], state, np.bincount(pair_of, final.weights)
                  / final.total_weight[replicate])
    return hist / max(res.reps - res.extinct_count, 1)


def runs_of(results: list[SweepResult]) -> Iterator[list[SweepResult]]:
    """A mode's cells grouped by the run they come from, in horizon order:
    `run_sweep_cell` makes each cell a view of its run's traces, so the cells
    of one run share their traces' base array, and the last is the widest."""
    for _, run in groupby(results, lambda res: id(res.traces.base)):
        yield list(run)


def cmd_run(cfg: ExperimentConfig, setup: ChainSetup, out: Path, h: str) -> int:
    n_max = max(cfg.horizons)
    model = coarse_model(cfg, setup, n_max)
    pi_f = float(stationary(setup.K).weights @ setup.f.values)
    n_states = setup.K.n_states

    summary_rows = []
    hist_rows = []
    extinct_total = 0
    for mode, results in cells(cfg, setup, model, cfg.horizons, cfg.reps):
        for run in runs_of(results):
            write_runs([(out / f"runs_{mode}_n{res.n}.csv", res.n, res.extinct_flags)
                        for res in run],
                       run[-1].traces, run[-1].weight_traces, run[-1].count_traces, h)
        for res in results:
            n = res.n
            extinct_total += res.extinct_count
            summary_rows.append((
                mode, n, cfg.reps, res.mean, res.std, res.std_err,
                res.exact, pi_f, res.extinct_count,
            ))
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
    # v tables at p = 0 and p = n_max - 1 (the figure-3 style snapshot), each
    # generation once; a set, as np.unique without return_* imports numpy.ma
    v = model.v if n_max >= 1 else np.zeros((1, model.n_bins))
    snap = np.array(sorted({0, max(n_max - 1, 0)}))
    p, r = np.repeat(snap, v.shape[1]), np.tile(np.arange(1, v.shape[1] + 1), snap.size)
    write_rows(out / "v_snapshot.csv", ("p", "r", "value"),
               array_rows(p, r, v[snap].ravel()), h)
    write_rows(out / "extinctions.csv", ("total_extinct_replicates",),
               [(extinct_total,)], h)
    print(f"run results written to {out}")
    return EXIT_OK


def cmd_diagnose(cfg: ExperimentConfig, setup: ChainSetup, out: Path, h: str) -> int:
    n = cfg.diag_horizon
    model = coarse_model(cfg, setup, n)
    rows = []
    all_passed = True
    for _, [res] in cells(cfg, setup, model, (n,), cfg.diag_reps, doob=True,
                          traces=False):
        for report in run_checks(res):
            rows.append(report)  # its fields are the columns below, in order
            all_passed &= report.passed
            status = "pass" if report.passed else "FAIL"
            print(f"{report.check:16s} mode={report.policy:12s} n={report.n} "
                  f"z={report.z:+.3f} [{status}]")
    write_rows(out / "diagnostics.csv",
               ("check", "n", "policy", "value", "exact_or_rhs", "std_err",
                "z", "pass"), rows, h)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_hill(cfg: ExperimentConfig, setup: ChainSetup, out: Path, h: str,
             spec: SourceSinkSpec, hit_spec: SourceSinkSpec | None = None) -> int:
    n_states = setup.K.n_states
    n = cfg.hill_horizon
    sink = sorted(spec.sink)

    def restart_run(spec: SourceSinkSpec) -> tuple[ChainSetup, SweepResult]:
        """The chain that restarts from rho on entering F, with f = 1_F, and
        its cell of replicates to the hill horizon."""
        chain = setup._replace(K=source_sink_kernel(spec),
                               f=Observable.indicator(spec.sink, n_states))
        [(_, [res])] = cells(cfg, chain, coarse_model(cfg, chain, n), (n,), cfg.reps,
                             traces=False)
        if res.mean <= 0:
            raise ValueError("mean eta_n(1_F) is not positive")
        return chain, res

    # mfpt inverts the replicate mean of eta_n(1_F); a replicate with eta <= 0
    # has no inverse of its own and counts as invalid, but still enters the mean
    chain, res = restart_run(spec)
    mfpt = 1.0 / res.mean
    invalid = int((res.etas <= 0).sum())
    oracle_mfpt = direct_mfpt(setup.K, spec.source, sink)
    rows = [
        ("pi_F", res.mean, float(stationary(chain.K).weights[sink].sum()),
         res.std_err, invalid),
        ("mfpt", mfpt, oracle_mfpt, res.std_err / res.mean**2, invalid),
    ]
    if hit_spec is not None:
        # P[tau_B < tau_A] = eta_n(1_B) / eta_n(1_{A u B}) from one set of
        # replicates on the chain that restarts on entering A u B; invalid
        # replicates are again those with eta_n(1_{A u B}) <= 0
        A = cfg.state_set("hit_a", n_states)
        B = cfg.state_set("hit_b", n_states)
        del res  # free the first run's traces before the second run
        chain, res = restart_run(hit_spec)
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


# every command with its handler and its help
COMMANDS = {
    "coarse": (cmd_coarse, "build the coarse model and write P/u/mu/v CSVs"),
    "run": (cmd_run, "run the replicate sweep over modes and horizons"),
    "diagnose": (cmd_diagnose, "unbiasedness and Doob-identity checks"),
    "hill": (cmd_hill, "source-sink MFPT and hitting-probability estimates"),
}
_heap_frozen = False


def main(argv=None) -> int:
    global _heap_frozen
    if not _heap_frozen:
        # once per process, move the heap a command starts with (numpy's and
        # this package's modules, functions and dicts: about 22 300 objects
        # and no garbage) to the permanent generation, which no collection
        # examines: the collection at interpreter exit then skips it, which
        # saves about 20 ms. Fork-started workers inherit it frozen.
        gc.freeze()
        _heap_frozen = True
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(usage())
        return EXIT_OK
    try:
        command, flags = parse_args(argv)
        cfg, setup, specs = _load_config(command, flags)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler = COMMANDS[command][0]
    out = Path(cfg.out)
    text = cfg.canonical_text()
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_bytes(text.encode())
    try:
        return handler(cfg, setup, out, config_hash(text), *specs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
