"""Benchmark of the we-sample CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. Each round is one fresh,
single-threaded Python process running one ``we-sample`` command on inputs
generated from ``--seed``. After an untimed import of the package, rounds
repeat while the next one is expected to end within ``--seconds`` (at least
three rounds), and each metric is the median over rounds.
With ``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics are reported instead. Every round's outputs are checked against
independent oracles. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 when
every check passed, 1 when one failed and 2 when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_out"
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
# typical time of reference.py on the machine described in README.md; each
# round's times are scaled by REFERENCE_S / the reference's time around it
REFERENCE_S = 0.60

END_TO_END = {"wall_s": "s", "setup_s": "s", "rep_gens_per_s": "1/s",
              "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "particles": "count", "generations": "count",
               "rows": "count", "computed_mb": "MB_computed", "mb": "MB"}
# reported on every workload; a count reads 0 where the workload never calls
# the layer, and every workload calls each layer whose time is listed
PER_LAYER = (
    "engine.rng_at.calls", "engine.rng_at.self_s",
    "engine.select.calls", "engine.select.self_s",
    "engine.allocate_targets.self_s",
    "engine.bin_totals.calls", "engine.bin_totals.self_s",
    "engine.mutate.calls", "engine.mutate.self_s", "engine.mutate.particles",
    "engine.mutate.computed_mb",
    "engine.empirical_estimate.self_s",
    "engine.run_we.calls", "engine.run_we.generations", "engine.run_we.self_s",
    "coarse.build_coarse_model.self_s",
    "coarse.compute_v.calls", "coarse.compute_v.self_s",
    "markov.stationary.calls", "markov.stationary.self_s",
    "diagnostics.doob_terms.calls", "experiment.run_sweep_cell.calls",
    "serialize.write_rows.calls", "serialize.write_rows.rows",
    "serialize.write_rows.mb", "serialize.write_rows.self_s",
    "config.build_setup.self_s",
)
# self times of layers that only some workloads call: printed but left out of
# the result, because elsewhere they read 0 on every run, and a time that never
# changes cannot be told from a fixed number
LAYERS_PRINTED_ONLY = (
    "diagnostics.g_sequence.self_s", "diagnostics.doob_terms.self_s",
    "hill.source_sink_kernel.self_s", "hill.direct_mfpt.self_s",
    "experiment.run_sweep_cell.self_s", "serialize.read_matrix_csv.self_s",
)
# the end-to-end times before the host-speed correction, and the reference's
# own median time: printed to show the correction, not part of the result
PRINTED_ONLY = LAYERS_PRINTED_ONLY + (
    "uncorrected.wall_s", "uncorrected.setup_s", "uncorrected.rep_gens_per_s",
    "reference_s",
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run or cannot measure."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def warm_up():
    """Import the package once in a fresh process, untimed, so the first
    round finds its bytecode compiled and its files in the page cache."""
    done = subprocess.run([sys.executable, "-c", "import weighted_ensemble.cli"],
                          env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=ROUND_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("cannot import weighted_ensemble.cli from ./src")


def run_timed(cmd: list[str], log) -> tuple[float, float, int, object]:
    """Run cmd in a fresh process and wait for it without polling.
    Returns its start time, wall time, exit code and resource usage."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, proc.returncode, usage


def time_reference() -> float:
    """Wall time of reference.py in a fresh process, in seconds."""
    _, wall, code, _ = run_timed([sys.executable, str(HERE / "reference.py")],
                                 subprocess.DEVNULL)
    if code != 0:
        raise BenchError("reference.py failed")
    return wall


def run_round(work: workloads.Workload, traced: bool) -> dict:
    """Run the workload once in a fresh process, time it, check its outputs."""
    shutil.rmtree(work.out, ignore_errors=True)
    report_path = work.out.parent / "report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "probe.py"), str(report_path),
           *(["--trace"] if traced else []), "--", *work.argv]
    with open(work.out.parent / "round.log", "w") as log:
        t0, wall, returncode, usage = run_timed(cmd, log)
    report = json.loads(report_path.read_text()) if report_path.is_file() else None
    if report is not None and not report["module"].startswith(str(ROOT / "src")):
        raise BenchError(f"package imported from {report['module']}, not ./src")
    ops = [False] * work.n_ops
    if report is not None:
        try:
            ops = work.check(work.out, returncode)
        except (OSError, KeyError, ValueError) as exc:
            print(f"{work.name}: unreadable output: {exc!r}", file=sys.stderr)
    if not all(ops):
        print(f"{work.name}: exit {returncode}, {ops.count(False)} of "
              f"{len(ops)} checks failed; see {log.name}", file=sys.stderr)
    return {"t0": t0, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "report": report, "traced": traced, "ops": ops}


def end_to_end(rounds: list[dict], references: list[float],
               work: workloads.Workload) -> dict:
    """Medians over rounds; times are scaled to the host speed at which
    reference.py takes REFERENCE_S, measured just before and after each round."""
    timed = [(r, REFERENCE_S / statistics.mean(references[i:i + 2]))
             for i, r in enumerate(rounds) if r["report"] and r["report"]["first_run_we"]]
    if not timed:
        raise BenchError("no round reached run_we")
    out = {}
    for prefix, scaled in (("", True), ("uncorrected.", False)):
        wall = [r["wall"] * (c if scaled else 1.0) for r, c in timed]
        setup = [(r["report"]["first_run_we"] - r["t0"]) * (c if scaled else 1.0)
                 for r, c in timed]
        out[prefix + "wall_s"] = statistics.median(wall)
        out[prefix + "setup_s"] = statistics.median(setup)
        out[prefix + "rep_gens_per_s"] = statistics.median(
            work.rep_gens / (w - s) for w, s in zip(wall, setup))
        if scaled:
            out["peak_rss_mb"] = statistics.median(r["rss_mb"] for r, _ in timed)
    out["reference_s"] = statistics.median(references)
    return out


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"] and r["report"]]
    plain = [r for r in rounds if not r["traced"]]
    if not traced or not plain:
        raise BenchError("need at least one traced and one untraced round")
    out = {}
    for name in PER_LAYER + LAYERS_PRINTED_ONLY:
        layer, quantity = name.rsplit(".", 1)
        out[name] = statistics.median(
            r["report"]["layers"].get(layer, {}).get(quantity, 0) for r in traced)
    out["cli.import_s"] = statistics.median(r["report"]["import_s"] for r in traced)
    out["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                               - statistics.median(r["wall"] for r in plain))
    return out


def unit(name: str) -> str:
    if name.rsplit(".", 1)[-1] in END_TO_END:
        return END_TO_END[name.rsplit(".", 1)[-1]]
    return "s" if name.endswith("_s") else LAYER_UNITS[name.rsplit(".", 1)[1]]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = WORK / name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    work = workloads.WORKLOADS[name](work_dir, seed)
    warm_up()
    rounds = []
    # the traced run reports raw per-layer times, so it needs no reference
    references = [] if trace else [time_reference()]
    start = time.monotonic()
    while True:
        rounds.append(run_round(work, traced=trace and len(rounds) % 2 == 1))
        if not trace:
            references.append(time_reference())
        elapsed = time.monotonic() - start
        # stop when one more round, at the mean pace so far, would overrun
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
            break
    ops = [ok for r in rounds for ok in r["ops"]]
    metrics = per_layer(rounds) if trace else end_to_end(rounds, references, work)
    print(f"workload {name}: seed {seed}, {len(rounds)} rounds, "
          f"{len(ops) - ops.count(False)}/{len(ops)} checks passed")
    for key, value in metrics.items():
        note = " (printed only)" if key in PRINTED_ONLY else ""
        print(f"  {key:36s} {value:14.6g} {unit(key)}{note}")
    return {"correct": all(ops), "attempted": len(ops), "failed": ops.count(False),
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()
                        if k not in PRINTED_ONLY}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "weighted_ensemble" / "cli.py").is_file():
        print("bench: run from the repository root; ./src/weighted_ensemble "
              "is missing", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
        code = max(code, 0 if result["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
