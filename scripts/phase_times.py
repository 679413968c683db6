#!/usr/bin/env python3
"""Time the phases of one benchmark workload's command, for a git revision
against the working tree, in fresh processes.

Usage, from anywhere inside the repository:

    python3 scripts/phase_times.py REF --workload W --rounds N [--seed S]

The inputs of workload W are generated once, from seed S, by the working
tree's bench/workloads.py. REF and the working tree are copied and
byte-compiled as `bench_pairs.py` copies them. Round i runs W's `we-sample`
command once in each copy, REF first in even rounds and the working tree
first in odd ones. Each run is a fresh, single-threaded process that imports
`numpy` and `numpy.random`, then `weighted_ensemble.cli`, wraps
`engine.run_we` with `bench/probe.py`'s `replace_everywhere`, and calls
`cli.main`. For each side it prints the median and quartiles, in ms, of six
phases:

    spawn + numpy   from the spawn to the end of `import numpy, numpy.random`
    package import  from there to the end of `import weighted_ensemble.cli`
    setup           from there to the first `run_we` call
    run_we          the summed spans of the `run_we` calls
    rest of main    the rest of `cli.main`
    exit            from `main`'s return to the process's end as this
                    script sees it: the interpreter's shutdown

`bench/run.py` reports `wall_s - setup_s` as one span; this splits it, so a
saving at exit can be told from one in the engine. Every run's outputs are
checked as the benchmark checks them. It exits 1 when a check failed and 2
when a run cannot report its phases.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, SIDES, compile_tree, copy_work, export_ref, spread

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

PHASES = ("spawn + numpy", "package import", "setup", "run_we", "rest of main", "exit")

# run in the tree's directory: argv is REPORT.json, then the we-sample arguments
CHILD = """\
import json, sys, time
sys.path.insert(0, "bench")
from probe import replace_everywhere
import numpy, numpy.random
numpy_loaded = time.monotonic()
import weighted_ensemble.cli as cli
imported = time.monotonic()
spans = []

def span_of(run_we):
    def timed(*args, **kwargs):
        start = time.monotonic()
        try:
            return run_we(*args, **kwargs)
        finally:
            spans.append((start, time.monotonic()))
    return timed

replace_everywhere("engine", "run_we", span_of)
code = cli.main(sys.argv[2:])
returned = time.monotonic()
with open(sys.argv[1], "w") as fh:
    json.dump({"numpy_loaded": numpy_loaded, "imported": imported, "spans": spans,
               "returned": returned}, fh)
sys.exit(code)
"""


def child_env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_phases(tree: Path, work: workloads.Workload, report: Path) -> tuple[dict, int]:
    """One run of the workload's command in ``tree``: its phases in ms, and
    how many of its checks failed."""
    shutil.rmtree(work.out, ignore_errors=True)
    report.unlink(missing_ok=True)
    env = child_env(tree)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(report), *work.argv],
                            cwd=tree, env=env, stdout=subprocess.DEVNULL)
    code = proc.wait()
    end = time.monotonic()
    marks = json.loads(report.read_text()) if report.is_file() else {"spans": []}
    spans = marks["spans"]
    if not spans:  # main did not return, or called no run_we
        print(f"{tree.name}: exit {code} with no run_we span reported", file=sys.stderr)
        raise SystemExit(2)
    run_we = sum(b - a for a, b in spans)
    phases = dict(zip(PHASES, (
        marks["numpy_loaded"] - start,
        marks["imported"] - marks["numpy_loaded"],
        spans[0][0] - marks["imported"],
        run_we,
        marks["returned"] - spans[0][0] - run_we,
        end - marks["returned"],
    )))
    return {k: 1e3 * v for k, v in phases.items()}, work.check(work.out, code).count(False)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the inputs")
    args = parser.parse_args(argv)

    phases = {side: {phase: [] for phase in PHASES} for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_ref(args.ref, trees["ref"])
        trees["work"].mkdir()
        copy_work(trees["work"])
        for tree in trees.values():
            compile_tree(tree)
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        work = workloads.WORKLOADS[args.workload](inputs, args.seed)
        for i in range(args.rounds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                times, misses = run_phases(trees[side], work, inputs / "phases.json")
                failed[side] += misses
                for phase, value in times.items():
                    phases[side][phase].append(value)

    print(f"{args.workload}: {args.ref} (ref) against the working tree (work), "
          f"{args.rounds} rounds, seed {args.seed}; ms, median [q1, q3]")
    for phase in PHASES:
        print(f"  {phase:15s}" + "".join(
            "  {side} {median:7.1f} [{q1:7.1f}, {q3:7.1f}]".format(
                side=side, **spread(phases[side][phase])) for side in SIDES))
    print(f"  failed checks: ref {failed['ref']}, work {failed['work']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
