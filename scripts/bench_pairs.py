#!/usr/bin/env python3
"""Time a git revision against the working tree on one benchmark workload,
in pairs of rounds that alternate which side runs first.

Usage, from anywhere inside the repository:

    python3 scripts/bench_pairs.py REF --workload W --pairs 10
        [--seed S] [--seconds T] [--json PATH]

W is a workload of `bench/workloads.WORKLOADS`, or `all` for each of them in
turn, in that order, on the same two copies.

REF (a commit, tag or branch) is exported with `git archive` into a
temporary directory, as `compare_outputs.py` does, and the working tree's
files (tracked, and untracked but not ignored) are copied into another; no
worktree and no branch is made. Both copies are then byte-compiled alike,
by `python -m compileall` on their src/ and bench/, so neither side's
`setup_s` depends on a bytecode cache the other lacks. Pair i runs

    python3 bench/run.py --workload W --seed S+i --seconds T

in each copy, REF first in even pairs and the working tree first in odd
ones, so both sides see the same seed and a drift of the host favours
neither. For every end-to-end metric of BENCHMARK.json it prints each pair's
two values, each side's median and quartiles, the ratio of the medians
(work/ref), the median of the per-pair ratios (work/ref), which a drift of
the host over the pairs moves less, and in how many pairs the working tree
did better, by the metric's direction. With --json it also writes all of it
to PATH, for `all` as one object keyed by workload. It exits 1 when a round
reports a failed check, and 2 when a round cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("ref", "work")


def export_ref(ref: str, into: Path) -> None:
    """The files of ``ref`` in ``into``, by `git archive`."""
    into.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def copy_work(into: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files in ``into``."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached",
                             "--others", "--exclude-standard"],
                            capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a deleted but still tracked file is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def compile_tree(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)


def run_round(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in ``tree``: its result object, the last line it prints."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def run_pairs(trees: dict, args, workload: str, seconds: float, better: dict) -> dict:
    """The pairs of one workload, printed and summarised."""
    rounds = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_round(trees[side], workload, seed, seconds)
        rounds.append(pair)
        print(f"{workload} pair {i + 1}/{args.pairs}, seed {seed}, {order[0]} first: "
              + ", ".join(f"{name} {pair['ref']['metrics'][name]['value']:.6g} -> "
                          f"{pair['work']['metrics'][name]['value']:.6g}"
                          for name in better), flush=True)

    summary = {}
    print(f"\n{workload}: {args.ref} (ref) against the working tree (work), "
          f"{args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    for name, direction in better.items():
        values = {side: [r[side]["metrics"][name]["value"] for r in rounds] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (w - r) > 0 for r, w in zip(values["ref"], values["work"]))
        summary[name] = {side: {**spread(values[side]), "values": values[side]}
                         for side in SIDES}
        summary[name]["work_wins"] = wins
        summary[name]["median_pair_ratio"] = statistics.median(
            w / r for r, w in zip(values["ref"], values["work"]))
        ref, work = summary[name]["ref"], summary[name]["work"]
        print(f"  {name} ({direction} is better): ref median {ref['median']:.6g} "
              f"[{ref['q1']:.6g}, {ref['q3']:.6g}], work median {work['median']:.6g} "
              f"[{work['q1']:.6g}, {work['q3']:.6g}], ratio of medians "
              f"{work['median'] / ref['median']:.4f}, median pair ratio "
              f"{summary[name]['median_pair_ratio']:.4f}, "
              f"work better in {wins} of {args.pairs}")
    failed = {side: sum(r[side]["failed"] for r in rounds) for side in SIDES}
    print(f"  failed operations: ref {failed['ref']}, work {failed['work']}\n", flush=True)
    return {"ref": args.ref, "workload": workload, "seconds": seconds,
            "rounds": rounds, "summary": summary, "failed": failed}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref")
    parser.add_argument("--workload", required=True, help="a workload, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=None,
                        help="bench/run.py --seconds (default: BENCHMARK.json's)")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.workload == "all":
        sys.path.insert(0, str(ROOT / "bench"))
        from workloads import WORKLOADS
        names = list(WORKLOADS)
    else:
        names = [args.workload]

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_ref(args.ref, trees["ref"])
        trees["work"].mkdir()
        copy_work(trees["work"])
        for tree in trees.values():
            compile_tree(tree)
        results = {name: run_pairs(trees, args, name, seconds, better) for name in names}

    if args.json is not None:
        args.json.write_text(json.dumps(
            results if args.workload == "all" else results[args.workload], indent=1))
    return 1 if any(any(res["failed"].values()) or not all(
        r[side]["correct"] for r in res["rounds"] for side in SIDES)
        for res in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
