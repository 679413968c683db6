#!/usr/bin/env python3
"""Compare the exit codes and output bytes of a fixed set of we-sample
commands between a git revision and the working tree.

Usage, from anywhere inside the repository:

    python3 scripts/compare_outputs.py REF

REF (a commit, tag or branch) is exported with `git archive` into a
temporary directory; no worktree and no branch is made. Both trees then run,
each with its own src/ on PYTHONPATH, at seeds 0 and 7 and with --threads 1
and 2:

    run --mode all --reps 100
    hill --reps 60
    hill --reps 70, with hit_a = 11..30, hit_b = 61..75, n_particles = 60
        and hill_horizon = 100
    diagnose --mode all

and `coarse`, which takes no --threads, once per seed. The script prints each
command whose exit codes differ and each output file that differs or exists
on one side only, and exits 1 on any difference, 0 when every exit code and
every byte matches.
"""
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HIT_CONFIG = "hit_a = 11..30\nhit_b = 61..75\nn_particles = 60\nhill_horizon = 100\n"
# name -> (we-sample arguments, config text or None)
COMMANDS = {
    "run": (["run", "--mode", "all", "--reps", "100"], None),
    "hill": (["hill", "--reps", "60"], None),
    "hill_hit": (["hill", "--reps", "70"], HIT_CONFIG),
    "diagnose": (["diagnose", "--mode", "all"], None),
}


def cases() -> list[tuple[str, list[str], str]]:
    """(case name, we-sample arguments, config text) of every command run."""
    out = []
    for seed in ("0", "7"):
        for threads in ("1", "2"):
            for name, (args, config) in COMMANDS.items():
                out.append((f"{name}_seed{seed}_threads{threads}",
                            [*args, "--seed", seed, "--threads", threads], config))
        out.append((f"coarse_seed{seed}", ["coarse", "--seed", seed], None))
    return out


def export(ref: str, into: Path) -> None:
    """The files of ``ref`` in ``into``, by `git archive`."""
    into.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def run_case(tree: Path, out: Path, name: str, args: list[str], config) -> int:
    """Run one case on ``tree``, writing into out/name; returns its exit code."""
    target = out / name
    if config is not None:
        cfg = out / f"{name}.cfg"
        cfg.write_text(config)
        args = [*args, "--config", str(cfg)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "weighted_ensemble.cli", *args,
                           "--out", str(target)], env=env, cwd=out,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def differences(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under a and b that differ or exist once."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and (a / n).read_bytes() == (b / n).read_bytes()))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export(ref, tmp / "ref")
        sides = {"ref": tmp / "ref", "work": ROOT}
        for side in sides:
            (tmp / f"out_{side}").mkdir()
        jobs = [(side, case) for case in cases() for side in sides]
        with ThreadPoolExecutor(2) as pool:
            codes = list(pool.map(
                lambda job: run_case(sides[job[0]], tmp / f"out_{job[0]}", *job[1]), jobs))
        code_of = dict(zip(((side, case[0]) for side, case in jobs), codes))
        n_diff = 0
        for name, _, _ in cases():
            ref_code, work_code = code_of["ref", name], code_of["work", name]
            if ref_code != work_code:
                print(f"{name}: exit code {ref_code} at {ref}, {work_code} in the work tree")
                n_diff += 1
            for path in differences(tmp / "out_ref" / name, tmp / "out_work" / name):
                print(f"{name}/{path} differs")
                n_diff += 1
    print(f"{len(cases())} commands on each side, {n_diff} differences")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
