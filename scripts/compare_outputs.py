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
    run --mode all --reps 100, with coarse_samples = 300
    run --mode all --reps 30, with horizons = 0,1,3,6,12,260,
        n_particles = 60 and per_bin_target = 0.5
    run --mode all --reps 10, with n_floor = 10
    diagnose --mode all, with n_particles = 20
    run --mode all --reps 100 on a csv: chain, with bin_width = 3
    hill --reps 60 on a steep csv: chain, with source_state = 2 and
        sink_states = 1
    run --mode all --bogus 1
    run --mode all --reps ten
    run --mode all, with reps = 1.5

and `coarse`, which takes no --threads, once per seed, exact and with
coarse_samples = 300 and 900. A coarse model of 300 or of 900 samples has
several closed classes at either seed, so those commands reach the sampled
builder and the several-class path of `markov.stationary`, which weights
each class's law by the mass that uniform sends into it. On the `run` to
horizon 260 the traditional replicates die out between horizons
(0/0/3/22/30/30 of 30 at seed 0, 0/0/1/17/30/30 at seed 7), so its runs
files carry extinct flags that differ by horizon, and its horizon 260 is
wider than a block of `serialize.BLOCK_ROWS` rows, so each block holds one
replicate. The run_bad_floor and diagnose_few_particles commands are config
errors, an adaptive floor above n_particles / R and fewer particles than the
R = 30 bins: each exits 1 and writes no output directory. The
run_unknown_flag and run_bad_reps commands are malformed command lines, an
unknown flag and a --reps that is not an integer: each exits 1 as a config
error and writes no output directory (argparse, which read the command line
before, exited 2 on them). The run_bad_config_value command's config file
holds reps = 1.5, a value that reps's type does not take: it exits 1 and
writes no output directory, as a --reps of 1.5 does. The csv: chain is
`bench/workloads.banded_chain` on 300 states (chain seed 0), so R = 100. It
is written once into the temporary directory, with comment lines, a blank
line after every row and CRLF line endings, which the chain reader skips.
The steep chain is the 90-state birth-death walk with up 0.3 and down 0.2
and reflecting ends, whose E_2[tau_1] is about 4.7e16: its mfpt oracle
moves by more than roundoff when a solver loses accuracy on steep chains.
The script prints each command whose exit codes differ and each output file
that differs or exists on one side only, and exits 1 on any difference, 0
when every exit code and every byte matches. It says what kind of
difference each differing file holds: a structural one (a file on one side
only, another number of rows or cells, or a differing cell that is not a
float, integers and text included), or float cells only. For the latter it
prints how many cells differ, the largest relative difference among them,
and where that one lies: its row's first cell and its column's
header.
"""
import csv
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_pairs import ROOT, export_ref

sys.dont_write_bytecode = True  # bench/ is read, never written
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

HIT_CONFIG = "hit_a = 11..30\nhit_b = 61..75\nn_particles = 60\nhill_horizon = 100\n"
SAMPLED_CONFIG = "coarse_samples = 300\n"
DYING_CONFIG = ("horizons = 0,1,3,6,12,260\nn_particles = 60\n"
                "per_bin_target = 0.5\n")
# the csv: chain, written beside both sides' output directories, which the
# commands run in
CSV_CHAIN = "banded_300.csv"
CSV_CONFIG = (f"chain = csv:../{CSV_CHAIN}\nbin_width = 3\n"
              "f_states = {}..{}\n".format(*workloads.banded_f_states(300)))
STEEP_CHAIN = "steep_90.csv"
STEEP_CONFIG = f"chain = csv:../{STEEP_CHAIN}\nsource_state = 2\nsink_states = 1\n"
# name -> (we-sample arguments, config text or None)
COMMANDS = {
    "run": (["run", "--mode", "all", "--reps", "100"], None),
    "hill": (["hill", "--reps", "60"], None),
    "hill_hit": (["hill", "--reps", "70"], HIT_CONFIG),
    "diagnose": (["diagnose", "--mode", "all"], None),
    "run_sampled": (["run", "--mode", "all", "--reps", "100"], SAMPLED_CONFIG),
    "run_dying": (["run", "--mode", "all", "--reps", "30"], DYING_CONFIG),
    "run_bad_floor": (["run", "--mode", "all", "--reps", "10"], "n_floor = 10\n"),
    "diagnose_few_particles": (["diagnose", "--mode", "all"], "n_particles = 20\n"),
    "run_csv": (["run", "--mode", "all", "--reps", "100"], CSV_CONFIG),
    "hill_steep": (["hill", "--reps", "60"], STEEP_CONFIG),
    "run_unknown_flag": (["run", "--mode", "all", "--bogus", "1"], None),
    "run_bad_reps": (["run", "--mode", "all", "--reps", "ten"], None),
    "run_bad_config_value": (["run", "--mode", "all"], "reps = 1.5\n"),
}
# the same, run once per seed: coarse takes no --threads
COARSE = {"coarse": None, "coarse_sampled": SAMPLED_CONFIG,
          "coarse_sampled900": "coarse_samples = 900\n"}


def cases() -> list[tuple[str, list[str], str]]:
    """(case name, we-sample arguments, config text) of every command run."""
    out = []
    for seed in ("0", "7"):
        for threads in ("1", "2"):
            for name, (args, config) in COMMANDS.items():
                out.append((f"{name}_seed{seed}_threads{threads}",
                            [*args, "--seed", seed, "--threads", threads], config))
        for name, config in COARSE.items():
            out.append((f"{name}_seed{seed}", ["coarse", "--seed", seed], config))
    return out


def write_csv_chain(path: Path) -> None:
    """The 300-state banded chain as an i,j,value CSV with a comment line
    before its header and every 100 rows, a blank line after every row and
    CRLF line endings."""
    K = workloads.banded_chain(0, 300).K
    lines = ["# banded chain, 300 states", "i,j,value"]
    for k, (i, j, v) in enumerate(zip(K.rows.tolist(), K.cols.tolist(),
                                      K.vals.tolist())):
        if k % 100 == 0:
            lines.append(f"# rows {k + 1}..")
        lines += [f"{i + 1},{j + 1},{v!r}", ""]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())


def write_steep_chain(path: Path) -> None:
    """The 90-state walk with up 0.3 and down 0.2, an i,j,value CSV."""
    n, lines = 90, ["i,j,value"]
    for i in range(n):
        to = {i - 1: 0.2 * (i > 0), i + 1: 0.3 * (i < n - 1)}
        to[i] = 1.0 - sum(to.values())
        lines += [f"{i + 1},{j + 1},{p!r}" for j, p in sorted(to.items()) if p > 0]
    path.write_text("\n".join(lines) + "\n")


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


def _float(cell: str):
    """The cell's value if it is a finite float that is not an integer, else None."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def kind_of_difference(a: Path, b: Path) -> str:
    """Whether two differing files differ structurally, or in float cells only:
    then in how many, and by how much and where at most (the largest of
    |x - y| / max(|x|, |y|), with its row's first cell and the header of its
    column, the header being the first row that is not a # comment)."""
    if not (a.is_file() and b.is_file()):
        return "exists on one side only"
    rows_a, rows_b = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "differs in shape"
    header = next((r for r in rows_a if r and not r[0].startswith("#")), [])
    count, worst, where = 0, -1.0, ""
    for row_a, row_b in zip(rows_a, rows_b):
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None:
                return f"differs in a non-float cell: {x!r} against {y!r}"
            count += 1
            rel = abs(fx - fy) / max(abs(fx), abs(fy))
            if rel > worst:
                name = header[col] if col < len(header) else str(col + 1)
                worst, where = rel, f"row {row_a[0]!r}, column {name!r}"
    if not count:
        return "differs in its bytes only, in no cell"
    return (f"differs in float cells only: {count} cell{'s' * (count > 1)}, "
            f"largest relative difference {worst:.3g} at {where}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export_ref(ref, tmp / "ref")
        write_csv_chain(tmp / CSV_CHAIN)
        write_steep_chain(tmp / STEEP_CHAIN)
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
            ref_out, work_out = tmp / "out_ref" / name, tmp / "out_work" / name
            for path in differences(ref_out, work_out):
                print(f"{name}/{path} {kind_of_difference(ref_out / path, work_out / path)}")
                n_diff += 1
    print(f"{len(cases())} commands on each side, {n_diff} differences")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
