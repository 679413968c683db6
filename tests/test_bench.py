"""The benchmark's probe (bench/probe.py) runs the CLI with every layer it
traces wrapped by name; this keeps those names and call forms resolvable."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_layers(tmp_path, command: str, config: str) -> dict:
    """The per-layer stats of one traced probe run of ``command`` on ``config``."""
    cfg = tmp_path / "config"
    cfg.write_text(config)
    report = tmp_path / "r.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), str(report), "--trace",
         "--", command, "--config", str(cfg), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    assert Path(result["module"]).resolve().is_relative_to(ROOT / "src")
    return result["layers"]


def test_probe_traces_a_small_sweep(tmp_path):
    layers = traced_layers(tmp_path, "run", "mode = all\nhorizons = 1,2\nreps = 5\n")
    # the 5 replicates of a cell run as one batch: adaptive runs each horizon
    # (1 + 2 generations); traditional and naive run once to the largest (2
    # each) and report horizon 1 from that run
    assert layers["engine.run_we"]["calls"] == 4
    # the probe counts eta_f.size - 1 per batch record of 5 x (n + 1) values
    assert layers["engine.run_we"]["generations"] == (5 * 2 - 1) + 3 * (5 * 3 - 1)
    assert layers["experiment.run_sweep_cell"]["calls"] == 3
    # one v table, the coarse model's, serves every horizon and the snapshot
    assert layers["coarse.compute_v"]["calls"] == 1
    # per batch, a select and a mutate stream per generation, the naive one
    # mutate only
    assert layers["engine.rng_at"]["calls"] == 2 * (1 + 2 + 2) + 2
    # particles mutated over every generation and replicate of this config
    # and seed
    assert layers["engine.mutate"]["particles"] == 5165


def test_probe_traces_a_pass_of_whole_chunks(tmp_path):
    # 70 replicates are three chunks, run as two passes: 0..63 and 64..69
    layers = traced_layers(tmp_path, "run", "mode = traditional\nhorizons = 2\n"
                           "reps = 70\n")
    assert layers["engine.run_we"]["calls"] == 2
    # each chunk still draws a select and a mutate stream per generation
    assert layers["engine.rng_at"]["calls"] == 2 * 3 * 2
    # the particles mutated when each chunk ran alone: no draw moved
    assert layers["engine.mutate"]["particles"] == 21007


def test_probe_traces_a_small_hill_run(tmp_path):
    layers = traced_layers(tmp_path, "hill", "hill_horizon = 5\nreps = 5\n"
                           "n_particles = 60\nhit_a = 11..30\nhit_b = 61..75\n")
    # one source-sink chain per cell, the MFPT one and the hitting one, each
    # built once and run as `run` runs a cell
    assert layers["hill.source_sink_kernel"]["calls"] == 2
    assert layers["experiment.run_sweep_cell"]["calls"] == 2
    assert layers["coarse.build_coarse_model"]["calls"] == 2
    # hill records generation n alone; it still draws a select and a mutate
    # stream per generation and chunk, and mutates the particles it did
    # when it recorded every generation
    assert layers["engine.rng_at"]["calls"] == 2 * 2 * 5
    assert layers["engine.mutate"]["particles"] == 2089
