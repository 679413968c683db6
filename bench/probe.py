"""One benchmark round: run the we-sample CLI in this process and report times.

Usage: python3 bench/probe.py REPORT.json [--trace] -- <we-sample arguments>

Untraced, it only notes the first call into ``run_we`` (the end of set-up).
Traced, it wraps the public functions of each layer, from the outside, under
every name a caller looks them up by, and records per layer the call count,
the self time (span time minus the wrapped spans inside it) and a few work
counters. It writes REPORT.json and exits with the CLI's exit code.
"""
from __future__ import annotations

import json
import os
import sys
import time

T_START = time.monotonic()

# (metric prefix, module, attribute path) of every traced function
LAYERS = (
    ("engine.rng_at", "engine", "RngStream.at"),
    ("engine.select", "engine", "select"),
    ("engine.allocate_targets", "engine", "allocate_targets"),
    ("engine.bin_totals", "engine", "bin_totals"),
    ("engine.mutate", "engine", "mutate"),
    ("engine.empirical_estimate", "engine", "empirical_estimate"),
    ("engine.run_we", "engine", "run_we"),
    ("coarse.build_coarse_model", "coarse", "build_coarse_model"),
    ("coarse.compute_v", "coarse", "compute_v"),
    ("markov.stationary", "markov", "stationary"),
    ("diagnostics.g_sequence", "diagnostics", "g_sequence"),
    ("diagnostics.doob_terms", "diagnostics", "doob_terms"),
    ("hill.source_sink_kernel", "hill", "source_sink_kernel"),
    ("hill.direct_mfpt", "hill", "direct_mfpt"),
    ("experiment.run_sweep_cell", "experiment", "run_sweep_cell"),
    ("serialize.write_rows", "serialize", "write_rows"),
    ("serialize.read_matrix_csv", "serialize", "read_matrix_csv"),
    ("config.build_setup", "config", "ExperimentConfig.build_setup"),
)


def replace_everywhere(module: str, path: str, make_wrapper):
    """Swap the function at module.path for make_wrapper(original), in its
    home module or class and in every package module that imported it by name."""
    home = sys.modules[f"weighted_ensemble.{module}"]
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    for name, mod in list(sys.modules.items()):
        if name.startswith("weighted_ensemble"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class Tracer:
    """Per-layer call counts, self times and work counters, kept in memory."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.child_time: list[float] = []  # one accumulator per open span

    def wrapper(self, name: str, count=None):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        open_spans = self.child_time
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                open_spans.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = clock() - t0
                    stats["calls"] += 1
                    stats["self_s"] += span - open_spans.pop()
                    if open_spans:
                        open_spans[-1] += span
                if count is not None:
                    count(stats, args, result)
                return result
            return traced
        return make

    def install(self):
        counters = {"engine.mutate": _count_mutate, "engine.run_we": _count_run_we}
        for name, module, path in LAYERS:
            make = self.wrapper(name, counters.get(name))
            if name == "serialize.write_rows":
                make = _counting_rows(self.stats[name], make)
            replace_everywhere(module, path, make)


def _add(stats, key, amount):
    stats[key] = stats.get(key, 0) + amount


def _count_mutate(stats, args, result):
    selected, kernel = args[0], args[1]
    _add(stats, "particles", selected.n_selected)
    # bytes the inverse CDF gathers (n_selected rows of S cumsums): computed
    _add(stats, "computed_mb", selected.n_selected * kernel.n_states * 8 / 1e6)


def _count_run_we(stats, args, record):
    simulated = record.eta_f.size - 1 if record.tau_kill is None else record.tau_kill
    _add(stats, "generations", simulated)


def _counting_rows(stats, make):
    """Wrap write_rows so the rows it writes and the file size are counted."""
    def make_counting(write_rows):
        def counted(path, header, rows, *rest, **kwargs):
            def each():
                for row in rows:
                    stats["rows"] += 1
                    yield row
            write_rows(path, header, each(), *rest, **kwargs)
            stats["mb"] += os.path.getsize(path) / 1e6
        return make(counted)
    stats.update(rows=0, mb=0.0)
    return make_counting


def main(argv: list[str]) -> int:
    report_path, options = argv[0], argv[1:argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]
    import weighted_ensemble.cli as cli  # timed as cli.import_s
    report = {"import_s": time.monotonic() - T_START, "first_run_we": None,
              "module": cli.__file__}
    if "--trace" in options:
        tracer = Tracer()
        tracer.install()
        report["layers"] = tracer.stats
    else:
        def note_first_call(run_we):
            def first_call(*args, **kwargs):
                if report["first_run_we"] is None:
                    report["first_run_we"] = time.monotonic()
                return run_we(*args, **kwargs)
            return first_call
        replace_everywhere("engine", "run_we", note_first_call)
    code = cli.main(cli_args)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
