"""Flat key=value experiment configuration with flag overrides."""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .binning import BinPartition
from .diagnostics import MIN_CHECK_REPS
from .experiment import MODES, ChainSetup
from .markov import Distribution, Observable, TransitionMatrix, build_three_well_chain
from .serialize import observable_from_csv, read_matrix_csv


def parse_state_set(text: str) -> list[int]:
    """1-indexed state list: '81..90' for an interval or '1,5,7'. Returns
    0-indexed sorted indices."""
    text = text.strip()
    if not text:
        return []
    if ".." in text:
        lo, hi = text.split("..")
        states = range(int(lo), int(hi) + 1)
    else:
        states = [int(t) for t in text.split(",")]
    out = sorted(set(int(s) - 1 for s in states))
    if out and out[0] < 0:
        raise ValueError(f"states must be >= 1 in {text!r}")
    return out


@dataclass
class ExperimentConfig:
    chain: str = "three-well"  # or csv:<path> to an i,j,value matrix
    lag: int = 4
    bin_width: int = 3
    mode: str = "adaptive"  # adaptive | traditional | naive | all
    n_particles: int = 150
    n_floor: float = 1.0
    per_bin_target: float = 5.0
    horizons: tuple[int, ...] = (5, 10, 15, 20, 25, 30)
    reps: int = 1000
    seed: int = 0
    out: str = "out"
    threads: int = 1
    f_states: str = "28..33"  # interval/list, or csv:<path> to an i,value vector
    coarse_samples: int = 0  # 0 = exact coarse builder
    source_state: int = 1
    sink_states: str = "81..90"
    hill_horizon: int = 500
    hit_a: str = ""
    hit_b: str = ""
    diag_horizon: int = 5
    diag_reps: int = 2000

    def validate(self):
        if self.mode not in MODES + ("all",):
            raise ValueError(f"mode must be one of {MODES + ('all',)}, got {self.mode!r}")
        if self.n_particles < 1 or self.reps < 1:
            raise ValueError("n_particles and reps must be positive")
        if sorted(self.horizons) != list(self.horizons):
            raise ValueError("horizons must be sorted ascending")
        if any(n < 0 for n in self.horizons):
            raise ValueError("horizons must be nonnegative")
        if self.per_bin_target <= 0:
            raise ValueError("per_bin_target must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.diag_horizon < 0 or self.hill_horizon < 0:
            raise ValueError("diag_horizon and hill_horizon must be nonnegative")
        if self.diag_reps < MIN_CHECK_REPS:
            raise ValueError(f"diag_reps must be >= {MIN_CHECK_REPS}")

    @property
    def modes(self) -> tuple[str, ...]:
        return MODES if self.mode == "all" else (self.mode,)

    # fields that do not affect results and are excluded from the config hash
    _UNHASHED = ("out", "threads")

    def canonical_text(self) -> str:
        lines = []
        for f in fields(self):
            if f.name in self._UNHASHED:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file(cls, path: Optional[Path] = None, **overrides) -> "ExperimentConfig":
        values: dict = {}
        if path is not None:
            for raw in Path(path).read_text().splitlines():
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {raw!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                values[key] = val
        values.update({k: v for k, v in overrides.items() if v is not None})
        # each value takes the type of its field's default
        kind = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(values) - set(kind)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        for key, val in values.items():
            if key == "horizons":
                if isinstance(val, str):
                    val = tuple(int(t) for t in val.split(","))
                kwargs[key] = tuple(val)
            else:
                kwargs[key] = kind[key](val)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def state_set(self, key: str, n_states: int) -> list[int]:
        """The 0-indexed states of the 1-indexed state field ``key``; raises
        ValueError unless each lies in 1..n_states."""
        text = str(getattr(self, key))
        states = parse_state_set(text)
        if states and states[-1] >= n_states:
            raise ValueError(f"{key} = {text} names a state above {n_states}, "
                             "the chain's state count")
        return states

    def build_setup(self) -> ChainSetup:
        """Materialize the chain, bins, observable, and sampling measure."""
        if self.chain == "three-well":
            K = build_three_well_chain(self.lag)[1]
        elif self.chain.startswith("csv:"):
            K = read_matrix_csv(Path(self.chain[4:]))
        else:
            raise ValueError(f"unknown chain {self.chain!r}")
        n = K.n_states
        bins = BinPartition.from_width(n, self.bin_width)
        if self.f_states.startswith("csv:"):
            f = observable_from_csv(Path(self.f_states[4:]))
            if f.n_states != n:
                raise ValueError("observable vector length does not match chain")
        else:
            f = Observable.indicator(self.state_set("f_states", n), n)
        zeta = Distribution(np.full(n, 1.0 / n))
        return ChainSetup(K=K, bins=bins, f=f, zeta=zeta)
