"""Flat key=value experiment configuration with flag overrides."""
from __future__ import annotations

from pathlib import Path
from typing import Optional

from .binning import BinPartition
from .coarse import check_sample_budget
from .diagnostics import MIN_CHECK_REPS
from .experiment import MODES, ChainSetup
from .markov import Observable, build_three_well_chain
from .serialize import read_matrix_csv, read_vector_csv


def parse_state_set(text: str) -> list[int]:
    """1-indexed state list: '81..90' for an interval or '1,5,7'. Returns
    0-indexed sorted indices; an empty text gives none. Raises ValueError
    for a reversed interval, such as '90..81', and a state below 1."""
    text = text.strip()
    if not text:
        return []
    if ".." in text:
        lo, hi = map(int, text.split(".."))
        if hi < lo:
            raise ValueError(f"interval {text!r} ends before it starts")
        states = range(lo, hi + 1)
    else:
        states = [int(t) for t in text.split(",")]
    out = sorted(set(int(s) - 1 for s in states))
    if out and out[0] < 0:
        raise ValueError(f"states must be >= 1 in {text!r}")
    return out


# every config key with its default, in canonical_text's order; a value read
# from a file takes the type of its key's default
DEFAULTS = {
    "chain": "three-well",  # or csv:<path> to an i,j,value matrix
    "lag": 4,
    "bin_width": 3,
    "mode": "adaptive",  # adaptive | traditional | naive | all
    "n_particles": 150,
    "n_floor": 1.0,
    "per_bin_target": 5.0,
    "horizons": (5, 10, 15, 20, 25, 30),
    "reps": 1000,
    "seed": 0,
    "out": "out",
    "threads": 1,
    "f_states": "28..33",  # interval/list, or csv:<path> to an i,value vector
    "coarse_samples": 0,  # 0 = exact coarse builder
    "source_state": 1,
    "sink_states": "81..90",
    "hill_horizon": 500,
    "hit_a": "",
    "hit_b": "",
    "diag_horizon": 5,
    "diag_reps": 2000,
}


class ExperimentConfig:
    """The value of every `DEFAULTS` key, as attributes: the default unless
    given by keyword."""

    def __init__(self, **values):
        unknown = set(values) - set(DEFAULTS)
        if unknown:
            raise TypeError(f"unknown config keys: {sorted(unknown)}")
        for key, default in DEFAULTS.items():
            setattr(self, key, values.get(key, default))

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self):
        items = ", ".join(f"{key}={value!r}" for key, value in vars(self).items())
        return f"ExperimentConfig({items})"

    def validate(self):
        if self.mode not in MODES + ("all",):
            raise ValueError(f"mode must be one of {MODES + ('all',)}, got {self.mode!r}")
        if self.n_particles < 1 or self.reps < 1:
            raise ValueError("n_particles and reps must be positive")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizons must be strictly ascending")
        if any(n < 0 for n in self.horizons):
            raise ValueError("horizons must be nonnegative")
        if self.per_bin_target <= 0:
            raise ValueError("per_bin_target must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.coarse_samples < 0:
            raise ValueError("coarse_samples must be >= 0 (0 = exact coarse model)")
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
        for key in DEFAULTS:
            if key in self._UNHASHED:
                continue
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}={value}")
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
        unknown = set(values) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        for key, val in values.items():
            if key == "horizons":
                if isinstance(val, str):
                    val = tuple(int(t) for t in val.split(","))
                kwargs[key] = tuple(val)
            else:
                kwargs[key] = type(DEFAULTS[key])(val)
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
        """Materialize the chain, bins and observable, and check a sampled
        coarse model's budget against the bins."""
        if self.chain == "three-well":
            K = build_three_well_chain(self.lag)[1]
        elif self.chain.startswith("csv:"):
            if self.lag != DEFAULTS["lag"]:
                raise ValueError("lag applies only to the three-well chain")
            K = read_matrix_csv(Path(self.chain[4:]))
        else:
            raise ValueError(f"unknown chain {self.chain!r}")
        n = K.n_states
        bins = BinPartition.from_width(n, self.bin_width)
        if self.coarse_samples:
            check_sample_budget(bins, self.coarse_samples)
        if self.f_states.startswith("csv:"):
            f = Observable(read_vector_csv(Path(self.f_states[4:])))
            if f.n_states != n:
                raise ValueError("observable vector length does not match chain")
        else:
            f = Observable.indicator(self.state_set("f_states", n), n)
        return ChainSetup(K=K, bins=bins, f=f)
