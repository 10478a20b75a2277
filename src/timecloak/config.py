"""Experiment configuration: dataclasses plus the flat key-value file format.

Config files are plain text, one ``key = value`` assignment per line, with
``#`` starting a full-line comment. Keys carry dotted section prefixes
(``model.kind``, ``hop1.jitter_ns``, ...). ``link.*``, ``servo.gain`` and
``calib.bias_ns`` set shared defaults for both hops; ``hop1.*`` / ``hop2.*``
override one hop. Later assignments win, and command-line ``--set``
overrides are applied on top.

``_KEYS`` is the one list of keys: each maps to its section, its field and
its parser, and the hop keys in it are generated from ``_HOP_KEYS``. Range
checks live in the dataclasses' ``__post_init__``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .noise import DEFAULT_CARRIER_HZ, DEFAULT_DWELL_S, NoiseModelSpec, parse_noise_kind
from .stability import require_adev_interval

MAX_STEPS = 2**26  # dwells per run; the key and both hop series grow with it


def require_finite(obj) -> None:
    """Reject NaN and +-inf in every float field of a dataclass."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class HopConfig:
    """Link, servo, and calibration settings of one synchronization hop, from
    config key to session kernel (quantization_ns 0: integer-ns timestamps).
    A whole quantization_ns or turnaround_ns is stored as an int."""

    delay_forward_ns: float = 0.0
    delay_backward_ns: float = 0.0
    jitter_ns: float = 0.0
    quantization_ns: int = 0
    gain: float = 1.0
    turnaround_ns: float = 1000
    bias_ns: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("delay_forward_ns", "delay_backward_ns", "jitter_ns", "quantization_ns",
                     "turnaround_ns"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"HopConfig.{name} must be >= 0, got {value!r}")
        if (q := self.quantization_ns) != int(q):
            raise ValueError(f"HopConfig.quantization_ns must be a whole number, got {q!r}")
        object.__setattr__(self, "quantization_ns", int(q))  # so timestamps stay int ns
        if (t := self.turnaround_ns) == int(t):
            # a whole turnaround keeps t3 exact past 2**53 ns, whether given as 1000 or 1000.0
            object.__setattr__(self, "turnaround_ns", int(t))
        if not 0 < self.gain < 2:
            # the proportional servo diverges outside this range
            raise ValueError(f"servo gain must be in (0, 2), got {self.gain!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to drive one round-trip experiment."""

    model: NoiseModelSpec = field(default_factory=NoiseModelSpec)
    key_source: str = "mock"  # "mock" or "file"
    key_seed: int = 1
    key_path: str | None = None
    dwell_s: float = DEFAULT_DWELL_S
    carrier_hz: float = DEFAULT_CARRIER_HZ
    duration_s: float = 10000.0
    calib_window_steps: int = 0
    tic_jitter_ns: float = 0.05
    seed: int = 1
    hop1: HopConfig = field(default_factory=HopConfig)  # reference site -> encrypting site
    hop2: HopConfig = field(default_factory=HopConfig)  # encrypting site -> reference site

    def __post_init__(self) -> None:
        require_finite(self)
        if self.key_source not in ("mock", "file"):
            raise ValueError(f"key.source must be 'mock' or 'file', got {self.key_source!r}")
        if self.key_source == "file" and not self.key_path:
            raise ValueError("key.source = file requires key.path")
        for key, seed in (("seed", self.seed), ("key.seed", self.key_seed)):
            if seed < 0:
                raise ValueError(f"{key} must be >= 0, got {seed!r}")
        if not self.dwell_s > 0 or not self.duration_s > 0:
            raise ValueError("dwell_s and duration_s must be > 0")
        require_adev_interval(self.dwell_s, "dwell_s")
        if self.calib_window_steps < 0:
            raise ValueError("calib.window_steps must be >= 0")
        if self.tic_jitter_ns < 0:
            raise ValueError("tic.jitter_ns must be >= 0")
        steps = self.duration_s / self.dwell_s
        if not math.isfinite(steps):
            raise ValueError(
                f"duration_s / dwell_s must be finite, got {self.duration_s!r} / {self.dwell_s!r}"
            )
        if steps > MAX_STEPS:
            raise ValueError(f"duration_s / dwell_s must be <= {MAX_STEPS}, got {steps!r}")
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("duration_s must be an integer multiple of dwell_s")
        if self.calib_window_steps >= round(steps):
            raise ValueError("calibration window must leave at least one encrypted step")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration_s / self.dwell_s))

    @property
    def n_encrypted_steps(self) -> int:
        return self.n_steps - self.calib_window_steps


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key}: expected an integer, got {value!r}") from None


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{key}: expected a number, got {value!r}") from None


def _to_bool(key: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"{key}: expected a boolean, got {value!r}")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a file in the flat key-value grammar into a raw string mapping."""
    mapping: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def parse_overrides(items: list[str]) -> dict[str, str]:
    """Parse repeated ``key=value`` command-line overrides."""
    mapping: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _to_bound(key: str, value: str) -> float | None:
    return None if value.lower() in ("", "none") else _to_float(key, value)


# hopN.<suffix> -> (HopConfig field, parser, shared key that sets both hops)
_HOP_KEYS = {
    "delay_fwd_ns": ("delay_forward_ns", _to_float, "link.delay_fwd_ns"),
    "delay_bwd_ns": ("delay_backward_ns", _to_float, "link.delay_bwd_ns"),
    "jitter_ns": ("jitter_ns", _to_float, "link.jitter_ns"),
    "quantization_ns": ("quantization_ns", _to_int, "link.quantization_ns"),
    "gain": ("gain", _to_float, "servo.gain"),
    "turnaround_ns": ("turnaround_ns", _to_float, "link.turnaround_ns"),
    "bias_ns": ("bias_ns", _to_float, "calib.bias_ns"),
}

# every key -> (section, field, parser); section "" is ExperimentConfig itself
_KEYS = {
    "key.source": ("", "key_source", lambda key, value: value.strip().lower()),
    "key.seed": ("", "key_seed", _to_int),
    "key.path": ("", "key_path", lambda key, value: value),
    "model.kind": ("model", "kind", lambda key, value: parse_noise_kind(value)),
    "model.C": ("model", "divisor", _to_float),
    "model.T": ("model", "sign_threshold", _to_int),
    "model.M": ("model", "lag", _to_int),
    "model.S": ("model", "memory", _to_int),
    "model.bias_deg": ("model", "bias_deg", _to_float),
    "model.bound_deg": ("model", "bound_deg", _to_bound),
    "model.bound_recursion": ("model", "bound_recursion", _to_bool),
    "dwell_s": ("", "dwell_s", _to_float),
    "carrier_hz": ("", "carrier_hz", _to_float),
    "duration_s": ("", "duration_s", _to_float),
    "calib.window_steps": ("", "calib_window_steps", _to_int),
    "tic.jitter_ns": ("", "tic_jitter_ns", _to_float),
    "seed": ("", "seed", _to_int),
    **{shared: ("shared", name, parse) for name, parse, shared in _HOP_KEYS.values()},
    **{
        f"{hop}.{suffix}": (hop, name, parse)
        for hop in ("hop1", "hop2")
        for suffix, (name, parse, _) in _HOP_KEYS.items()
    },
}


def build_experiment_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Turn a raw key-value mapping into a validated ExperimentConfig."""
    for key in mapping:
        if key not in _KEYS:
            raise ValueError(f"unknown configuration key {key!r}")
    sections: dict[str, dict] = {"": {}, "model": {}, "shared": {}, "hop1": {}, "hop2": {}}
    for key, value in mapping.items():
        section, name, parse = _KEYS[key]
        sections[section][name] = parse(key, value)
    model = NoiseModelSpec(**sections["model"])
    shared = sections["shared"]
    hop1 = HopConfig(**{**shared, **sections["hop1"]})
    hop2 = HopConfig(**{**shared, **sections["hop2"]})
    return ExperimentConfig(model=model, hop1=hop1, hop2=hop2, **sections[""])
