"""Flat key-value configuration and ExperimentConfig.

Config files are UTF-8 text (a leading byte-order mark is skipped), one
``key = value`` per line, with ``#`` starting a full-line comment. Keys carry
dotted section prefixes (``model.kind``, ``hop1.jitter_ns``, ...). ``link.*``,
``servo.gain`` and ``calib.bias_ns`` set shared defaults for both hops;
``hop1.*`` / ``hop2.*`` override one hop. Later assignments win, and
command-line ``--set`` overrides are applied on top.

``_KEYS`` is the one list of keys: each maps to its section, its field and
its parser, and the hop keys in it are generated from ``_HOP_KEYS``. Each
spec checks its ranges beside the code that relies on them: ``HopConfig`` in
``wrptp``, ``NoiseModelSpec`` in ``noise``, ``ExperimentConfig`` here; all share
the number rules ``require_finite`` and ``require_positive`` (finite and > 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .noise import DEFAULT_CARRIER_HZ, DEFAULT_DWELL_S, NoiseModelSpec, _carrier_period_ns, parse_noise_kind
from .stability import require_adev_interval, require_finite, require_positive
from .wrptp import HopConfig

MAX_STEPS = 2**26  # dwells per run; the key and both hop series grow with it


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
        require_finite(self, integers=("key_seed", "seed", "calib_window_steps"))
        if self.key_source not in ("mock", "file"):
            raise ValueError(f"key.source must be 'mock' or 'file', got {self.key_source!r}")
        if self.key_source == "file" and not self.key_path:
            raise ValueError("key.source = file requires key.path")
        for key, seed in (("seed", self.seed), ("key.seed", self.key_seed)):
            if seed < 0:
                raise ValueError(f"{key} must be >= 0, got {seed!r}")
        require_positive(self.dwell_s, "dwell_s")
        require_positive(self.duration_s, "duration_s")
        _carrier_period_ns(self.carrier_hz)  # refused here, before any key is read
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
        if round(steps) < 3:  # also a ratio below 1e-9, which passes the integer-multiple check
            raise ValueError(  # the fewest samples an Allan deviation takes
                f"duration_s / dwell_s must be >= 3, got {self.duration_s!r} / {self.dwell_s!r}"
            )
        require_adev_interval(self.dwell_s, "dwell_s", round(steps))
        if self.calib_window_steps >= round(steps):
            raise ValueError(
                "calib.window_steps must leave at least one encrypted step, got "
                f"{self.calib_window_steps!r} of {round(steps)} steps"
            )

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


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a file in the flat key-value grammar into a raw string mapping."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
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
