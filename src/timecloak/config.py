"""Experiment configuration: dataclasses plus the flat key-value file format.

Config files are plain text, one ``key = value`` assignment per line, with
``#`` starting a full-line comment. Keys carry dotted section prefixes
(``model.kind``, ``hop1.jitter_ns``, ...). ``link.*``, ``servo.gain`` and
``calib.bias_ns`` set shared defaults for both hops; ``hop1.*`` / ``hop2.*``
override one hop. Later assignments win, and command-line ``--set``
overrides are applied on top.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .noise import NoiseModelSpec, parse_noise_kind
from .wrptp import DEFAULT_TURNAROUND_NS


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


def _require_finite(config) -> None:
    """Reject NaN and +-inf in every float field of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{type(config).__name__}.{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class HopConfig:
    """Link, servo, and calibration settings of one synchronization hop."""

    delay_forward_ns: float = 0.0
    delay_backward_ns: float = 0.0
    jitter_ns: float = 0.0
    quantization_ns: int = 0
    gain: float = 1.0
    turnaround_ns: float = DEFAULT_TURNAROUND_NS
    bias_ns: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0 < self.gain < 2:
            # the proportional servo diverges outside this range
            raise ConfigError(f"servo gain must be in (0, 2), got {self.gain!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to drive one round-trip experiment."""

    model: NoiseModelSpec = field(default_factory=NoiseModelSpec)
    key_source: str = "mock"  # "mock" or "file"
    key_seed: int = 1
    key_path: str | None = None
    dwell_s: float = 5.0
    carrier_hz: float = 10e6
    duration_s: float = 10000.0
    calib_window_steps: int = 0
    tic_jitter_ns: float = 0.05
    seed: int = 1
    hop1: HopConfig = field(default_factory=HopConfig)  # reference site -> encrypting site
    hop2: HopConfig = field(default_factory=HopConfig)  # encrypting site -> reference site

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.key_source not in ("mock", "file"):
            raise ConfigError(f"key.source must be 'mock' or 'file', got {self.key_source!r}")
        if self.key_source == "file" and not self.key_path:
            raise ConfigError("key.source = file requires key.path")
        if not self.dwell_s > 0 or not self.duration_s > 0:
            raise ConfigError("dwell_s and duration_s must be > 0")
        if self.calib_window_steps < 0:
            raise ConfigError("calib.window_steps must be >= 0")
        if self.tic_jitter_ns < 0:
            raise ConfigError("tic.jitter_ns must be >= 0")
        steps = self.duration_s / self.dwell_s
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError("duration_s must be an integer multiple of dwell_s")
        if self.calib_window_steps >= round(steps):
            raise ConfigError("calibration window must leave at least one encrypted step")

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
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _to_bool(key: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key-value grammar into a raw string mapping."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def load_config_file(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def parse_overrides(items: list[str]) -> dict[str, str]:
    """Parse repeated ``key=value`` command-line overrides."""
    mapping: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


_HOP_FIELDS = {
    "delay_fwd_ns": ("delay_forward_ns", _to_float),
    "delay_bwd_ns": ("delay_backward_ns", _to_float),
    "jitter_ns": ("jitter_ns", _to_float),
    "quantization_ns": ("quantization_ns", _to_int),
    "gain": ("gain", _to_float),
    "turnaround_ns": ("turnaround_ns", _to_float),
    "bias_ns": ("bias_ns", _to_float),
}

# shared-default spellings applied to both hops before hopN.* overrides
_SHARED_HOP_KEYS = {
    "link.delay_fwd_ns": "delay_fwd_ns",
    "link.delay_bwd_ns": "delay_bwd_ns",
    "link.jitter_ns": "jitter_ns",
    "link.quantization_ns": "quantization_ns",
    "servo.gain": "gain",
    "link.turnaround_ns": "turnaround_ns",
    "calib.bias_ns": "bias_ns",
}

_TOP_KEYS = {
    "key.source",
    "key.seed",
    "key.path",
    "model.kind",
    "model.C",
    "model.T",
    "model.M",
    "model.S",
    "model.bias_deg",
    "model.bound_deg",
    "model.bound_recursion",
    "dwell_s",
    "carrier_hz",
    "duration_s",
    "calib.window_steps",
    "tic.jitter_ns",
    "seed",
}


def build_experiment_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Turn a raw key-value mapping into a validated ExperimentConfig."""
    for key in mapping:
        if key in _TOP_KEYS or key in _SHARED_HOP_KEYS:
            continue
        prefix, _, suffix = key.partition(".")
        if prefix in ("hop1", "hop2") and suffix in _HOP_FIELDS:
            continue
        raise ConfigError(f"unknown configuration key {key!r}")

    model_kwargs = {}
    if "model.kind" in mapping:
        try:
            model_kwargs["kind"] = parse_noise_kind(mapping["model.kind"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if "model.C" in mapping:
        model_kwargs["divisor"] = _to_float("model.C", mapping["model.C"])
    if "model.T" in mapping:
        model_kwargs["sign_threshold"] = _to_int("model.T", mapping["model.T"])
    if "model.M" in mapping:
        model_kwargs["lag"] = _to_int("model.M", mapping["model.M"])
    if "model.S" in mapping:
        model_kwargs["memory"] = _to_int("model.S", mapping["model.S"])
    if "model.bias_deg" in mapping:
        model_kwargs["bias_deg"] = _to_float("model.bias_deg", mapping["model.bias_deg"])
    if "model.bound_deg" in mapping:
        raw = mapping["model.bound_deg"]
        model_kwargs["bound_deg"] = None if raw.lower() in ("", "none") else _to_float(
            "model.bound_deg", raw
        )
    if "model.bound_recursion" in mapping:
        model_kwargs["bound_recursion"] = _to_bool(
            "model.bound_recursion", mapping["model.bound_recursion"]
        )
    try:
        model = NoiseModelSpec(**model_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def hop_for(prefix: str) -> HopConfig:
        kwargs = {}
        for shared_key, hop_key in _SHARED_HOP_KEYS.items():
            if shared_key in mapping:
                attr, conv = _HOP_FIELDS[hop_key]
                kwargs[attr] = conv(shared_key, mapping[shared_key])
        for hop_key, (attr, conv) in _HOP_FIELDS.items():
            full = f"{prefix}.{hop_key}"
            if full in mapping:
                kwargs[attr] = conv(full, mapping[full])
        return HopConfig(**kwargs)

    kwargs: dict = {"model": model, "hop1": hop_for("hop1"), "hop2": hop_for("hop2")}
    if "key.source" in mapping:
        kwargs["key_source"] = mapping["key.source"].strip().lower()
    if "key.seed" in mapping:
        kwargs["key_seed"] = _to_int("key.seed", mapping["key.seed"])
    if "key.path" in mapping:
        kwargs["key_path"] = mapping["key.path"]
    if "dwell_s" in mapping:
        kwargs["dwell_s"] = _to_float("dwell_s", mapping["dwell_s"])
    if "carrier_hz" in mapping:
        kwargs["carrier_hz"] = _to_float("carrier_hz", mapping["carrier_hz"])
    if "duration_s" in mapping:
        kwargs["duration_s"] = _to_float("duration_s", mapping["duration_s"])
    if "calib.window_steps" in mapping:
        kwargs["calib_window_steps"] = _to_int("calib.window_steps", mapping["calib.window_steps"])
    if "tic.jitter_ns" in mapping:
        kwargs["tic_jitter_ns"] = _to_float("tic.jitter_ns", mapping["tic.jitter_ns"])
    if "seed" in mapping:
        kwargs["seed"] = _to_int("seed", mapping["seed"])
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def with_model(config: ExperimentConfig, **model_changes) -> ExperimentConfig:
    """Convenience: a copy of config with selected model fields replaced."""
    return replace(config, model=replace(config.model, **model_changes))
