"""Call-level spans around the program's public entry points.

Used by the traced run only. Each entry point is wrapped at the name its
caller resolves it by (``timecloak.cli.run_experiment`` is a different
binding from ``timecloak.experiment.run_experiment``), so the wrapper sees
exactly the calls the caller makes. Wrapping is per call, never per round
or per step. Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple


class EntryPoint(NamedTuple):
    """One wrapped callable: where it is bound, the span it records, and an
    optional counter called as ``count(arguments, result) -> dict``."""

    module: str
    attr: str  # "name" or "Class.method"
    span: str
    count: Callable[[dict, object], dict] | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    iteration: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while its entry points are installed."""

    def __init__(self, entry_points):
        self.entry_points = tuple(entry_points)
        self.spans: list[Span] = []
        self.entered: set[str] = set()
        self.missing: dict[str, str] = {}  # target -> reason it could not be wrapped
        self.iteration = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self, iteration: int) -> None:
        self.iteration = iteration
        for point in self.entry_points:
            try:
                owner = importlib.import_module(point.module)
                *path, name = point.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[point.target] = f"cannot resolve {point.target}: {exc!r}"
                continue
            setattr(owner, name, self._wrap(point, original))
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def _wrap(self, point: EntryPoint, original):
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.entered.add(point.target)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(point.span, time.perf_counter(), 0.0, parent, self.iteration)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if point.count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(point.count(bound.arguments, result))
            return result

        return classmethod(wrapper) if is_classmethod else wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---- per-layer metrics -------------------------------------------------

NOISE_KINDS = ("white", "rw", "rw_lag", "rw_mem")

#: self-time metrics and the span each one sums
SELF_TIME_METRICS = {
    "keys.source_s": "keys.source",
    "keys.store_s": "keys.store",
    "keys.parse_s": "keys.parse",
    "noise.schedule_s": "noise.schedule",
    "noise.codec_s": "noise.codec",
    "wrptp.session_s": "wrptp.session",
    "stability.adev_s": "stability.adev",
    "stability.fit_s": "stability.fit",
    "stability.decorr_s": "stability.decorr",
    "experiment.run_self_s": "experiment.run",
    "experiment.schedule_self_s": "experiment.schedule",
    "experiment.emit_s": "experiment.emit",
    "config.build_s": "config.build",
    "cli.self_s": "cli.main",
}

#: every other per-layer metric: (unit, spans it is derived from)
DERIVED_METRICS = {
    **{f"noise.schedule_s.{kind}": ("s", ("noise.schedule",)) for kind in NOISE_KINDS},
    "keys.digits": ("count", ("keys.source", "keys.store")),
    "noise.steps": ("count", ("noise.schedule",)),
    "noise.step_us": ("us", ("noise.schedule",)),
    "wrptp.rounds": ("count", ("wrptp.session",)),
    "wrptp.round_us": ("us", ("wrptp.session",)),
    "stability.adev_terms": ("count", ("stability.adev",)),
    "experiment.bytes_written": ("bytes", ("experiment.emit",)),
    "cli.rows_read": ("count", ("cli.main", "stability.adev")),
}


def metric_units() -> dict[str, str]:
    units = {name: "s" for name in SELF_TIME_METRICS}
    units.update({name: unit for name, (unit, _) in DERIVED_METRICS.items()})
    units["trace.overhead_frac"] = "ratio"
    return units


def metric_spans(name: str) -> tuple[str, ...]:
    if name in SELF_TIME_METRICS:
        return (SELF_TIME_METRICS[name],)
    return DERIVED_METRICS[name][1]


def _iteration_values(tracer: Tracer, own: list[float], iteration: int, scale: float) -> dict[str, float]:
    values = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    values.update(dict.fromkeys(DERIVED_METRICS, 0.0))
    span_metric = {span: metric for metric, span in SELF_TIME_METRICS.items()}
    spans = tracer.spans
    for span, self_s in zip(spans, own):
        if span.iteration != iteration:
            continue
        self_s *= scale
        values[span_metric[span.name]] += self_s
        a = span.attrs
        if not a:  # the call raised (or has no counter): nothing to count
            continue
        if span.name == "noise.schedule":
            values[f"noise.schedule_s.{a['kind']}"] += self_s
            values["noise.steps"] += a["steps"]
        elif span.name in ("keys.source", "keys.store"):
            values["keys.digits"] += a["digits"]
        elif span.name == "wrptp.session":
            values["wrptp.rounds"] += a["rounds"]
        elif span.name == "stability.adev":
            values["stability.adev_terms"] += a["terms"]
            if span.parent is not None and spans[span.parent].name == "cli.main":
                values["cli.rows_read"] += a["samples"]
        elif span.name == "experiment.emit":
            values["experiment.bytes_written"] += a["bytes"]
    if values["noise.steps"]:
        values["noise.step_us"] = values["noise.schedule_s"] / values["noise.steps"] * 1e6
    if values["wrptp.rounds"]:
        values["wrptp.round_us"] = values["wrptp.session_s"] / values["wrptp.rounds"] * 1e6
    return values


def layer_metrics(tracer: Tracer, scales: dict[int, float]) -> tuple[dict, dict, dict]:
    """Median of each per-layer metric over the traced iterations, given as
    {iteration: factor scaling its times to the reference speed}.

    Returns (values, missing, not_exercised). A metric whose entry points
    were expected but never entered or could not be wrapped is left out of
    values and listed in missing with the reason; a metric of a layer the
    workload does not use by design reads 0 and is listed in not_exercised.
    """
    own = tracer.self_times()
    per_iteration = [_iteration_values(tracer, own, i, f) for i, f in scales.items()]

    expected = {p.span for p in tracer.entry_points}
    unentered: dict[str, list[str]] = {}
    for p in tracer.entry_points:
        if p.target not in tracer.entered:
            reason = tracer.missing.get(p.target, f"{p.target} was never entered")
            unentered.setdefault(p.span, []).append(reason)
    kinds_seen = {s.attrs.get("kind") for s in tracer.spans if s.name == "noise.schedule"}

    values, missing, not_exercised = {}, {}, {}
    for name in [*SELF_TIME_METRICS, *DERIVED_METRICS]:
        spans = metric_spans(name)
        lost = [reason for s in spans for reason in unentered.get(s, ())]
        if lost:
            missing[name] = "; ".join(lost)
            continue
        if not any(s in expected for s in spans):
            not_exercised[name] = "this workload calls no entry point of the layer"
        elif name.startswith("noise.schedule_s.") and name.rsplit(".", 1)[1] not in kinds_seen:
            not_exercised[name] = "this workload builds no schedule of this kind"
        values[name] = statistics.median(v[name] for v in per_iteration)
    return values, missing, not_exercised
