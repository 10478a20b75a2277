"""Every callable the benchmark's traced run wraps still exists in the
program, and one iteration of each workload enters every one of them.

bench/tracing.py wraps program functions by module and attribute name
(``timecloak.cli.load_config_file``, ``KmsStore.open_dir``, ...), so a
rename or fold in the package that drops one of them, or a caller that
reaches one by another name, would silently drop a per-layer metric. These
tests read bench/ and change nothing there.
"""
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_entry_point_resolves(bench, name):
    tracing, workloads = bench
    tracer = tracing.Tracer(workloads.WORKLOADS[name].ENTRY_POINTS)
    tracer.install(0)
    tracer.uninstall()
    assert tracer.missing == {}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_entry_point_is_entered(bench, name, tmp_path):
    # a stage that called a wrapped function other than by its traced name
    # would leave its per-layer metric without spans
    tracing, workloads = bench
    workload = workloads.WORKLOADS[name](1, tmp_path, tiny=True)
    tracer = tracing.Tracer(workload.ENTRY_POINTS)
    workload.prepare()
    tracer.install(0)
    try:
        workload.iterate()
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    assert tracer.entered == {point.target for point in workload.ENTRY_POINTS}
