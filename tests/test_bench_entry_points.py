"""Every callable the benchmark's traced run wraps still exists in the program.

bench/tracing.py wraps program functions by module and attribute name
(``timecloak.cli.load_config_file``, ``KmsStore.open_dir``, ...), so a
rename or fold in the package that drops one of them would silently drop a
per-layer metric. This test reads bench/ and changes nothing there.
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
