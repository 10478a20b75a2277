"""Golden outputs: SHA-256 of every file `emit_outputs` writes for a fixed
config matrix, compared with the digests stored in tests/golden/.

The matrix covers the four noise kinds, each unbounded and bounded, a
walk whose recursion runs on the bounded state, one config with noisy,
quantized hops and one with a calibration window. A refactor that changes
any emitted byte fails here. To re-record after a
change that is meant to alter outputs (say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from timecloak.config import ExperimentConfig, HopConfig
from timecloak.experiment import emit_outputs, run_experiment
from timecloak.noise import NoiseKind, NoiseModelSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"
N_DWELLS = 2000
DWELL_S = 5.0


def _config(model: NoiseModelSpec, **kwargs) -> ExperimentConfig:
    defaults = dict(duration_s=N_DWELLS * DWELL_S, dwell_s=DWELL_S, seed=11, key_seed=12)
    defaults.update(kwargs)
    return ExperimentConfig(model=model, **defaults)


def _cases() -> dict[str, ExperimentConfig]:
    cases = {}
    for kind in NoiseKind:
        for bound in (None, 360.0):
            label = "bounded" if bound else "unbounded"
            model = NoiseModelSpec(kind=kind, lag=100, memory=10, bound_deg=bound)
            cases[f"{kind.value}_{label}"] = _config(model)
    cases["rw_bound_recursion"] = _config(
        NoiseModelSpec(kind=NoiseKind.RANDOM_WALK, bound_deg=90.0, bound_recursion=True)
    )
    cases["rw_noisy_quantized_hops"] = _config(
        NoiseModelSpec(kind=NoiseKind.RANDOM_WALK),
        hop1=HopConfig(
            delay_forward_ns=5000,
            delay_backward_ns=5020,
            jitter_ns=0.7,
            quantization_ns=8,
            gain=0.7,
            turnaround_ns=1234.5,
            bias_ns=12.0,
        ),
        hop2=HopConfig(delay_forward_ns=60, delay_backward_ns=40, jitter_ns=2.5, gain=1.9),
    )
    cases["white_calibration_window"] = _config(
        NoiseModelSpec(kind=NoiseKind.WHITE),
        calib_window_steps=200,
        hop1=HopConfig(jitter_ns=0.1, bias_ns=100.0),
        hop2=HopConfig(jitter_ns=0.1, bias_ns=29.188),
    )
    return cases


def emitted_digests(config: ExperimentConfig) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_outputs(run_experiment(config), tmp)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_matrix_matches_recorded_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_files_match_golden_digests(name, golden):
    assert emitted_digests(CASES[name]) == golden[name]


def _record() -> None:
    digests = {name: emitted_digests(config) for name, config in sorted(CASES.items())}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} cases in {GOLDEN_PATH}")


if __name__ == "__main__":
    _record()
    sys.exit(0)
