"""The flat config format: every key, its precedence rules and its errors.

Each valid mapping is compared by repr with an explicitly constructed
ExperimentConfig, so a field parsed as the wrong type (1000 against
1000.0) fails too. Each faulty mapping holds exactly one fault and must
raise ValueError with exactly the text given.
"""
from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecloak.cli import build_experiment_config, load_config_file, parse_overrides
from timecloak.config import _KEYS, MAX_STEPS, ExperimentConfig, HopConfig
from timecloak.linkbudget import ChannelParams
from timecloak.keys import mock_qkd_source
from timecloak.noise import (
    NoiseKind,
    NoiseModelSpec,
    PhaseSchedule,
    generate_schedule,
    phase_to_delay,
)
from timecloak.stability import TimeErrorSeries
from timecloak.wrptp import run_sync_session

EVERY_KEY = {
    "key.source": "file",
    "key.seed": "7",
    "key.path": "keys/exp.hex",
    "model.kind": "rw_mem",
    "model.C": "2.5",
    "model.T": "9",
    "model.M": "50",
    "model.S": "12",
    "model.bias_deg": "-3.5",
    "model.bound_deg": "90",
    "dwell_s": "2",
    "carrier_hz": "5e6",
    "duration_s": "400",
    "calib.window_steps": "20",
    "tic.jitter_ns": "0.2",
    "seed": "9",
    "hop1.delay_fwd_ns": "5000",
    "hop1.delay_bwd_ns": "5020",
    "hop1.jitter_ns": "0.7",
    "hop1.quantization_ns": "8",
    "hop1.gain": "0.7",
    "hop1.turnaround_ns": "1234.5",
    "hop1.bias_ns": "12",
    "hop2.delay_fwd_ns": "60",
    "hop2.delay_bwd_ns": "40",
    "hop2.jitter_ns": "2.5",
    "hop2.quantization_ns": "16",
    "hop2.gain": "1.9",
    "hop2.turnaround_ns": "800",
    "hop2.bias_ns": "29.188",
}

SHARED_KEYS = {
    "link.delay_fwd_ns": "100",
    "link.delay_bwd_ns": "110",
    "link.jitter_ns": "0.3",
    "link.quantization_ns": "8",
    "link.turnaround_ns": "900",
    "servo.gain": "0.5",
    "calib.bias_ns": "-4",
}

SHARED_HOP = HopConfig(
    delay_forward_ns=100.0,
    delay_backward_ns=110.0,
    jitter_ns=0.3,
    quantization_ns=8,
    gain=0.5,
    turnaround_ns=900.0,
    bias_ns=-4.0,
)


def _walk(kind: NoiseKind, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(model=NoiseModelSpec(kind=kind, **kwargs))


VALID = {
    "empty": ({}, ExperimentConfig()),
    "every_key": (
        EVERY_KEY,
        ExperimentConfig(
            model=NoiseModelSpec(
                kind=NoiseKind.RW_MEMORY,
                divisor=2.5,
                sign_threshold=9,
                lag=50,
                memory=12,
                bias_deg=-3.5,
                bound_deg=90.0,
            ),
            key_source="file",
            key_seed=7,
            key_path="keys/exp.hex",
            dwell_s=2.0,
            carrier_hz=5e6,
            duration_s=400.0,
            calib_window_steps=20,
            tic_jitter_ns=0.2,
            seed=9,
            hop1=HopConfig(
                delay_forward_ns=5000.0,
                delay_backward_ns=5020.0,
                jitter_ns=0.7,
                quantization_ns=8,
                gain=0.7,
                turnaround_ns=1234.5,
                bias_ns=12.0,
            ),
            hop2=HopConfig(
                delay_forward_ns=60.0,
                delay_backward_ns=40.0,
                jitter_ns=2.5,
                quantization_ns=16,
                gain=1.9,
                turnaround_ns=800.0,
                bias_ns=29.188,
            ),
        ),
    ),
    "shared_keys_set_both_hops": (
        SHARED_KEYS,
        ExperimentConfig(hop1=SHARED_HOP, hop2=SHARED_HOP),
    ),
    "shared_then_hop1": (
        {"link.jitter_ns": "0.3", "hop1.jitter_ns": "0.9", "servo.gain": "0.5", "hop1.gain": "1.5"},
        ExperimentConfig(
            hop1=HopConfig(jitter_ns=0.9, gain=1.5), hop2=HopConfig(jitter_ns=0.3, gain=0.5)
        ),
    ),
    "hop1_then_shared": (
        {"hop1.jitter_ns": "0.9", "hop1.gain": "1.5", "link.jitter_ns": "0.3", "servo.gain": "0.5"},
        ExperimentConfig(
            hop1=HopConfig(jitter_ns=0.9, gain=1.5), hop2=HopConfig(jitter_ns=0.3, gain=0.5)
        ),
    ),
    "seeds_of_400_digits": (  # seeds are not quantities, so they need not fit in a float
        {"seed": "9" * 400, "key.seed": "8" * 400},
        ExperimentConfig(seed=int("9" * 400), key_seed=int("8" * 400)),
    ),
    "hop2_overrides_calib_bias": (
        {"calib.bias_ns": "64.5", "hop2.bias_ns": "1"},
        ExperimentConfig(hop1=HopConfig(bias_ns=64.5), hop2=HopConfig(bias_ns=1.0)),
    ),
    "bound_none": ({"model.bound_deg": "none"}, ExperimentConfig()),
    "bound_None": ({"model.bound_deg": "None"}, ExperimentConfig()),
    "bound_empty": ({"model.bound_deg": ""}, ExperimentConfig()),
    "bound_number": (
        {"model.bound_deg": "360"},
        ExperimentConfig(model=NoiseModelSpec(bound_deg=360.0)),
    ),
    "kind_white_mixed_case": ({"model.kind": "White"}, ExperimentConfig()),
    "kind_rw_padded_upper": ({"model.kind": " RW "}, _walk(NoiseKind.RANDOM_WALK)),
    "kind_random_walk": ({"model.kind": "random_walk"}, _walk(NoiseKind.RANDOM_WALK)),
    "kind_lagged_walk": (
        {"model.kind": "LAGGED_WALK", "model.M": "3"},
        _walk(NoiseKind.RW_LAG, lag=3),
    ),
    "kind_rw_lag": ({"model.kind": "rw_lag", "model.M": "100"}, _walk(NoiseKind.RW_LAG, lag=100)),
    "kind_memory_walk": (
        {"model.kind": "memory_walk", "model.S": "10"},
        _walk(NoiseKind.RW_MEMORY, memory=10),
    ),
    "kind_rw_mem": ({"model.kind": "Rw_Mem", "model.S": "4"}, _walk(NoiseKind.RW_MEMORY, memory=4)),
    # without model.M or model.S a walk gets the lag and depth the sweep uses
    "lag_walk_without_lag": ({"model.kind": "rw_lag"}, _walk(NoiseKind.RW_LAG, lag=100)),
    "memory_walk_without_depth": ({"model.kind": "rw_mem"}, _walk(NoiseKind.RW_MEMORY, memory=10)),
    "key_source_padded_upper": ({"key.source": " MOCK "}, ExperimentConfig()),
    "key_source_file": (
        {"key.source": "File", "key.path": "a b.hex"},
        ExperimentConfig(key_source="file", key_path="a b.hex"),
    ),
    "int_spellings": (
        {"key.seed": " 12 ", "seed": "1_000", "calib.window_steps": "+3"},
        ExperimentConfig(key_seed=12, seed=1000, calib_window_steps=3),
    ),
    "float_spellings": (
        {"carrier_hz": "1E7", "tic.jitter_ns": " .5 ", "duration_s": "1e4"},
        ExperimentConfig(carrier_hz=1e7, tic_jitter_ns=0.5, duration_s=1e4),
    ),
}

_KINDS = "lagged_walk, memory_walk, random_walk, rw, rw_lag, rw_mem, white"

FAULTS = {
    "unknown_key": ({"bogus.key": "1"}, "unknown configuration key 'bogus.key'"),
    "unknown_hop": ({"hop3.gain": "0.5"}, "unknown configuration key 'hop3.gain'"),
    "unknown_hop_field": ({"hop1.bogus": "1"}, "unknown configuration key 'hop1.bogus'"),
    "bare_hop_prefix": ({"hop1": "1"}, "unknown configuration key 'hop1'"),
    "shared_key_under_hop": (
        {"hop1.delay_forward_ns": "1"},
        "unknown configuration key 'hop1.delay_forward_ns'",
    ),
    "key_case_matters": ({"Model.kind": "rw"}, "unknown configuration key 'Model.kind'"),
    # a removed key is refused like any other unknown key
    "removed_bound_recursion": (
        {"model.bound_recursion": "yes"},
        "unknown configuration key 'model.bound_recursion'",
    ),
    "bad_int": ({"key.seed": "abc"}, "key.seed: expected an integer, got 'abc'"),
    "bad_model_int": ({"model.T": "x"}, "model.T: expected an integer, got 'x'"),
    "bad_float": ({"dwell_s": "soon"}, "dwell_s: expected a number, got 'soon'"),
    "bad_bound": ({"model.bound_deg": "wide"}, "model.bound_deg: expected a number, got 'wide'"),
    "padded_none_bound": (
        {"model.bound_deg": " none "},
        "model.bound_deg: expected a number, got ' none '",
    ),
    "bad_kind": (
        {"model.kind": "pink"},
        f"unknown noise kind 'pink' (expected one of: {_KINDS})",
    ),
    "bad_servo_gain_number": ({"servo.gain": "fast"}, "servo.gain: expected a number, got 'fast'"),
    "bad_servo_gain_range": ({"servo.gain": "2"}, "servo gain must be in (0, 2), got 2.0"),
    "bad_shared_int": (
        {"link.quantization_ns": "8.0"},
        "link.quantization_ns: expected an integer, got '8.0'",
    ),
    "fractional_quantization": (
        {"hop2.quantization_ns": "1.5"},
        "hop2.quantization_ns: expected an integer, got '1.5'",
    ),
    "nan_divisor": ({"model.C": "nan"}, "NoiseModelSpec.divisor must be finite, got nan"),
    "inf_bias_deg": ({"model.bias_deg": "inf"}, "NoiseModelSpec.bias_deg must be finite, got inf"),
    "nan_bound_deg": (
        {"model.bound_deg": "nan"},
        "NoiseModelSpec.bound_deg must be finite, got nan",
    ),
    "inf_shared_jitter": ({"link.jitter_ns": "inf"}, "HopConfig.jitter_ns must be finite, got inf"),
    "nan_dwell": ({"dwell_s": "nan"}, "ExperimentConfig.dwell_s must be finite, got nan"),
    "hop_gain_out_of_range": ({"hop1.gain": "2"}, "servo gain must be in (0, 2), got 2.0"),
    "negative_shared_delay": (
        {"link.delay_fwd_ns": "-1"},
        "HopConfig.delay_forward_ns must be >= 0, got -1.0",
    ),
    "negative_hop_jitter": (
        {"hop2.jitter_ns": "-0.5"},
        "HopConfig.jitter_ns must be >= 0, got -0.5",
    ),
    "negative_quantization": (
        {"link.quantization_ns": "-8"},
        "HopConfig.quantization_ns must be >= 0, got -8",
    ),
    "negative_turnaround": (
        {"link.turnaround_ns": "-5000"},
        "HopConfig.turnaround_ns must be >= 0, got -5000.0",
    ),
    "bad_key_source": ({"key.source": "disk"}, "key.source must be 'mock' or 'file', got 'disk'"),
    "file_without_path": ({"key.source": "file"}, "key.source = file requires key.path"),
    "negative_seed": ({"seed": "-1"}, "seed must be >= 0, got -1"),
    "negative_key_seed": ({"key.seed": "-1"}, "key.seed must be >= 0, got -1"),
    "negative_calib_window": ({"calib.window_steps": "-1"}, "calib.window_steps must be >= 0"),
    "negative_tic_jitter": ({"tic.jitter_ns": "-0.1"}, "tic.jitter_ns must be >= 0"),
    "dwell_whose_square_underflows": (
        {"dwell_s": "1e-170", "duration_s": "1e-167"},
        "dwell_s must be >= 2**-511 s for an Allan deviation, got 1e-170",
    ),
    "dwell_whose_allan_divisor_overflows": (
        {"dwell_s": "1e200", "duration_s": "5e202"},
        "dwell_s must be small enough that 2 * (m * tau0)**2 * (N - 2m) is finite "
        "for an Allan deviation of 500 samples (m = 1), got 1e+200",
    ),
    "bad_threshold": ({"model.T": "16"}, "sign_threshold must be a hex digit in [0, 15]"),
    "uneven_duration": ({"duration_s": "12"}, "duration_s must be an integer multiple of dwell_s"),
    "overflowing_step_count": (
        {"duration_s": "1e308", "dwell_s": "1e-10"},
        "duration_s / dwell_s must be finite, got 1e+308 / 1e-10",
    ),
    "step_count_over_cap": (
        {"duration_s": "1e15"},
        "duration_s / dwell_s must be <= 67108864, got 200000000000000.0",
    ),
    "one_step_over_cap": (
        {"duration_s": str(2**26 + 1), "dwell_s": "1"},
        "duration_s / dwell_s must be <= 67108864, got 67108865.0",
    ),
    "no_step": (
        {"duration_s": "50", "dwell_s": "1e12"},
        "duration_s / dwell_s must be >= 3, got 50.0 / 1000000000000.0",
    ),
    # too few samples for an Allan deviation
    "two_steps": ({"duration_s": "10"}, "duration_s / dwell_s must be >= 3, got 10.0 / 5.0"),
    "zero_dwell": ({"dwell_s": "0"}, "dwell_s must be finite and > 0, got 0.0"),
    "negative_duration": ({"duration_s": "-10"}, "duration_s must be finite and > 0, got -10.0"),
    "zero_divisor": ({"model.C": "0"}, "divisor must be finite and > 0, got 0.0"),
    "negative_bound_deg": ({"model.bound_deg": "-5"}, "bound_deg must be finite and > 0, got -5.0"),
    # refused with the config, before any key is built, and not only by the schedule stage
    "negative_carrier": ({"carrier_hz": "-1"}, "carrier_hz must be finite and > 0, got -1.0"),
    "tiny_carrier": (
        {"carrier_hz": "1e-310"},
        "carrier_hz must be large enough for a finite period, got 1e-310",
    ),
}


@pytest.mark.parametrize("step", [2.5, 0.5, 1e-300, 8.000000000000002])
def test_fractional_quantization_step_rejected(step):
    # the config parser takes only integers here; library callers pass floats
    with pytest.raises(ValueError, match="quantization_ns must be a whole number"):
        HopConfig(quantization_ns=step)


@pytest.mark.parametrize("step", [0.0, 2.0, 8.0, np.int64(8)])
def test_whole_quantization_step_stored_as_int(step):
    hop = HopConfig(quantization_ns=step)
    assert type(hop.quantization_ns) is int and hop.quantization_ns == step
    assert hop == HopConfig(quantization_ns=int(step))


@pytest.mark.parametrize("turnaround", [0.0, 1000.0, 800, np.int64(900)])
def test_whole_turnaround_stored_as_int(turnaround):
    hop = HopConfig(turnaround_ns=turnaround)
    assert type(hop.turnaround_ns) is int and hop.turnaround_ns == turnaround


def test_fractional_turnaround_kept_as_float():
    assert HopConfig(turnaround_ns=1234.5).turnaround_ns == 1234.5


#: ints no float can hold, with their bit lengths
BEYOND_FLOAT_RANGE = pytest.mark.parametrize(
    "value, bits",
    [(10**400, 1329), (-(10**400), 1329), (2**1024 - 2**970, 1024)],
    ids=["10**400", "-10**400", "2**1024-2**970"],  # the last: the least int float() refuses
)

#: (spec, field) of every quantity a spec holds; seeds and counts are integers instead
QUANTITY_FIELDS = [
    *[(HopConfig, f.name) for f in fields(HopConfig)],
    *[(NoiseModelSpec, n) for n in ("divisor", "bias_deg", "bound_deg")],
    *[(ExperimentConfig, n) for n in ("dwell_s", "carrier_hz", "duration_s", "tic_jitter_ns")],
    *[(ChannelParams, f.name) for f in fields(ChannelParams)],
]


@pytest.mark.parametrize(
    "spec, field", QUANTITY_FIELDS, ids=[f"{s.__name__}.{f}" for s, f in QUANTITY_FIELDS]
)
@BEYOND_FLOAT_RANGE
def test_int_beyond_float_range_rejected(spec, field, value, bits):
    # library callers only: the config parser reads these keys as floats or small ints
    with pytest.raises(
        ValueError,
        match=rf"^{spec.__name__}\.{field} must fit in a float, got an int of {bits} bits$",
    ):
        spec(**{field: value})


#: every library entry point taking an interval or a carrier: the field it names, and a
#: call passing the value there
INTERVAL_ENTRY_POINTS = {
    "TimeErrorSeries": ("tau0_s", lambda v: TimeErrorSeries([1.0, 2.0], v)),
    "PhaseSchedule.dwell_s": ("dwell_s", lambda v: PhaseSchedule((1.0,), dwell_s=v)),
    "PhaseSchedule.carrier_hz": ("carrier_hz", lambda v: PhaseSchedule((1.0,), carrier_hz=v)),
    "phase_to_delay": ("carrier_hz", lambda v: phase_to_delay(10.0, v)),
    "run_sync_session": ("round_interval_s", lambda v: run_sync_session(HopConfig(), 3, v)),
    "generate_schedule.dwell_s": (
        "dwell_s",
        lambda v: generate_schedule(mock_qkd_source(1, 20), NoiseModelSpec(), 5, dwell_s=v),
    ),
    "generate_schedule.carrier_hz": (
        "carrier_hz",
        lambda v: generate_schedule(mock_qkd_source(1, 20), NoiseModelSpec(), 5, carrier_hz=v),
    ),
}


@pytest.mark.parametrize(
    "field, call", INTERVAL_ENTRY_POINTS.values(), ids=INTERVAL_ENTRY_POINTS.keys()
)
@BEYOND_FLOAT_RANGE
def test_entry_point_refuses_int_beyond_float_range(field, call, value, bits):
    # a ValueError naming the field, not the OverflowError of a float conversion
    with pytest.raises(ValueError, match=rf"^{field} must fit in a float, got an int of {bits} bits$"):
        call(value)


@pytest.mark.parametrize(
    "field, call", INTERVAL_ENTRY_POINTS.values(), ids=INTERVAL_ENTRY_POINTS.keys()
)
def test_entry_point_refuses_a_str_interval(field, call):
    with pytest.raises(TypeError):
        call("5")


@settings(max_examples=60, deadline=None)
@given(value=st.one_of(st.floats(), st.integers()))
@example(value=10**400)
@example(value=2**63)  # past int64: numpy could not multiply it into the epochs
def test_entry_points_accept_or_raise_value_error(value):
    for field, call in INTERVAL_ENTRY_POINTS.values():
        try:
            call(value)
        except ValueError as exc:
            assert str(exc).startswith(f"{field} must"), exc


def test_int_interval_runs_the_session_of_its_float():
    # numpy multiplied an int interval in int64, which overflowed past 2**63
    for interval in (5, 2**63):
        by_int = run_sync_session(HopConfig(), 3, interval)
        by_float = run_sync_session(HopConfig(), 3, float(interval))
        assert by_int.samples_ns.tobytes() == by_float.samples_ns.tobytes()
        assert by_int.tau0_s == by_float.tau0_s


@pytest.mark.parametrize(
    "field, value",
    [
        ("delay_forward_ns", 2**60),
        ("bias_ns", -(2**1023)),
        ("delay_forward_ns", 2**1024 - 2**970 - 1),  # the largest int float() takes
    ],
)
def test_large_int_inside_float_range_kept(field, value):
    assert getattr(HopConfig(**{field: value}), field) == value


def test_config_turnaround_gives_the_default_session_past_2_53_ns():
    # the config parser reads 1000 as 1000.0; stored as a float, t3 would round past 2**53 ns
    hop = build_experiment_config({"link.turnaround_ns": "1000", "link.delay_fwd_ns": "7"}).hop1
    default = run_sync_session(HopConfig(delay_forward_ns=7.0), 4, 1e8).samples_ns.tolist()
    assert run_sync_session(hop, 4, 1e8).samples_ns.tolist() == default == [-3.5, -7.5, -11.5, 0.5]


@pytest.mark.parametrize("mapping, expected", VALID.values(), ids=VALID.keys())
def test_valid_mapping(mapping, expected):
    assert repr(build_experiment_config(mapping)) == repr(expected)


@pytest.mark.parametrize("mapping, message", FAULTS.values(), ids=FAULTS.keys())
def test_single_fault_message(mapping, message):
    with pytest.raises(ValueError) as info:
        build_experiment_config(mapping)
    assert str(info.value) == message


@pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "byte_order_mark"])
def test_file_then_overrides(mark, tmp_path):
    # Excel's "CSV UTF-8" and Notepad start a file with the byte-order mark U+FEFF
    path = tmp_path / "exp.cfg"
    path.write_text(f"{mark}# comment\n\nmodel.kind = rw\nlink.jitter_ns = 0.1\nseed = 4\n")
    mapping = load_config_file(path)
    mapping.update(parse_overrides(["seed=5", " hop2.jitter_ns = 0.2 "]))
    assert repr(build_experiment_config(mapping)) == repr(
        ExperimentConfig(
            model=NoiseModelSpec(kind=NoiseKind.RANDOM_WALK),
            seed=5,
            hop1=HopConfig(jitter_ns=0.1),
            hop2=HopConfig(jitter_ns=0.2),
        )
    )


@pytest.mark.parametrize(
    "items, message",
    [
        (["seed"], "override 'seed': expected key=value"),
        (["=1"], "unknown configuration key ''"),
    ],
)
def test_override_errors(items, message):
    with pytest.raises(ValueError) as info:
        build_experiment_config(parse_overrides(items))
    assert str(info.value) == message


# values at the edges of what the parsers and the range checks see: blanks,
# non-finite and out-of-range floats, subnormals, 21-digit signed integers, text
ADVERSARIAL_VALUES = st.one_of(
    st.sampled_from(
        ["", " ", "nan", "-nan", "inf", "+inf", "-inf", "1e400", "-1e400", "5e-324", "-5e-324"]
    ),
    st.sampled_from(["0", "-0", "1", "5", "2.5", "none", "yes", "rw", "rw_lag", "white", "mock"]),
    st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 10**20).map(str)).map("".join),
    st.floats().map(repr),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(_KEYS)), ADVERSARIAL_VALUES, max_size=8))
def test_any_mapping_builds_a_capped_config_or_raises_config_error(mapping):
    try:
        config = build_experiment_config(mapping)
    except ValueError:
        return
    assert 0 < config.n_encrypted_steps <= config.n_steps <= MAX_STEPS
