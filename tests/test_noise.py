import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecloak.keys import HexKeyStream, KeyExhaustedError, mock_qkd_source
from timecloak.noise import (
    DELAY_GRID_NS,
    NoiseKind,
    NoiseModelSpec,
    PhaseSchedule,
    apply_schedule,
    bound_phase,
    generate_schedule,
    parse_noise_kind,
    phase_to_delay,
    rw_lag_step,
    rw_mem_step,
    rw_step,
    white_phase,
)
from timecloak.stability import TimeErrorSeries


class TestWhitePhase:
    def test_full_scale_pair(self):
        assert white_phase((15, 15), 4.0) == 63.75

    def test_zero_pair(self):
        assert white_phase((0, 0), 4.0) == 0.0

    def test_hand_evaluated_pair(self):
        # 0x28 = 40, divided by 4
        assert white_phase((2, 8), 4.0) == 10.0

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            white_phase((16, 0))


class TestRwStep:
    def test_positive_branch(self):
        assert rw_step(0.0, (9, 0, 4)) == 1.0

    def test_negative_branch(self):
        assert rw_step(0.0, (7, 0, 4)) == -1.0

    def test_zero_magnitude(self):
        assert rw_step(10.0, (8, 0, 0)) == 10.0

    def test_threshold_is_inclusive(self):
        assert rw_step(0.0, (8, 0, 4)) == 1.0


class TestBoundPhase:
    def test_zero(self):
        assert bound_phase(0.0, 360.0) == 0.0

    def test_quarter_turn(self):
        assert bound_phase(90.0, 360.0) == pytest.approx(360.0)

    def test_odd_symmetry(self):
        assert bound_phase(-90.0, 360.0) == pytest.approx(-360.0)

    def test_requires_positive_bound(self):
        with pytest.raises(ValueError):
            bound_phase(10.0, 0.0)


class TestRwLagStep:
    def test_before_lag_matches_plain_walk(self):
        # identical key digits must give identical phases up to the lag
        digits = mock_qkd_source(21, 3 * 40).digits
        triplets = [tuple(digits[3 * i : 3 * i + 3]) for i in range(40)]
        lag = 12
        plain = []
        prev = 0.0
        for t in triplets:
            prev = rw_step(prev, t)
            plain.append(prev)
        history = []
        for i, t in enumerate(triplets[: lag + 1]):
            history.append(rw_lag_step(history, i, t, lag))
        assert history == plain[: lag + 1]

    def test_sign_echo_positive(self):
        # previous step at the lag distance went up; sign digit keeps it
        history = [0.0, 5.0, 4.0, 7.0]
        value = rw_lag_step(history, 4, (9, 0, 4), lag=3)
        assert value == history[3] + 1.0

    def test_sign_echo_negative_delta(self):
        # step at the lag distance went down; sign digit repeats the down move
        history = [5.0, 0.0, 4.0, 7.0]
        value = rw_lag_step(history, 4, (9, 0, 4), lag=3)
        assert value == history[3] - 1.0

    def test_sign_digit_flips_echo(self):
        history = [0.0, 5.0, 4.0, 7.0]
        value = rw_lag_step(history, 4, (3, 0, 4), lag=3)
        assert value == history[3] - 1.0

    def test_insufficient_history(self):
        with pytest.raises(ValueError):
            rw_lag_step([0.0], 5, (9, 0, 4), lag=2)


class TestRwMemStep:
    def test_flat_history_scales_step(self):
        history = [2.0] * 10 + [2.0]
        # increments all zero, magnitude 10 degrees, depth 10
        value = rw_mem_step(history, 11, (9, 2, 8), memory=10)
        assert value == pytest.approx(history[-1] + 1.0)

    def test_persistent_increments_compound(self):
        history = [float(i) for i in range(1, 13)]  # increments all +1
        value = rw_mem_step(history, 12, (9, 0, 4), memory=10)
        assert value == pytest.approx(history[-1] + (10.0 + 1.0) / 10.0)

    def test_zero_magnitude_is_fixed_point(self):
        history = [3.0] * 12
        value = rw_mem_step(history, 12, (9, 0, 0), memory=10)
        assert value == pytest.approx(history[-1])

    def test_before_memory_matches_plain_walk(self):
        assert rw_mem_step([], 0, (9, 0, 4), memory=5, bias_deg=2.0) == 3.0

    def test_insufficient_history(self):
        with pytest.raises(ValueError):
            rw_mem_step([0.0, 1.0], 5, (9, 0, 4), memory=3)


class TestGenerateSchedule:
    def test_white_from_known_digits(self):
        stream = HexKeyStream(bytes([15, 15, 0, 0, 2, 8]))
        sched = generate_schedule(stream, NoiseModelSpec(), 3)
        assert sched.phases_deg == (63.75, 0.0, 10.0)

    def test_rw_with_bias(self):
        stream = HexKeyStream(bytes([9, 0, 4, 7, 0, 8]))
        model = NoiseModelSpec(kind=NoiseKind.RANDOM_WALK, bias_deg=5.0)
        sched = generate_schedule(stream, model, 2)
        assert sched.phases_deg[0] == 6.0
        assert sched.phases_deg[1] == 6.0 - 2.0

    def test_zero_steps_consume_nothing(self):
        stream = mock_qkd_source(1, 30)
        for kind in NoiseKind:
            model = NoiseModelSpec(kind=kind, lag=2, memory=2)
            sched = generate_schedule(stream, model, 0)
            assert len(sched) == 0
        assert stream.cursor == 0

    def test_key_exhaustion_propagates(self):
        stream = HexKeyStream(bytes([1, 2, 3]))
        with pytest.raises(KeyExhaustedError):
            generate_schedule(stream, NoiseModelSpec(), 2)

    def test_white_range_with_default_divisor(self):
        stream = mock_qkd_source(2, 2 * 4096)
        sched = generate_schedule(stream, NoiseModelSpec(), 4096)
        phases = np.array(sched.phases_deg)
        assert phases.min() >= 0.0
        assert phases.max() <= 255.0 / 4.0

    def test_bounded_output_within_bound(self):
        for kind in (NoiseKind.RANDOM_WALK, NoiseKind.RW_LAG, NoiseKind.RW_MEMORY):
            stream = mock_qkd_source(3, 3 * 500)
            model = NoiseModelSpec(kind=kind, lag=20, memory=10, bound_deg=360.0)
            sched = generate_schedule(stream, model, 500)
            phases = np.array(sched.phases_deg)
            assert np.all(np.abs(phases) <= 360.0)

    def test_bound_recursion_differs_from_output_bound(self):
        base = dict(kind=NoiseKind.RANDOM_WALK, bound_deg=360.0)
        a = generate_schedule(mock_qkd_source(4, 3 * 200), NoiseModelSpec(**base), 200)
        b = generate_schedule(
            mock_qkd_source(4, 3 * 200), NoiseModelSpec(**base, bound_recursion=True), 200
        )
        assert a.phases_deg != b.phases_deg
        assert max(abs(p) for p in b.phases_deg) <= 360.0

    def test_lag_window_validated(self):
        model = NoiseModelSpec(kind=NoiseKind.RW_LAG, lag=10)
        with pytest.raises(ValueError):
            generate_schedule(mock_qkd_source(1, 60), model, 10)

    def test_balanced_walk_has_zero_mean_drift(self):
        # ensemble mean of (final phase - bias) stays within 4 standard errors
        n_steps, members, bias = 200, 400, 7.0
        model = NoiseModelSpec(kind=NoiseKind.RANDOM_WALK, bias_deg=bias)
        finals = []
        for seed in range(members):
            stream = mock_qkd_source(10_000 + seed, 3 * n_steps)
            finals.append(generate_schedule(stream, model, n_steps).phases_deg[-1] - bias)
        finals = np.array(finals)
        stderr = finals.std(ddof=1) / math.sqrt(members)
        assert abs(finals.mean()) < 4.0 * stderr

    def test_walk_variance_grows_linearly(self):
        # ensemble variance of the unbounded walk is proportional to the
        # step count: linear fit with R^2 > 0.99 over 10^4-step walks
        n_steps, members = 10_000, 300
        model = NoiseModelSpec(kind=NoiseKind.RANDOM_WALK)
        paths = np.empty((members, n_steps))
        for seed in range(members):
            stream = mock_qkd_source(20_000 + seed, 3 * n_steps)
            paths[seed] = generate_schedule(stream, model, n_steps).phases_deg
        checkpoints = np.arange(99, n_steps, 250)
        variances = paths[:, checkpoints].var(axis=0, ddof=1)
        steps = checkpoints + 1.0
        slope, intercept = np.polyfit(steps, variances, 1)
        fitted = slope * steps + intercept
        ss_res = np.sum((variances - fitted) ** 2)
        ss_tot = np.sum((variances - variances.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99
        # slope matches the per-step variance of a signed uniform two-digit step
        per_step = np.mean((np.arange(256) / 4.0) ** 2)
        assert slope == pytest.approx(per_step, rel=0.3)


def _reference_schedule(stream, model, n_steps):
    """The white and plain-walk schedules built step by step from
    white_phase, rw_step and bound_phase."""
    bound = model.bound_deg
    if model.kind is NoiseKind.WHITE:
        raw = [white_phase(pair, model.divisor) for pair in stream.take_pairs(n_steps)]
        return [bound_phase(p, bound) for p in raw] if bound else raw
    prev = model.bias_deg
    emitted = []
    for triplet in stream.take_triplets(n_steps):
        value = rw_step(prev, triplet, model.divisor, model.sign_threshold)
        if bound is None:
            prev = value
            emitted.append(value)
        elif model.bound_recursion:
            prev = bound_phase(value, bound)
            emitted.append(prev)
        else:
            prev = value
            emitted.append(bound_phase(value, bound))
    return emitted


class TestArraySchedulesMatchStepwise:
    @given(
        kind=st.sampled_from([NoiseKind.WHITE, NoiseKind.RANDOM_WALK]),
        digits=st.binary(max_size=300).map(lambda b: bytes(x % 16 for x in b)),
        divisor=st.floats(min_value=0.01, max_value=1e3),
        sign_threshold=st.integers(min_value=0, max_value=15),
        bias_deg=st.floats(min_value=-1e4, max_value=1e4),
        bound_deg=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=720.0)),
        bound_recursion=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_stepwise_loop(
        self, kind, digits, divisor, sign_threshold, bias_deg, bound_deg, bound_recursion
    ):
        model = NoiseModelSpec(
            kind=kind,
            divisor=divisor,
            sign_threshold=sign_threshold,
            bias_deg=bias_deg,
            bound_deg=bound_deg,
            bound_recursion=bound_recursion,
        )
        n_steps = len(digits) // model.digits_per_step
        stream, reference = HexKeyStream(digits), HexKeyStream(digits)
        schedule = generate_schedule(stream, model, n_steps)
        expected = tuple(_reference_schedule(reference, model, n_steps))
        # repr tells -0.0 from 0.0, as the CSV output would
        assert repr(schedule.phases_deg) == repr(expected)
        assert stream.cursor == reference.cursor == model.digits_per_step * n_steps


class TestPhaseToDelay:
    def test_reference_full_scale(self):
        assert phase_to_delay(63.75, 10e6) == pytest.approx(17.7083333333, abs=1e-9)

    def test_zero(self):
        assert phase_to_delay(0.0, 10e6) == 0.0

    def test_full_turn_is_one_period(self):
        assert phase_to_delay(360.0, 10e6) == pytest.approx(100.0)

    def test_rejects_bad_carrier(self):
        with pytest.raises(ValueError):
            phase_to_delay(10.0, 0.0)


def _integer_series(rng, n, tau0=5.0):
    return TimeErrorSeries(rng.integers(-10**6, 10**6, size=n).astype(float), tau0)


class TestApplySchedule:
    def test_encode_then_decode_restores_exactly(self):
        rng = np.random.default_rng(0)
        series = _integer_series(rng, 40)
        sched = generate_schedule(mock_qkd_source(5, 80), NoiseModelSpec(), 40)
        enc = apply_schedule(series, sched, -1)
        dec = apply_schedule(enc, sched, +1)
        assert np.array_equal(dec.samples_ns, series.samples_ns)

    def test_sign_minus_subtracts_full_scale_delay(self):
        # five samples per dwell, constant-zero input, full-scale first phase
        series = TimeErrorSeries(np.zeros(5), 1.0)
        sched = PhaseSchedule((63.75,), dwell_s=5.0, carrier_hz=10e6)
        out = apply_schedule(series, sched, -1)
        assert np.all(out.samples_ns == out.samples_ns[0])
        assert out.samples_ns[0] == pytest.approx(-17.708333, abs=1e-5)
        # applied value sits on the snap grid
        assert (out.samples_ns[0] / DELAY_GRID_NS) == round(out.samples_ns[0] / DELAY_GRID_NS)

    def test_wrong_schedule_leaves_residuals(self):
        series = TimeErrorSeries(np.zeros(256), 5.0)
        right = generate_schedule(mock_qkd_source(6, 512), NoiseModelSpec(), 256)
        wrong = generate_schedule(mock_qkd_source(7, 512), NoiseModelSpec(), 256)
        out = apply_schedule(apply_schedule(series, right, -1), wrong, +1)
        nonzero = np.count_nonzero(out.samples_ns)
        # each dwell matches only when both keys give the same pair (p = 1/256)
        assert nonzero > 240

    def test_subsampled_series_maps_to_dwells(self):
        series = TimeErrorSeries(np.zeros(10), 2.5)  # two samples per dwell
        sched = PhaseSchedule((36.0, 72.0, 108.0, 144.0, 180.0), dwell_s=5.0)
        out = apply_schedule(series, sched, +1)
        expected = np.repeat(phase_to_delay(np.array(sched.phases_deg)), 2)
        assert np.allclose(out.samples_ns, expected)

    def test_interval_must_divide_dwell(self):
        series = TimeErrorSeries(np.zeros(10), 3.0)
        sched = PhaseSchedule((10.0,) * 10, dwell_s=5.0)
        with pytest.raises(ValueError):
            apply_schedule(series, sched, +1)

    def test_schedule_too_short(self):
        series = TimeErrorSeries(np.zeros(10), 5.0)
        sched = PhaseSchedule((10.0,) * 9, dwell_s=5.0)
        with pytest.raises(ValueError, match="too short"):
            apply_schedule(series, sched, +1)

    def test_sign_validated(self):
        series = TimeErrorSeries(np.zeros(2), 5.0)
        sched = PhaseSchedule((10.0, 20.0), dwell_s=5.0)
        with pytest.raises(ValueError):
            apply_schedule(series, sched, 2)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=4, max_value=40))
    @settings(max_examples=120, deadline=None)
    def test_codec_identity_across_models(self, seed, n_steps):
        rng = np.random.default_rng(seed)
        kind = rng.choice(list(NoiseKind))
        model = NoiseModelSpec(
            kind=kind,
            lag=2,
            memory=2,
            bias_deg=float(rng.integers(-90, 90)),
            bound_deg=360.0 if rng.integers(0, 2) else None,
        )
        stream = mock_qkd_source(seed + 1, model.digits_per_step * n_steps)
        sched = generate_schedule(stream, model, n_steps)
        series = _integer_series(rng, n_steps)
        enc = apply_schedule(series, sched, -1)
        dec = apply_schedule(enc, sched, +1)
        assert np.array_equal(dec.samples_ns, series.samples_ns)

    def test_float_series_round_trip_within_one_ulp(self):
        rng = np.random.default_rng(8)
        series = TimeErrorSeries(rng.normal(0, 100, size=64), 5.0)
        sched = generate_schedule(mock_qkd_source(9, 128), NoiseModelSpec(), 64)
        dec = apply_schedule(apply_schedule(series, sched, -1), sched, +1)
        err = np.abs(dec.samples_ns - series.samples_ns)
        # one ulp at the working magnitude (sample plus the largest delay)
        assert np.all(err <= np.spacing(np.abs(series.samples_ns) + 17.71))


class TestModelSpecValidation:
    def test_parse_kind_aliases(self):
        assert parse_noise_kind("white") is NoiseKind.WHITE
        assert parse_noise_kind("random_walk") is NoiseKind.RANDOM_WALK
        assert parse_noise_kind("RW_LAG") is NoiseKind.RW_LAG
        with pytest.raises(ValueError):
            parse_noise_kind("pink")

    def test_divisor_positive(self):
        with pytest.raises(ValueError):
            NoiseModelSpec(divisor=0.0)

    def test_lag_required_for_lag_kind(self):
        with pytest.raises(ValueError):
            NoiseModelSpec(kind=NoiseKind.RW_LAG)

    def test_bound_positive(self):
        with pytest.raises(ValueError):
            NoiseModelSpec(bound_deg=-1.0)

    @pytest.mark.parametrize("field", ["divisor", "bias_deg", "bound_deg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # an infinite divisor would silently zero every phase
        with pytest.raises(ValueError, match=field):
            NoiseModelSpec(**{field: value})

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PhaseSchedule((1.0,), dwell_s=0.0)
        with pytest.raises(ValueError):
            PhaseSchedule((1.0,), carrier_hz=-1.0)
