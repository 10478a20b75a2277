import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecloak import noise
from timecloak.config import ExperimentConfig
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

    @pytest.mark.parametrize("divisor", [0.0, -4.0])
    def test_rejects_non_positive_divisor(self, divisor):
        with pytest.raises(ValueError, match=r"^divisor must be > 0$"):
            white_phase((2, 8), divisor)


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


_WALK_STEPS = {
    "rw": lambda t: rw_step(0.0, t),
    "rw_lag_before_lag": lambda t: rw_lag_step([], 0, t, lag=2),
    "rw_lag_past_lag": lambda t: rw_lag_step([0.0, 5.0, 4.0, 7.0], 4, t, lag=2),
    "rw_mem_before_memory": lambda t: rw_mem_step([], 0, t, memory=3),
    "rw_mem_past_memory": lambda t: rw_mem_step([0.0, 1.0, 3.0, 2.0], 4, t, memory=3),
}


@pytest.mark.parametrize("step", _WALK_STEPS.values(), ids=_WALK_STEPS.keys())
@pytest.mark.parametrize("sign_digit", [-1, 16, 99])
def test_walk_steps_reject_sign_digit_out_of_range(step, sign_digit):
    assert math.isfinite(step((9, 1, 2)))
    with pytest.raises(ValueError, match=r"digits must be in \[0, 15\]"):
        step((sign_digit, 1, 2))


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

    @pytest.mark.parametrize("errstate", ["warn", "raise"])
    @pytest.mark.parametrize("bound", [None, 360.0], ids=["unbounded", "bounded"])
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("divisor", [1e-305, 1e-306])
    def test_overflowing_phases_name_the_divisor(self, divisor, kind, bound, errstate):
        # 1e-306 overflows 255 / divisor itself; 1e-305 overflows a walk's running sum,
        # but not the white phases
        model = NoiseModelSpec(kind=kind, divisor=divisor, lag=20, memory=10, bound_deg=bound)
        stream = mock_qkd_source(1, 3 * 400)
        with np.errstate(all=errstate):  # run_experiment raises on overflow
            if divisor == 1e-305 and kind is NoiseKind.WHITE:
                assert np.all(np.isfinite(generate_schedule(stream, model, 400).phases))
            else:
                with pytest.raises(ValueError) as info:
                    generate_schedule(stream, model, 400)
                assert str(info.value) == f"divisor {divisor!r} is too small: the phases overflow"

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

    def test_lag_window_validated(self):
        model = NoiseModelSpec(kind=NoiseKind.RW_LAG, lag=10)
        with pytest.raises(ValueError):
            generate_schedule(mock_qkd_source(1, 60), model, 10)

    def test_memory_window_validated(self):
        model = NoiseModelSpec(kind=NoiseKind.RW_MEMORY, memory=9)
        message = r"^memory must satisfy 1 < memory < n_steps-1, got memory=9 for 10 steps$"
        with pytest.raises(ValueError, match=message):
            generate_schedule(mock_qkd_source(1, 60), model, 10)

    def test_negative_step_count_rejected(self):
        stream = mock_qkd_source(1, 30)
        with pytest.raises(ValueError, match=r"^n_steps must be >= 0$"):
            generate_schedule(stream, NoiseModelSpec(), -1)
        assert stream.cursor == 0

    @pytest.mark.parametrize(
        "timing",
        [{"dwell_s": -1.0}, {"dwell_s": math.inf}, {"carrier_hz": 0.0}, {"carrier_hz": 1e-310}],
        ids=["negative_dwell", "infinite_dwell", "zero_carrier", "tiny_carrier"],
    )
    def test_refused_dwell_or_carrier_takes_no_key(self, timing):
        stream = mock_qkd_source(1, 20)
        with pytest.raises(ValueError, match=r"^(dwell_s|carrier_hz) must be "):
            generate_schedule(stream, NoiseModelSpec(), 5, **timing)
        assert stream.cursor == 0

    @pytest.mark.parametrize(
        "divisor, kind",
        [(d, k) for d in (1e-305, 1e-306) for k in NoiseKind if (d, k) != (1e-305, NoiseKind.WHITE)],
    )
    def test_refused_divisor_takes_no_key(self, divisor, kind):
        # the divisors of test_overflowing_phases_name_the_divisor; 1e-305 overflows walks only
        stream = mock_qkd_source(1, 3 * 400)
        with pytest.raises(ValueError, match="the phases overflow$"):
            generate_schedule(stream, NoiseModelSpec(kind=kind, divisor=divisor, lag=20, memory=10), 400)
        assert stream.cursor == 0
        model = NoiseModelSpec(kind=kind, lag=20, memory=10)
        fresh = generate_schedule(mock_qkd_source(1, 3 * 400), model, 400).phases
        assert generate_schedule(stream, model, 400).phases.tobytes() == fresh.tobytes()

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
    """Every schedule built step by step from white_phase, rw_step,
    rw_lag_step, rw_mem_step and bound_phase, the walks indexing a growing
    history of their states."""
    bound = model.bound_deg
    if model.kind is NoiseKind.WHITE:
        pairs = stream.take_digits(n_steps, 2).tolist()
        raw = [white_phase(pair, model.divisor) for pair in pairs]
        return [bound_phase(p, bound) for p in raw] if bound else raw
    state = []
    for i, triplet in enumerate(stream.take_digits(n_steps, 3).tolist()):
        if model.kind is NoiseKind.RANDOM_WALK:
            prev = state[-1] if state else model.bias_deg
            value = rw_step(prev, triplet, model.divisor, model.sign_threshold)
        elif model.kind is NoiseKind.RW_LAG:
            value = rw_lag_step(
                state, i, triplet, model.lag, model.divisor, model.sign_threshold, model.bias_deg
            )
        else:
            value = rw_mem_step(
                state, i, triplet, model.memory, model.divisor, model.sign_threshold, model.bias_deg
            )
        state.append(value)
    return [bound_phase(p, bound) for p in state] if bound else state


_WINDOWED = (NoiseKind.RW_LAG, NoiseKind.RW_MEMORY)


@st.composite
def _models_and_digits(draw):
    """A model of any kind with its key digits; lag and memory are drawn
    in [2, n_steps-2], the range generate_schedule accepts, for the kind
    that uses them and as any integer otherwise."""
    kind = draw(st.sampled_from(list(NoiseKind)))
    per_step = 2 if kind is NoiseKind.WHITE else 3
    min_size = 4 * per_step if kind in _WINDOWED else 0
    raw = draw(st.binary(min_size=min_size, max_size=300))
    digits = bytes(x % 16 for x in raw)
    windows = st.integers(2, len(digits) // per_step - 2) if kind in _WINDOWED else st.integers()
    window = draw(windows)
    model = NoiseModelSpec(
        kind=kind,
        divisor=draw(st.floats(min_value=0.01, max_value=1e3)),
        sign_threshold=draw(st.integers(min_value=0, max_value=15)),
        lag=window,
        memory=window,
        # near 1e17 one ulp is 16 degrees, so small steps are absorbed
        bias_deg=draw(st.floats(min_value=-1e17, max_value=1e17)),
        bound_deg=draw(st.one_of(st.none(), st.floats(min_value=1e-3, max_value=720.0))),
    )
    return model, digits


# steps of 1, 63.75, -2, -60 and 0.25 degrees: near 1e17 the small ones are absorbed
_ABSORBED_DIGITS = bytes([9, 0, 4, 9, 15, 15, 7, 0, 8, 3, 15, 0, 12, 0, 1]) * 4
_ABSORBED_MODELS = (
    NoiseModelSpec(kind=NoiseKind.RW_LAG, lag=3, bias_deg=1e17),
    NoiseModelSpec(kind=NoiseKind.RW_LAG, lag=2, bias_deg=-1e17, bound_deg=360.0),
)


def _spy_on_lag_walk(monkeypatch):
    """Record what each call of noise._lag_walk returns; None means the caller
    builds the phases with rw_lag_step."""
    lag_walk, returned = noise._lag_walk, []

    def spy(*args):
        returned.append(lag_walk(*args))
        return returned[-1]

    monkeypatch.setattr(noise, "_lag_walk", spy)
    return returned


# biases that keep every step, and ones that absorb the small steps or all of them
_EDGE_BIASES = {
    "zero": 0.0, "minus_zero": -0.0, "plus_1e17": 1e17, "minus_1e17": -1e17, "plus_1e300": 1e300
}


@st.composite
def _memory_walks(draw):
    """A memory walk of 200-3,000 steps and its model: a bias at, next to or
    opposite a power of two 2**k from the subnormals to the top binade, or a
    zero, with steps of at most 2**(k - j) degrees. A large j keeps long runs
    inside one binade, a small one crosses powers of two and signs, and one
    near the top overflows."""
    n_steps = draw(st.integers(200, 3000))
    # the stepwise oracle costs about n_steps * memory, so most depths are small
    memory = draw(st.one_of(st.integers(2, 40), st.integers(2, n_steps - 2)))
    k = draw(st.integers(-1074, 1023))
    power = math.ldexp(1.0, k)
    bias = draw(
        st.sampled_from(
            [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf), 0.0, -0.0]
        )
    )
    sign = draw(st.sampled_from([1.0, -1.0]))
    j = draw(st.integers(1, 60))
    model = NoiseModelSpec(
        kind=NoiseKind.RW_MEMORY,
        divisor=math.ldexp(255.0, min(j - k, 1015)),
        sign_threshold=draw(st.sampled_from([8, 8, 0, 15, 4])),
        memory=memory,
        bias_deg=sign * bias,
    )
    return model, draw(st.integers(0, 2**32 - 1)), n_steps


def _windows_across_binades(phases, memory):
    """The steps i >= memory whose window, entries i - memory .. i of the bias
    followed by the phases, does not lie inside one open binade (between two
    neighbouring powers of two, of one sign)."""
    mantissa, exponent = np.frexp(phases)
    inside = np.isfinite(phases) & (np.abs(mantissa) > 0.5)  # no zero or power of two
    sign = np.signbit(phases)
    same = (exponent[1:] == exponent[:-1]) & (sign[1:] == sign[:-1])
    joined = inside[1:] & inside[:-1] & same  # entries j and j + 1 share a binade
    breaks = np.concatenate(([0], np.cumsum(~joined)))  # breaks among the first j pairs
    steps = np.arange(memory, len(phases) - 1)
    return (steps[breaks[steps] - breaks[steps - memory] > 0]).tolist()


def _spy_on_window_sum(monkeypatch):
    """Record the step of each call of noise._window_sum, the memory walk's
    newest-first sum."""
    window_sum, steps = noise._window_sum, []

    def spy(phases, memory):
        steps.append(len(phases) - 1)
        return window_sum(phases, memory)

    monkeypatch.setattr(noise, "_window_sum", spy)
    return steps


class TestArraySchedulesMatchStepwise:
    @given(case=_models_and_digits())
    @example(case=(_ABSORBED_MODELS[0], _ABSORBED_DIGITS))
    @example(case=(_ABSORBED_MODELS[1], _ABSORBED_DIGITS))
    @example(case=(NoiseModelSpec(kind=NoiseKind.RW_LAG, lag=4, bias_deg=-0.0), bytes(30)))
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_stepwise_loop(self, case):
        model, digits = case
        n_steps = len(digits) // model.digits_per_step
        stream, reference = HexKeyStream(digits), HexKeyStream(digits)
        schedule = generate_schedule(stream, model, n_steps)
        expected = tuple(_reference_schedule(reference, model, n_steps))
        # repr tells -0.0 from 0.0, as the CSV output would
        assert repr(schedule.phases_deg) == repr(expected)
        assert stream.cursor == reference.cursor == model.digits_per_step * n_steps

    @pytest.mark.parametrize("bound", [360.0, 1e300])
    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_raw_state_bound_across_magnitudes(self, kind, bound):
        # raw phases of both signs from 1e-300 to 1e300 degrees: steps scaled by the
        # divisor, or a bias that absorbs the steps (the lag walk falls back to
        # rw_lag_step); plus -0.0 phases from zero digits below the sign threshold
        key = mock_qkd_source(8, 60).digits
        cases = [(4.0, -0.0, bytes(60))]
        for scale in (1e-300, 1e-150, 1e-5, 1.0, 1e17, 1e150, 1e300):
            cases += [(1.0 / scale, 0.0, key), (4.0, scale, _ABSORBED_DIGITS), (4.0, -scale, key)]
        for divisor, bias, digits in cases:
            model = NoiseModelSpec(
                kind=kind, divisor=divisor, lag=3, memory=3, bias_deg=bias, bound_deg=bound
            )
            n_steps = len(digits) // model.digits_per_step
            schedule = generate_schedule(HexKeyStream(digits), model, n_steps)
            expected = tuple(_reference_schedule(HexKeyStream(digits), model, n_steps))
            assert repr(schedule.phases_deg) == repr(expected), (divisor, bias)

    @pytest.mark.parametrize("model", _ABSORBED_MODELS, ids=["plus_1e17", "minus_1e17_bounded"])
    def test_absorbed_steps_fall_back_to_rw_lag_step(self, model, monkeypatch):
        # the models of the absorbed-step examples above do reach the fallback
        returned = _spy_on_lag_walk(monkeypatch)
        schedule = generate_schedule(HexKeyStream(_ABSORBED_DIGITS), model, 20)
        assert len(returned) == 1 and returned[0] is None
        expected = tuple(_reference_schedule(HexKeyStream(_ABSORBED_DIGITS), model, 20))
        assert repr(schedule.phases_deg) == repr(expected)

    @pytest.mark.parametrize("bound", [None, 360.0], ids=["unbounded", "bounded"])
    def test_overflowing_lag_walk_falls_back_and_names_the_divisor(self, bound, monkeypatch):
        # an infinite running sum leaves NaN increments whose signs match no chain,
        # so rw_lag_step rebuilds the walk, and its infinite phases are named too
        returned = _spy_on_lag_walk(monkeypatch)
        model = NoiseModelSpec(kind=NoiseKind.RW_LAG, divisor=1e-305, lag=20, bound_deg=bound)
        with pytest.raises(ValueError, match=r"^divisor 1e-305 is too small: the phases overflow$"):
            generate_schedule(mock_qkd_source(1, 3 * 400), model, 400)
        assert len(returned) == 1 and returned[0] is None

    @pytest.mark.parametrize("bias", _EDGE_BIASES.values(), ids=_EDGE_BIASES.keys())
    @pytest.mark.parametrize("window", ["least", "largest"])
    @pytest.mark.parametrize("kind", _WINDOWED, ids=lambda kind: kind.value)
    def test_windows_at_the_limits_match_stepwise(self, kind, window, bias):
        # 2 and n_steps - 2 are the least and the largest lag or depth accepted;
        # one further out is refused
        n_steps = 40
        digits = mock_qkd_source(9, 3 * n_steps).digits
        size, beyond = (2, 1) if window == "least" else (n_steps - 2, n_steps - 1)
        for bound in (None, 360.0):
            model = NoiseModelSpec(kind=kind, lag=size, memory=size, bias_deg=bias, bound_deg=bound)
            schedule = generate_schedule(HexKeyStream(digits), model, n_steps)
            expected = tuple(_reference_schedule(HexKeyStream(digits), model, n_steps))
            assert repr(schedule.phases_deg) == repr(expected), bound
        stream = HexKeyStream(digits)
        with pytest.raises(ValueError, match=rf"must satisfy 1 < \w+ < n_steps-1, got \w+={beyond} "):
            generate_schedule(stream, NoiseModelSpec(kind=kind, lag=beyond, memory=beyond), n_steps)
        assert stream.cursor == 0

    def test_memory_window_is_summed_in_order(self):
        # steps 3, -24.75, -52.5, 3.25 and 61.5 from a bias of 0.1 at depth 3: the
        # increments summed newest first give the last phase below; the telescoped
        # difference of two phases would round to -110.95555555555556
        digits = bytes([8, 0, 12, 0, 6, 3, 0, 13, 2, 8, 0, 13, 8, 15, 6])
        model = NoiseModelSpec(kind=NoiseKind.RW_MEMORY, memory=3, bias_deg=0.1)
        schedule = generate_schedule(HexKeyStream(digits), model, 5)
        assert schedule.phases_deg[-1] == -110.95555555555558
        assert schedule.phases_deg == tuple(_reference_schedule(HexKeyStream(digits), model, 5))

    @given(case=_memory_walks())
    @example(case=(NoiseModelSpec(kind=NoiseKind.RW_MEMORY, bias_deg=2.0**40 + 0.5), 1, 200))
    @example(case=(NoiseModelSpec(kind=NoiseKind.RW_MEMORY, divisor=1e-305), 1, 400))
    @example(
        case=(NoiseModelSpec(kind=NoiseKind.RW_MEMORY, divisor=2e307, bias_deg=1e-310), 1, 300)
    )
    @example(  # a long run just above 2**1023, in the binade that ends at inf, then overflow
        case=(
            NoiseModelSpec(
                kind=NoiseKind.RW_MEMORY,
                divisor=math.ldexp(255.0, -1013),
                sign_threshold=0,
                bias_deg=math.nextafter(2.0**1023, math.inf),
            ),
            1,
            3000,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_memory_walk_matches_stepwise_across_binades(self, case):
        model, seed, n_steps = case
        digits = mock_qkd_source(seed, 3 * n_steps).digits
        expected = _reference_schedule(HexKeyStream(digits), model, n_steps)
        if all(math.isfinite(value) for value in expected):
            schedule = generate_schedule(HexKeyStream(digits), model, n_steps)
            assert repr(schedule.phases_deg) == repr(tuple(expected))
        else:
            message = rf"^divisor {re.escape(repr(model.divisor))} is too small: the phases overflow$"
            with pytest.raises(ValueError, match=message):
                generate_schedule(HexKeyStream(digits), model, n_steps)

    def test_default_walk_sums_its_window_only_across_binades(self, monkeypatch):
        # 32k steps of a seed-1 key at the default depth 10: the newest-first sum runs
        # only where the window leaves one binade, and inside one the walk subtracts
        steps = _spy_on_window_sum(monkeypatch)
        model = NoiseModelSpec(kind=NoiseKind.RW_MEMORY)
        digits = mock_qkd_source(1, 3 * 32_000).digits
        schedule = generate_schedule(HexKeyStream(digits), model, 32_000)
        assert schedule.phases.tolist() == _reference_schedule(HexKeyStream(digits), model, 32_000)
        assert steps == _windows_across_binades(np.concatenate(([0.0], schedule.phases)), 10)
        assert 0 < len(steps) < 0.02 * 32_000

    @pytest.mark.parametrize("threshold, expected", [(0, []), (8, [198, 199])])
    def test_walk_inside_one_binade_never_sums_its_window(self, threshold, expected, monkeypatch):
        # at depth n - 2 only the last two steps have a window; with every step upward
        # from just above 2**40 it stays in (2**40, 2**41), and balanced steps dip below
        steps = _spy_on_window_sum(monkeypatch)
        model = NoiseModelSpec(
            kind=NoiseKind.RW_MEMORY, memory=198, sign_threshold=threshold, bias_deg=2.0**40 + 0.5
        )
        digits = mock_qkd_source(1, 3 * 200).digits
        schedule = generate_schedule(HexKeyStream(digits), model, 200)
        assert schedule.phases.tolist() == _reference_schedule(HexKeyStream(digits), model, 200)
        assert steps == expected

    def test_subnormal_walk_telescopes_and_matches_stepwise(self, monkeypatch):
        # magnitudes 0 and 1 over a divisor of 1.7e308 are steps of 0 and 5.9e-309 degrees,
        # so this walk from a subnormal bias stays subnormal, where doubles are evenly spaced
        rng = np.random.default_rng(4)
        digits = np.zeros((200, 3), dtype=np.uint8)
        digits[:, 0] = rng.integers(0, 16, 200)
        digits[:, 2] = rng.random(200) < 0.05
        model = NoiseModelSpec(kind=NoiseKind.RW_MEMORY, divisor=1.7e308, bias_deg=5e-310)
        steps = _spy_on_window_sum(monkeypatch)
        schedule = generate_schedule(HexKeyStream(digits.tobytes()), model, 200)
        expected = tuple(_reference_schedule(HexKeyStream(digits.tobytes()), model, 200))
        assert repr(schedule.phases_deg) == repr(expected)
        assert np.all(np.abs(schedule.phases) < 2.0**-1022)
        assert steps == _windows_across_binades(np.concatenate(([5e-310], schedule.phases)), 10)
        assert len(steps) < 100  # of the 190 steps past the first 10

    def test_no_schedule_calls_math_sin(self, monkeypatch):
        # the bound is one array pass, whatever path built the raw phases
        class SinCalled(Exception):
            pass

        def no_sin(x):
            raise SinCalled

        monkeypatch.setattr(noise.math, "sin", no_sin)
        for kind in NoiseKind:
            model = NoiseModelSpec(kind=kind, lag=3, memory=3, bound_deg=360.0)
            assert len(generate_schedule(mock_qkd_source(5, 120), model, 40)) == 40
        absorbed = NoiseModelSpec(kind=NoiseKind.RW_LAG, lag=3, bias_deg=1e17, bound_deg=360.0)
        assert len(generate_schedule(HexKeyStream(_ABSORBED_DIGITS), absorbed, 20)) == 20


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
        # an infinite carrier would give zero delays and leave the series unencrypted
        with pytest.raises(ValueError, match=r"^carrier_hz must be finite and > 0, got inf$"):
            phase_to_delay(10.0, math.inf)

    @pytest.mark.parametrize("carrier_hz", [1e-320, 1e-300, 5.5e-300, np.float64(1e-320)])
    def test_rejects_carrier_whose_period_overflows(self, carrier_hz):
        # 1e9 / carrier_hz is inf, so a zero phase would give a NaN delay
        with pytest.raises(ValueError, match="^carrier_hz must be large enough"):
            phase_to_delay(0.0, carrier_hz)
        with pytest.raises(ValueError, match="^carrier_hz must be large enough"):
            PhaseSchedule((0.0, 10.0), carrier_hz=carrier_hz)
        assert math.isfinite(phase_to_delay(360.0, 5.6e-300))


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

    def test_overflowing_dwell_to_interval_ratio_does_not_divide(self):
        # both finite, but dwell / tau0 overflows to inf
        series = TimeErrorSeries(np.zeros(3), 1e-10)
        sched = PhaseSchedule((1.0,), dwell_s=1e300)
        with pytest.raises(ValueError, match="must divide the schedule dwell"):
            apply_schedule(series, sched, 1)

    @pytest.mark.parametrize("errstate", ["warn", "raise"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_delay_too_large_for_the_grid_is_named(self, monkeypatch, errstate, sign):
        # finite delays; the largest one that fits passes, the next float up overflows
        edge = sys.float_info.max * DELAY_GRID_NS  # exact: the grid is a power of two
        series = TimeErrorSeries(np.zeros(3), 5.0)
        sched = PhaseSchedule((0.0,) * 3, dwell_s=5.0)
        over = math.nextafter(edge, math.inf)
        with np.errstate(over=errstate):
            monkeypatch.setattr(PhaseSchedule, "delays_ns", lambda _: np.array([1.0, -edge, 2.0]))
            assert apply_schedule(series, sched, sign).samples_ns[1] == -sign * edge
            monkeypatch.setattr(PhaseSchedule, "delays_ns", lambda _: np.array([1.0, -over, 2.0]))
            with pytest.raises(ValueError) as info:
                apply_schedule(series, sched, sign)
        assert str(info.value) == f"delay {over!r} ns is too large for the 2**-20 ns delay grid"

    def test_schedule_too_short(self):
        series = TimeErrorSeries(np.zeros(10), 5.0)
        sched = PhaseSchedule((10.0,) * 9, dwell_s=5.0)
        with pytest.raises(ValueError, match="too short"):
            apply_schedule(series, sched, +1)

    @pytest.mark.parametrize("per_dwell", [1, 2, 3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_partial_last_dwell_matches_per_sample_indexing(self, per_dwell, sign):
        # 7 samples leave the last of 2 or 3 sample dwells partly covered; the
        # schedule has two dwells to spare
        n = 7
        rng = np.random.default_rng(per_dwell)
        series = TimeErrorSeries(rng.normal(0.0, 100.0, n), 1.0)
        needed = (n - 1) // per_dwell + 1
        sched = PhaseSchedule(rng.uniform(-360.0, 360.0, needed + 2), dwell_s=float(per_dwell))
        delays = np.round(sched.delays_ns() / DELAY_GRID_NS) * DELAY_GRID_NS
        expected = series.samples_ns + sign * delays[np.arange(n) // per_dwell]
        out = apply_schedule(series, sched, sign)
        assert out.samples_ns.tobytes() == expected.tobytes()
        exact = PhaseSchedule(sched.phases[:needed], dwell_s=float(per_dwell))
        assert apply_schedule(series, exact, sign).samples_ns.tobytes() == expected.tobytes()
        short = PhaseSchedule(sched.phases[: needed - 1], dwell_s=float(per_dwell))
        message = f"schedule too short: {needed - 1} steps for {n} samples ({per_dwell} per dwell)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_schedule(series, short, sign)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_empty_series_stays_empty(self, sign):
        # no sample has a dwell, so even an empty schedule is long enough
        for schedule in (PhaseSchedule((10.0,), dwell_s=5.0), PhaseSchedule((), dwell_s=5.0)):
            out = apply_schedule(TimeErrorSeries(np.zeros(0), 5.0), schedule, sign)
            assert (len(out), out.tau0_s) == (0, 5.0)

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

    def test_walk_defaults_are_the_sweep_lag_and_depth(self):
        assert NoiseModelSpec(kind=NoiseKind.RW_LAG).lag == 100
        assert NoiseModelSpec(kind=NoiseKind.RW_MEMORY).memory == 10

    @pytest.mark.parametrize(
        "spec, field",
        [(NoiseModelSpec, name) for name in ("lag", "memory", "sign_threshold")]
        + [(ExperimentConfig, name) for name in ("key_seed", "seed", "calib_window_steps")],
        ids=["lag", "memory", "sign_threshold", "key_seed", "seed", "calib_window_steps"],
    )
    @pytest.mark.parametrize("value", [None, 1.5, 2.5, 5.0])
    def test_lag_and_memory_must_be_integers(self, spec, field, value):
        # every count and seed a spec holds, not only the walk's lag and depth
        message = f"{spec.__name__}.{field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec(**{field: value})

    def test_numpy_integer_lag_and_memory_accepted(self):
        model = NoiseModelSpec(kind=NoiseKind.RW_LAG, lag=np.int64(5), memory=np.int64(5))
        assert model.lag == model.memory == 5

    def test_bound_positive(self):
        with pytest.raises(ValueError):
            NoiseModelSpec(bound_deg=-1.0)

    def test_bound_recursion_is_not_a_field(self):
        # the bound has one meaning: bound_deg * sin(raw phase)
        with pytest.raises(TypeError, match="bound_recursion"):
            NoiseModelSpec(kind=NoiseKind.RANDOM_WALK, bound_deg=90.0, bound_recursion=True)

    @pytest.mark.parametrize("field", ["divisor", "bias_deg", "bound_deg"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, np.float32("nan"), np.float32("inf")]
    )
    def test_non_finite_values_rejected(self, field, value):
        # an infinite divisor would silently zero every phase; a numpy float is checked too
        with pytest.raises(ValueError, match=field):
            NoiseModelSpec(**{field: value})

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PhaseSchedule((1.0,), dwell_s=0.0)
        with pytest.raises(ValueError):
            PhaseSchedule((1.0,), carrier_hz=-1.0)

    @pytest.mark.parametrize("phases", [(1.0, math.nan), (math.inf,), (0.0, -math.inf)])
    def test_schedule_rejects_non_finite_phases(self, phases):
        with pytest.raises(ValueError, match=r"^phases must be finite \(no NaN or inf\)$"):
            PhaseSchedule(phases)

    @pytest.mark.parametrize("phases", [1.0, [[1.0, 2.0]], np.zeros((2, 0))])
    def test_schedule_rejects_input_that_is_not_one_dimensional(self, phases):
        with pytest.raises(ValueError, match="^phases must be one-dimensional$"):
            PhaseSchedule(phases)

    def test_schedule_holds_a_read_only_float64_copy(self):
        source = np.array([1, 2, -0.0])
        sched = PhaseSchedule(source)
        source[0] = 9.0
        assert sched.phases.dtype == np.float64 and not sched.phases.flags.writeable
        assert sched.phases.tobytes() == np.array([1.0, 2.0, -0.0]).tobytes()
        assert sched.phases_deg == (1.0, 2.0, -0.0)
        assert all(type(p) is float for p in sched.phases_deg)
        assert len(sched) == 3 and PhaseSchedule(()).phases.shape == (0,)

    def test_schedule_rejects_infinite_dwell(self):
        # the field is named where it enters, not in apply_schedule
        with pytest.raises(ValueError, match=r"^dwell_s must be finite and > 0, got inf$"):
            PhaseSchedule((1.0,), dwell_s=math.inf)

    def test_schedule_rejects_infinite_carrier(self):
        # every delay would be 0, so apply_schedule would leave the series as it is
        with pytest.raises(ValueError, match=r"^carrier_hz must be finite and > 0, got inf$"):
            PhaseSchedule((10.0, 20.0), carrier_hz=math.inf)
        with pytest.raises(ValueError, match="^carrier_hz must be finite"):
            generate_schedule(mock_qkd_source(5, 4), NoiseModelSpec(), 2, carrier_hz=math.inf)
