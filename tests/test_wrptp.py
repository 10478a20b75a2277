import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import quartet_from_parameters
from timecloak import wrptp
from timecloak.config import HopConfig
from timecloak.stability import TimeErrorSeries
from timecloak.wrptp import (
    WrTimestampQuartet,
    compute_delay_offset,
    exchange,
    run_sync_session,
    servo_step,
)


@pytest.mark.parametrize(
    "make, field",
    [
        (HopConfig, "delay_forward_ns"),
        (HopConfig, "delay_backward_ns"),
        (HopConfig, "jitter_ns"),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_fields_rejected(make, field, value):
    with pytest.raises(ValueError, match=rf"^{make.__name__}\.{field} must be finite, got {value!r}$"):
        make(**{field: value})


class TestExchange:
    def test_symmetric_link_with_offset(self):
        q = exchange(
            HopConfig(delay_forward_ns=50, delay_backward_ns=50, turnaround_ns=50),
            epoch_ns=0,
            offset_ns=100,
        )
        assert q == WrTimestampQuartet(0, 150, 200, 150)

    def test_zero_offset_zero_delay(self):
        q = exchange(HopConfig(turnaround_ns=700), epoch_ns=0)
        assert q.t2 == q.t1
        assert q.t4 == q.t3

    @pytest.mark.parametrize("step", [2, 2.0])
    def test_whole_float_step_gives_integer_timestamps(self, step):
        hop = HopConfig(delay_forward_ns=7, quantization_ns=step)
        q = exchange(hop, epoch_ns=0, offset_ns=0.5)
        assert q == (0, 8, 1008, 1008)
        assert all(type(t) is int for t in q)

    def test_quantization_grid(self):
        hop = HopConfig(
            delay_forward_ns=53, delay_backward_ns=41, quantization_ns=8, turnaround_ns=50
        )
        q = exchange(hop, epoch_ns=1001, offset_ns=13)
        assert all(t % 8 == 0 for t in q)

    def test_causality_with_default_turnaround(self):
        q = exchange(HopConfig(10, 90), epoch_ns=5_000, offset_ns=-30)
        assert q.t4 > q.t1
        assert q.t3 >= q.t2

    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            exchange(HopConfig(), epoch_ns=-1)

    def test_noisy_exchange_requires_generator(self):
        # a private generator would repeat the same draws on every call
        hop = HopConfig(delay_forward_ns=50, delay_backward_ns=50, jitter_ns=2.0)
        with pytest.raises(ValueError, match="rng"):
            exchange(hop, 0)

    def test_noise_repeatable_with_shared_rng(self):
        hop = HopConfig(delay_forward_ns=50, delay_backward_ns=50, jitter_ns=2.0)
        a = exchange(hop, 0, rng=np.random.default_rng(5))
        b = exchange(hop, 0, rng=np.random.default_rng(5))
        assert a == b


class TestComputeDelayOffset:
    def test_symmetric_example(self):
        assert compute_delay_offset(WrTimestampQuartet(0, 150, 200, 150)) == (50.0, 100.0)

    def test_asymmetric_bias_is_half_asymmetry(self):
        delay, offset = compute_delay_offset(WrTimestampQuartet(0, 160, 200, 140))
        assert (delay, offset) == (50.0, 110.0)  # offset error +10 = asymmetry/2

    def test_all_zero(self):
        assert compute_delay_offset(WrTimestampQuartet(0, 0, 0, 0)) == (0.0, 0.0)

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**4),
    )
    def test_symmetric_recovery_exact(self, offset, delay, asym, turnaround):
        q = WrTimestampQuartet(*quartet_from_parameters(offset, delay, delay, turnaround))
        recovered_delay, recovered_offset = compute_delay_offset(q)
        assert recovered_delay == delay
        assert recovered_offset == offset

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**4),
    )
    def test_half_asymmetry_bias_exact(self, offset, d_fwd, d_bwd, turnaround):
        q = WrTimestampQuartet(*quartet_from_parameters(offset, d_fwd, d_bwd, turnaround))
        _, recovered_offset = compute_delay_offset(q)
        assert recovered_offset - offset == (d_fwd - d_bwd) / 2.0

    @given(
        st.tuples(*[st.integers(min_value=-10**9, max_value=10**9)] * 4),
        st.integers(min_value=-10**9, max_value=10**9),
    )
    def test_master_timebase_shift(self, stamps, shift):
        # re-derive both quantities from scratch on the shifted quartet
        t1, t2, t3, t4 = stamps
        base = compute_delay_offset(WrTimestampQuartet(t1, t2, t3, t4))
        shifted = compute_delay_offset(WrTimestampQuartet(t1 + shift, t2, t3, t4 + shift))
        brute_delay = (((t4 + shift) - (t1 + shift)) - (t3 - t2)) / 2.0
        brute_offset = (t2 - (t1 + shift)) - brute_delay
        assert shifted == (brute_delay, brute_offset)
        assert shifted[0] == base[0]
        assert shifted[1] == base[1] - shift


class TestServoStep:
    def test_full_correction(self):
        assert servo_step(100.0, 100.0) == 0.0

    def test_proportional_gain(self):
        assert servo_step(100.0, 100.0, gain=0.5) == 50.0

    def test_zero_offset_is_identity(self):
        assert servo_step(42.0, 0.0) == 42.0

    def test_gain_validated(self):
        with pytest.raises(ValueError):
            servo_step(0.0, 10.0, gain=0.0)


class TestRunSyncSession:
    def test_symmetric_noiseless_residuals_vanish(self):
        series = run_sync_session(
            HopConfig(delay_forward_ns=500, delay_backward_ns=500),
            n_rounds=10,
            round_interval_s=1.0,
        )
        assert np.all(series.samples_ns == 0.0)

    def test_asymmetry_gives_half_residual(self):
        series = run_sync_session(
            HopConfig(delay_forward_ns=60, delay_backward_ns=40),
            n_rounds=10,
            round_interval_s=1.0,
        )
        # the servo steers the slave until the recovered offset reads zero,
        # which leaves it half the asymmetry early
        assert np.all(series.samples_ns[1:] == -10.0)
        assert abs(series.samples_ns[-1]) == (60 - 40) / 2.0

    def test_geometric_convergence_with_fractional_gain(self):
        # the recovered offset reads 1024 ns of half asymmetry on top of the
        # slave's own, so a half-gain servo closes half the gap each round
        series = run_sync_session(
            HopConfig(delay_forward_ns=2148, delay_backward_ns=100, gain=0.5),
            n_rounds=8,
            round_interval_s=1.0,
        )
        expected = -1024 * (1 - 0.5 ** np.arange(1, 9))
        assert np.array_equal(series.samples_ns, expected)

    def test_calibration_bias_shifts_residuals(self):
        series = run_sync_session(
            HopConfig(bias_ns=129.188),
            n_rounds=5,
            round_interval_s=1.0,
        )
        assert np.all(series.samples_ns == pytest.approx(129.188))

    def test_jitter_propagates_through_recovery(self):
        # oracle: recovered offset picks up (n2 - n4)/2, so with gain 1 the
        # residual after each correction is white with rms sigma/sqrt(2)
        sigma = 4.0
        n = 20_000
        series = run_sync_session(
            HopConfig(delay_forward_ns=50, delay_backward_ns=50, jitter_ns=sigma),
            n_rounds=n,
            round_interval_s=1.0,
            rng=np.random.default_rng((3, 4)),
        )
        residuals = series.samples_ns[1:]
        expected_rms = sigma / math.sqrt(2.0)
        observed_rms = float(np.sqrt(np.mean(residuals**2)))
        # quantization to integer ns adds 1/12 ns^2 of variance, negligible here
        assert observed_rms == pytest.approx(expected_rms, rel=0.05)

    @pytest.mark.parametrize("gain", [0.0, -1.0, 2.0, 3.0, math.nan])
    def test_gain_outside_stable_range_rejected(self, gain):
        # a session takes its gain from the hop, and the hop refuses these
        with pytest.raises(ValueError, match="gain"):
            run_sync_session(HopConfig(gain=gain), 5, 1.0)

    def test_round_count_validated(self):
        with pytest.raises(ValueError):
            run_sync_session(HopConfig(), 0, 1.0)

    @pytest.mark.parametrize("interval", [0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_non_positive_interval_rejected(self, interval):
        # refused before the epochs are formed, for a single round too
        for n_rounds in (3, 1):
            with pytest.raises(
                ValueError, match=rf"^round_interval_s must be finite and > 0, got {interval!r}$"
            ):
                run_sync_session(HopConfig(), n_rounds, interval)

    @pytest.mark.parametrize("n_rounds, interval", [(3, 1e300)])
    def test_interval_with_non_finite_epochs_rejected(self, n_rounds, interval):
        # 1e300 s is finite, but the last epoch in ns is not
        with pytest.raises(ValueError, match="^round_interval_s must keep every epoch finite, got"):
            run_sync_session(HopConfig(), n_rounds, interval)

    def test_series_metadata(self):
        series = run_sync_session(HopConfig(), 7, 5.0)
        assert isinstance(series, TimeErrorSeries)
        assert len(series) == 7
        assert series.tau0_s == 5.0

    def test_noisy_session_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            run_sync_session(HopConfig(jitter_ns=1.0), 5, 1.0)


def _reference_residuals(hop, n_rounds, round_interval_s, rng):
    """The session's residuals from a loop over the single-step reference
    functions: exchange, compute_delay_offset and servo_step on a shared
    generator."""
    offset = 0.0
    residuals = []
    for i in range(n_rounds):
        epoch_ns = int(round(i * round_interval_s * 1e9))
        quartet = exchange(hop, epoch_ns, offset, rng)
        _, recovered = compute_delay_offset(quartet)
        offset = servo_step(offset, recovered, hop.gain)
        residuals.append(offset + hop.bias_ns)
    return residuals


def _assert_matches_reference(hop, n_rounds, round_interval_s, seed):
    """The session's residuals and generator state are those of the
    single-step reference on the same seed."""
    reference_rng = np.random.default_rng(seed)
    expected = _reference_residuals(hop, n_rounds, round_interval_s, reference_rng)
    rng = np.random.default_rng(seed)
    # the bytes tell -0.0 from 0.0
    series = run_sync_session(hop, n_rounds, round_interval_s, rng=rng)
    assert series.samples_ns.tobytes() == np.array(expected).tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


_jitter = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=20.0))
_ns = st.floats(min_value=0.0, max_value=1e5)


class TestKernelMatchesSingleStepReference:
    @given(
        hop=st.builds(
            HopConfig,
            delay_forward_ns=_ns,
            delay_backward_ns=_ns,
            jitter_ns=_jitter,
            quantization_ns=st.sampled_from([0, 0, 1, 3, 8]),
            gain=st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True),
            turnaround_ns=st.one_of(st.just(1000), st.floats(min_value=0.0, max_value=5e3)),
            bias_ns=st.floats(min_value=-1e3, max_value=1e3),
        ),
        n_rounds=st.integers(min_value=1, max_value=40),
        # 1e8 and 1e12 take t1 past 2**53 and 2**63 within 40 rounds
        round_interval_s=st.sampled_from([0.1, 1.0, 5.0, 7.3, 1e8, 1e12]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(
        hop=HopConfig(delay_forward_ns=7.0, quantization_ns=3, jitter_ns=0.3),
        n_rounds=40,
        round_interval_s=1e8,
        seed=0,
    )
    @example(
        hop=HopConfig(delay_forward_ns=3.5, quantization_ns=8),
        n_rounds=12,
        round_interval_s=1e12,
        seed=0,
    )
    # epochs past 2**53 ns (1e8 s) and 2**62 ns (1e12 s), where only the int rounds run:
    # an int turnaround keeps t3 exact there, and a fractional one is rounded
    @example(
        hop=HopConfig(delay_forward_ns=7.0, jitter_ns=0.3, turnaround_ns=1000),
        n_rounds=40,
        round_interval_s=1e8,
        seed=1,
    )
    @example(
        hop=HopConfig(delay_forward_ns=3.5, jitter_ns=0.3, turnaround_ns=1000),
        n_rounds=40,
        round_interval_s=1e12,
        seed=2,
    )
    @example(
        hop=HopConfig(delay_forward_ns=7.0, jitter_ns=0.3, turnaround_ns=1234.5),
        n_rounds=40,
        round_interval_s=1e8,
        seed=3,
    )
    @example(
        hop=HopConfig(delay_forward_ns=7.0, quantization_ns=8, turnaround_ns=1000),
        n_rounds=40,
        round_interval_s=1e8,
        seed=4,
    )
    # last epochs just under and just over 2**50 ns, the float rounds' limit
    @example(
        hop=HopConfig(delay_forward_ns=5000.0, delay_backward_ns=5020.0, jitter_ns=0.3),
        n_rounds=3,
        round_interval_s=562949.95,
        seed=5,
    )
    @example(
        hop=HopConfig(delay_forward_ns=5000.0, delay_backward_ns=5020.0, jitter_ns=0.3),
        n_rounds=3,
        round_interval_s=562949.96,
        seed=6,
    )
    # draws of about 1e20 ns: the float rounds run, fail their check and give way
    @example(hop=HopConfig(jitter_ns=1e20), n_rounds=5, round_interval_s=1.0, seed=7)
    # a gain near 2: the servo overshoots by almost the whole offset every round
    @example(
        hop=HopConfig(delay_forward_ns=60.0, delay_backward_ns=40.0, jitter_ns=2.0, gain=1.999),
        n_rounds=40,
        round_interval_s=1.0,
        seed=8,
    )
    # exact .5 ties in t2 and t3, on even and odd epochs 1 ns apart
    @example(
        hop=HopConfig(delay_forward_ns=0.5, turnaround_ns=2.5),
        n_rounds=40,
        round_interval_s=1e-9,
        seed=0,
    )
    # the same ties in units of the step, on even and odd multiples of it
    @example(
        hop=HopConfig(delay_forward_ns=4.0, quantization_ns=8, turnaround_ns=12),
        n_rounds=40,
        round_interval_s=8e-9,
        seed=0,
    )
    @example(
        hop=HopConfig(delay_forward_ns=1.5, quantization_ns=3, turnaround_ns=4.5),
        n_rounds=40,
        round_interval_s=3e-9,
        seed=0,
    )
    # a step of 2**49 ns: the float rounds run, then give way; at 2**50 ns they never run
    @example(
        hop=HopConfig(delay_forward_ns=7.0, jitter_ns=0.3, quantization_ns=2**49),
        n_rounds=5,
        round_interval_s=1.0,
        seed=11,
    )
    @example(
        hop=HopConfig(delay_forward_ns=7.0, jitter_ns=0.3, quantization_ns=2**50),
        n_rounds=5,
        round_interval_s=1.0,
        seed=12,
    )
    # round 0 draws -2.41 ns for t2 with no forward delay, so t2 rounds a value below zero;
    # past it the recovered offsets read the negative half asymmetry
    @example(
        hop=HopConfig(delay_backward_ns=1e5, jitter_ns=3.0, gain=1.999),
        n_rounds=40,
        round_interval_s=0.1,
        seed=5,
    )
    # int delays from a library HopConfig: one the float rounds add exactly, one past 2**50
    @example(
        hop=HopConfig(delay_forward_ns=7, jitter_ns=0.3), n_rounds=40, round_interval_s=1.0, seed=9
    )
    @example(
        hop=HopConfig(delay_forward_ns=2**60, jitter_ns=0.3),
        n_rounds=40,
        round_interval_s=1.0,
        seed=10,
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, hop, n_rounds, round_interval_s, seed):
        _assert_matches_reference(hop, n_rounds, round_interval_s, seed)


HEADLINE_HOP = HopConfig(5000.0, 5020.0, jitter_ns=0.1, gain=0.7, bias_ns=12.0)
GOLDEN_NOISY_HOP = HopConfig(delay_forward_ns=60, delay_backward_ns=40, jitter_ns=2.5, gain=1.9)
QUANTIZED_HOP = HopConfig(5000.0, 5020.0, jitter_ns=0.4, quantization_ns=8, gain=0.7)


def _count_scalar_rounds(monkeypatch):
    """A one-item list that counts the rounds _float_rounds runs one at a
    time: it takes them from islice, and the array spans do not."""
    scalar = [0]

    def counting_islice(iterable, stop):
        for item in islice(iterable, stop):
            scalar[0] += 1
            yield item

    monkeypatch.setattr(wrptp, "islice", counting_islice)
    return scalar


class TestArraySpansMatchSingleStepReference:
    """Sessions long enough for a held offset, where rounds run as array
    spans. The comments give where the rounds run scalar (S) and as array
    spans (A) and where a round changes the offset, in rounds from 0; each
    case asserts that an array span ran."""

    @pytest.mark.parametrize(
        "hop, n_rounds, seed",
        [
            # no jitter: S 0-127, then A 128-191 and 192-299 hold to the last round
            (HopConfig(5000.0, 5020.0, gain=0.7, bias_ns=12.0), 300, 0),
            # a symmetric hop never changes its offset: S 0-63, then A to the end
            (HopConfig(jitter_ns=0.1, gain=0.7), 300, 0),
            # the headline hop: S 0-319, A 320-383 and 384-399 hold to the last round
            (HEADLINE_HOP, 400, 0),
            # a change inside a doubled span: A 192-319 changes at 214, S resumes at 215
            (HEADLINE_HOP, 400, 2),
            # a change at the last round of a span: A 128-191 changes at 191
            (HEADLINE_HOP, 400, 36),
            # a change at the first round of a span: S 267-330, then A 331-394 changes at 331
            (HEADLINE_HOP, 400, 230),
            # a fractional turnaround rounds t3 too: S 0-127, A 128-191 changes at 136
            (HopConfig(5000.0, 5020.0, jitter_ns=0.1, gain=0.7, turnaround_ns=1234.5), 300, 1),
        ],
        ids=[
            "jitter_0",
            "held_from_first_chunk",
            "headline_held_to_last_round",
            "change_inside_span",
            "change_at_last_round_of_span",
            "change_at_first_round_of_span",
            "fractional_turnaround",
        ],
    )
    def test_bit_identical(self, monkeypatch, hop, n_rounds, seed):
        scalar = _count_scalar_rounds(monkeypatch)
        _assert_matches_reference(hop, n_rounds, 5.0, seed)
        assert scalar[0] < n_rounds

    @given(
        hop=st.builds(
            HopConfig,
            delay_forward_ns=st.one_of(st.just(5000.0), _ns),
            delay_backward_ns=st.one_of(st.just(5020.0), _ns),
            # the jitter and gains of a locked servo: most draws hold their offset for chunks
            jitter_ns=st.sampled_from([0.0, 0.01, 0.1]),
            gain=st.one_of(st.sampled_from([0.5, 0.7, 1.0]), st.floats(min_value=0.1, max_value=1.5)),
            turnaround_ns=st.one_of(st.just(1000), st.floats(min_value=0.0, max_value=5e3)),
            bias_ns=st.floats(min_value=-1e3, max_value=1e3),
        ),
        n_rounds=st.integers(min_value=100, max_value=400),
        round_interval_s=st.sampled_from([1e-9, 1.0, 5.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_on_low_jitter_hops(self, hop, n_rounds, round_interval_s, seed):
        _assert_matches_reference(hop, n_rounds, round_interval_s, seed)


class TestSessionPath:
    """Which rounds a session runs. The path that must not run raises, so
    that a silent fallback cannot hide behind correct bytes."""

    @staticmethod
    def _record(monkeypatch, refuse=None):
        calls = []
        for name in ("_float_rounds", "_int_rounds"):
            def spy(*args, name=name, rounds=getattr(wrptp, name)):
                calls.append(name)
                if name == refuse:
                    raise AssertionError(f"{name} ran")
                return rounds(*args)
            monkeypatch.setattr(wrptp, name, spy)
        return calls

    @pytest.mark.parametrize(
        "hop, most_scalar",
        [(HEADLINE_HOP, 3_200), (GOLDEN_NOISY_HOP, 32_000), (QUANTIZED_HOP, 32_000)],
        ids=["headline", "golden_noisy", "quantized"],
    )
    def test_32k_session_runs_float_rounds(self, monkeypatch, hop, most_scalar):
        # a 32,000-round session, then the int rounds alone. The headline hop holds its
        # offset for long stretches, so array spans run nearly all of its rounds; the
        # noisy hop changes it nearly every round, so nearly all of its rounds run scalar,
        # and the quantized hop most of them.
        with monkeypatch.context() as patch:
            calls = self._record(patch, refuse="_int_rounds")
            scalar = _count_scalar_rounds(patch)
            floats = run_sync_session(hop, 32_000, 5.0, np.random.default_rng((1, 1)))
        assert calls == ["_float_rounds"]
        assert 64 <= scalar[0] <= most_scalar
        monkeypatch.setattr(wrptp, "_float_rounds", lambda *args: None)
        ints = run_sync_session(hop, 32_000, 5.0, np.random.default_rng((1, 1)))
        assert floats.samples_ns.tobytes() == ints.samples_ns.tobytes()

    @pytest.mark.parametrize(
        "hop, interval",
        [(HEADLINE_HOP, 1e8), (HopConfig(5000.0, 5020.0, 0.1, quantization_ns=2**50), 5.0)],
        ids=["epochs_past_2_50", "step_2_50"],
    )
    def test_int_rounds_run_without_float_rounds(self, monkeypatch, hop, interval):
        calls = self._record(monkeypatch, refuse="_float_rounds")
        run_sync_session(hop, 40, interval, np.random.default_rng(2))
        assert calls == ["_int_rounds"]

    @pytest.mark.parametrize(
        "hop",
        [
            HopConfig(jitter_ns=1e20),
            HopConfig(bias_ns=1e308),
            # timestamps of 0 or 2**49 ns, but 2q for the roundings reaches 2**50
            HopConfig(jitter_ns=0.3, quantization_ns=2**49),
        ],
        ids=["jitter", "bias", "step_2_49"],
    )
    def test_float_rounds_give_way_past_their_limit(self, monkeypatch, hop):
        calls = self._record(monkeypatch)
        # the check after the float rounds raises no numpy overflow error of its own
        with np.errstate(over="raise", invalid="raise"):
            series = run_sync_session(hop, 5, 1.0, np.random.default_rng(3))
        assert calls == ["_float_rounds", "_int_rounds"]
        assert np.all(np.isfinite(series.samples_ns))

    def test_bias_counts_toward_the_float_limit(self, monkeypatch):
        # offsets settle near -D/2 and residuals near -D/4. The post-check bounds |offset| by
        # max|residual| + |bias_ns|, about D/2, and D + 2 * D/2 passes 2**50; without the
        # bias term the bound would be D/4, and D + 2 * D/4 would not
        d = int(0.6 * 2**50)
        hop = HopConfig(delay_forward_ns=d, delay_backward_ns=0, bias_ns=d // 4, gain=0.7)
        with monkeypatch.context() as patch:
            calls = self._record(patch)
            series = run_sync_session(hop, 50, 1.0)
        assert calls == ["_float_rounds", "_int_rounds"]
        ints = wrptp._int_rounds(hop, np.rint(np.arange(50) * 1e9), np.zeros((2, 50)))
        assert series.samples_ns.tolist() == ints
