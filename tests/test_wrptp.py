import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import quartet_from_parameters
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

    @pytest.mark.parametrize(
        "n_rounds, interval", [(3, math.nan), (3, math.inf), (3, 1e300), (1, math.inf)]
    )
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
    # each side of the kernel's exact turnaround (integer ns and an int turnaround):
    # exact, with numpy t1 + d_fwd past 2**53 and with the lists past 2**62; then rounded
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
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, hop, n_rounds, round_interval_s, seed):
        reference_rng = np.random.default_rng(seed)
        expected = _reference_residuals(hop, n_rounds, round_interval_s, reference_rng)
        rng = np.random.default_rng(seed)
        # the bytes tell -0.0 from 0.0
        series = run_sync_session(hop, n_rounds, round_interval_s, rng=rng)
        assert series.samples_ns.tobytes() == np.array(expected).tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
