import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import quartet_from_parameters
from timecloak.config import HopConfig
from timecloak.stability import TimeErrorSeries
from timecloak.wrptp import (
    SimClock,
    WrTimestampQuartet,
    compute_delay_offset,
    _session,
    exchange,
    run_sync_session,
    servo_step,
    write_session_csv,
)


@pytest.mark.parametrize(
    "make, field",
    [
        (SimClock, "true_offset_ns"),
        (SimClock, "drift_ppb"),
        (SimClock, "jitter_ns_rms"),
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
            SimClock(),
            SimClock(true_offset_ns=100),
            HopConfig(delay_forward_ns=50, delay_backward_ns=50, turnaround_ns=50),
            epoch_ns=0,
        )
        assert q == WrTimestampQuartet(0, 150, 200, 150)

    def test_zero_offset_zero_delay(self):
        q = exchange(SimClock(), SimClock(), HopConfig(turnaround_ns=700), epoch_ns=0)
        assert q.t2 == q.t1
        assert q.t4 == q.t3

    @pytest.mark.parametrize("step", [2, 2.0])
    def test_whole_float_step_gives_integer_timestamps(self, step):
        hop = HopConfig(delay_forward_ns=7, quantization_ns=step)
        q = exchange(SimClock(), SimClock(true_offset_ns=0.5), hop, epoch_ns=0)
        assert q == (0, 8, 1008, 1008)
        assert all(type(t) is int for t in q)

    def test_quantization_grid(self):
        hop = HopConfig(
            delay_forward_ns=53, delay_backward_ns=41, quantization_ns=8, turnaround_ns=50
        )
        q = exchange(SimClock(), SimClock(true_offset_ns=13), hop, epoch_ns=1001)
        assert all(t % 8 == 0 for t in q)

    def test_causality_with_default_turnaround(self):
        q = exchange(SimClock(), SimClock(true_offset_ns=-30), HopConfig(10, 90), epoch_ns=5_000)
        assert q.t4 > q.t1
        assert q.t3 >= q.t2

    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            exchange(SimClock(), SimClock(), HopConfig(), epoch_ns=-1)

    def test_noisy_exchange_requires_generator(self):
        # a private generator would repeat the same draws on every call
        hop = HopConfig(delay_forward_ns=50, delay_backward_ns=50, jitter_ns=2.0)
        with pytest.raises(ValueError, match="rng"):
            exchange(SimClock(), SimClock(), hop, 0)
        with pytest.raises(ValueError, match="rng"):
            exchange(SimClock(), SimClock(jitter_ns_rms=0.5), HopConfig(), 0)

    def test_noise_repeatable_with_shared_rng(self):
        hop = HopConfig(delay_forward_ns=50, delay_backward_ns=50, jitter_ns=2.0)
        a = exchange(SimClock(), SimClock(), hop, 0, rng=np.random.default_rng(5))
        b = exchange(SimClock(), SimClock(), hop, 0, rng=np.random.default_rng(5))
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
        assert servo_step(SimClock(true_offset_ns=100), 100).true_offset_ns == 0

    def test_proportional_gain(self):
        assert servo_step(SimClock(true_offset_ns=100), 100, gain=0.5).true_offset_ns == 50

    def test_zero_offset_is_identity(self):
        clock = SimClock(true_offset_ns=42)
        assert servo_step(clock, 0).true_offset_ns == 42

    def test_gain_validated(self):
        with pytest.raises(ValueError):
            servo_step(SimClock(), 10, gain=0.0)


class TestRunSyncSession:
    def test_symmetric_noiseless_residuals_vanish(self):
        series = run_sync_session(
            SimClock(),
            SimClock(true_offset_ns=12345),
            HopConfig(delay_forward_ns=500, delay_backward_ns=500),
            n_rounds=10,
            round_interval_s=1.0,
        )
        assert np.all(series.samples_ns == 0.0)

    def test_asymmetry_gives_half_residual(self):
        series = run_sync_session(
            SimClock(),
            SimClock(true_offset_ns=1000),
            HopConfig(delay_forward_ns=60, delay_backward_ns=40),
            n_rounds=10,
            round_interval_s=1.0,
        )
        # the servo steers the slave until the recovered offset reads zero,
        # which leaves it half the asymmetry early
        assert np.all(series.samples_ns[1:] == -10.0)
        assert abs(series.samples_ns[-1]) == (60 - 40) / 2.0

    def test_geometric_convergence_with_fractional_gain(self):
        series = run_sync_session(
            SimClock(),
            SimClock(true_offset_ns=1024),
            HopConfig(delay_forward_ns=100, delay_backward_ns=100, gain=0.5),
            n_rounds=8,
            round_interval_s=1.0,
        )
        expected = 1024 * 0.5 ** np.arange(1, 9)
        assert np.allclose(series.samples_ns, expected)

    def test_calibration_bias_shifts_residuals(self):
        series = run_sync_session(
            SimClock(),
            SimClock(true_offset_ns=500),
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
            SimClock(),
            SimClock(true_offset_ns=100.0),
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

    def test_relative_drift_accumulates_when_unlocked(self):
        # 100 ppb for 10 s between corrections shows up as 1000 ns on each
        # recovered offset; frequency lock to the master removes it
        def offsets(synce_locked):
            rows = []
            _session(
                SimClock(),
                SimClock(drift_ppb=100.0),
                HopConfig(),
                n_rounds=5,
                round_interval_s=10.0,
                synce_locked=synce_locked,
                rows=rows,
            )
            return [offset for *_, offset, _residual in rows]

        assert offsets(synce_locked=True) == [0.0] * 5
        assert offsets(synce_locked=False) == [0.0] + [1000.0] * 4

    @pytest.mark.parametrize("gain", [0.0, -1.0, 2.0, 3.0, math.nan])
    def test_gain_outside_stable_range_rejected(self, gain):
        # a session takes its gain from the hop, and the hop refuses these
        with pytest.raises(ValueError, match="gain"):
            run_sync_session(SimClock(), SimClock(), HopConfig(gain=gain), 5, 1.0)

    def test_round_count_validated(self):
        with pytest.raises(ValueError):
            run_sync_session(SimClock(), SimClock(), HopConfig(), 0, 1.0)

    def test_series_metadata(self):
        series = run_sync_session(SimClock(), SimClock(), HopConfig(), 7, 5.0)
        assert isinstance(series, TimeErrorSeries)
        assert len(series) == 7
        assert series.tau0_s == 5.0

    def test_noisy_session_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            run_sync_session(SimClock(), SimClock(), HopConfig(jitter_ns=1.0), 5, 1.0)
        with pytest.raises(ValueError, match="rng"):
            _session(SimClock(), SimClock(jitter_ns_rms=0.5), HopConfig(), 5, 1.0)


def _reference_rounds(master, slave, hop, n_rounds, round_interval_s, synce_locked, rng):
    """The session as a loop over the single-step reference functions:
    exchange, compute_delay_offset and servo_step on a shared generator."""
    if synce_locked:
        slave = replace(slave, drift_ppb=master.drift_ppb)
    rounds = []
    for i in range(n_rounds):
        epoch_ns = int(round(i * round_interval_s * 1e9))
        quartet = exchange(master, slave, hop, epoch_ns, rng)
        delay, offset = compute_delay_offset(quartet)
        slave = servo_step(slave, offset, hop.gain)
        residual = slave.true_offset_ns + hop.bias_ns
        rounds.append((*quartet, delay, offset, residual))
        drift_rel = slave.drift_ppb - master.drift_ppb
        if drift_rel != 0.0:
            drifted = slave.true_offset_ns + drift_rel * round_interval_s
            slave = replace(slave, true_offset_ns=drifted)
    return rounds


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
        master=st.builds(
            SimClock,
            true_offset_ns=st.floats(min_value=-1e4, max_value=1e4),
            drift_ppb=st.floats(min_value=-500.0, max_value=500.0),
            jitter_ns_rms=_jitter,
        ),
        slave=st.builds(
            SimClock,
            true_offset_ns=st.floats(min_value=-1e6, max_value=1e6),
            drift_ppb=st.floats(min_value=-500.0, max_value=500.0),
            jitter_ns_rms=_jitter,
        ),
        n_rounds=st.integers(min_value=1, max_value=40),
        # 1e8 and 1e12 take t1 past 2**53 and 2**63 within 40 rounds
        round_interval_s=st.sampled_from([0.1, 1.0, 5.0, 7.3, 1e8, 1e12]),
        synce_locked=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(
        master=SimClock(),
        slave=SimClock(true_offset_ns=3.5, drift_ppb=1.0),
        hop=HopConfig(delay_forward_ns=7.0, quantization_ns=3),
        n_rounds=40,
        round_interval_s=1e8,
        synce_locked=False,
        seed=0,
    )
    @example(
        master=SimClock(),
        slave=SimClock(true_offset_ns=3.5),
        hop=HopConfig(quantization_ns=8),
        n_rounds=12,
        round_interval_s=1e12,
        synce_locked=True,
        seed=0,
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, master, slave, hop, n_rounds, seed, **kwargs):
        reference_rng = np.random.default_rng(seed)
        expected = _reference_rounds(master, slave, hop, n_rounds, rng=reference_rng, **kwargs)
        rng = np.random.default_rng(seed)
        got = []
        residuals = _session(master, slave, hop, n_rounds, rng=rng, rows=got, **kwargs)
        # repr tells ints from floats and -0.0 from 0.0, as the CSV output would
        assert repr(got) == repr(expected)
        assert repr(residuals) == repr([r[-1] for r in expected])
        assert rng.bit_generator.state == reference_rng.bit_generator.state

        rng = np.random.default_rng(seed)
        series = run_sync_session(master, slave, hop, n_rounds, rng=rng, **kwargs)
        residuals = np.array([r[-1] for r in expected])
        assert series.samples_ns.tobytes() == residuals.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestSessionCsv:
    def test_columns_and_rows(self, tmp_path):
        path = tmp_path / "session.csv"
        write_session_csv(
            path,
            SimClock(),
            SimClock(true_offset_ns=100),
            HopConfig(delay_forward_ns=50, delay_backward_ns=50, turnaround_ns=50),
            n_rounds=4,
            round_interval_s=1.0,
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "round_index,epoch_s,t1,t2,t3,t4,D_ns,O_ns,residual_ns"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[2:6] == ["0", "150", "200", "150"]
        assert float(first[6]) == 50.0
        assert float(first[7]) == 100.0

    def test_deterministic_bytes(self, tmp_path):
        kwargs = dict(n_rounds=50, round_interval_s=1.0)
        hop = HopConfig(delay_forward_ns=50, delay_backward_ns=50, jitter_ns=1.5)
        for name in ("a.csv", "b.csv"):
            rng = np.random.default_rng((1, 2))
            write_session_csv(tmp_path / name, SimClock(), SimClock(), hop, rng=rng, **kwargs)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
