import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import brute_force_adev
from timecloak import stability
from timecloak.keys import mock_qkd_source
from timecloak.noise import NoiseKind, NoiseModelSpec, PhaseSchedule, generate_schedule
from timecloak.stability import (
    AdevCurve,
    NoiseClass,
    TimeErrorSeries,
    classify_noise,
    decorrelation_steps,
    default_m_values,
    fit_loglog_slope,
    overlapping_adev,
)
from timecloak.tables import write_text


def _curve_from_law(taus, law):
    values = np.array([law(t) for t in taus])
    return AdevCurve(np.array(taus, dtype=float), values, values * 0.01)


class TestTimeErrorSeries:
    def test_requires_positive_tau0(self):
        with pytest.raises(ValueError):
            TimeErrorSeries(np.zeros(4), 0.0)

    def test_samples_are_read_only(self):
        series = TimeErrorSeries(np.zeros(4), 1.0)
        with pytest.raises(ValueError):
            series.samples_ns[0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TimeErrorSeries(np.array([0.0, 1.0, bad, 2.0]), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tau0(self, bad):
        with pytest.raises(ValueError, match="tau0_s"):
            TimeErrorSeries(np.zeros(4), bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TimeErrorSeries(np.zeros(4), 1.0),
        lambda: AdevCurve(np.array([1.0, 2.0]), np.ones(2), np.ones(2)),
        lambda: PhaseSchedule((1.0, 2.0)),
    ],
    ids=["series", "curve", "schedule"],
)
def test_equality_is_identity_and_hash_works(make):
    # equal-valued arrays would make a field-wise == ambiguous, and hash fail
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and len({a, b}) == 2


#: roots v of Allan terms (v / 1e9)**2: zero, subnormal squares, terms in [1, 4),
#: and the whole range up to squares of about 1.7e308
_ROOTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-150),
    st.floats(min_value=1e9, max_value=2e9),
    st.floats(min_value=-1.3e163, max_value=1.3e163),
)


def _outcome(compute):
    """compute(), or OverflowError if it raises that."""
    try:
        return compute()
    except OverflowError:
        return OverflowError


def _allan_sum_of(roots: np.ndarray):
    # at m = len(roots) over roots followed by 2m zeros, term i is (roots[i] / 1e9)**2
    m = roots.size
    x = np.concatenate([roots, np.zeros(2 * m)])
    size = min(stability._SUM_CHUNK, m)
    buffers = np.empty(size), np.empty(size, np.int64), np.empty(size, np.int64)
    with np.errstate(over="ignore"):
        return stability._allan_sum(x, m, buffers)


def _fsum_of_terms(roots: np.ndarray) -> float:
    scaled = [v * (1.0 / 1e9) for v in roots.tolist()]
    return math.fsum(v * v for v in scaled)


def _assert_sum_equals_fsum(roots: np.ndarray) -> None:
    expected = _outcome(lambda: _fsum_of_terms(roots).hex())
    assert _outcome(lambda: _allan_sum_of(roots).hex()) == expected


def _roots_of(terms) -> np.ndarray:
    """Roots whose Allan terms are the given terms, up to rounding."""
    return np.sqrt(np.array(terms, dtype=np.float64)) * 1e9


class TestExactSum:
    @given(arrays(np.float64, st.integers(1, 300), elements=_ROOTS))
    @settings(max_examples=300, deadline=None)
    @example(roots=np.array([1e300, 1.0]))
    @example(roots=np.array([0.0, 1e300, 1e300]))
    def test_equals_fsum(self, roots):
        _assert_sum_equals_fsum(roots)

    @given(arrays(np.float64, st.integers(1, 120), elements=_ROOTS), st.integers(1, 9))
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_equals_fsum_over_several_chunks(self, monkeypatch, roots, chunk):
        monkeypatch.setattr(stability, "_SUM_CHUNK", chunk)
        _assert_sum_equals_fsum(roots)

    @pytest.mark.parametrize(
        "terms",
        [
            [0.0],
            [5e-324],
            [1.7976931348623157e308],
            [0.0] * 7,
            [1e-310, 3e-320, 2.5e-308],
            [2.2250738585072014e-308, 2.225073858507201e-308],
        ],
    )
    def test_edge_cases_equal_fsum(self, terms):
        _assert_sum_equals_fsum(_roots_of(terms))

    def test_full_fractions_over_default_chunks(self):
        # terms just under 2.0 fill every fraction bit; many passes of the default chunk
        terms = np.nextafter(2.0, 0.0) - np.random.default_rng(3).random(3 << 16) * 2**-40
        _assert_sum_equals_fsum(_roots_of(terms))

    @pytest.mark.parametrize("terms", [[1.7e308, 1.7e308], [1e308] * 3 + [1e-300]])
    def test_overflowing_sum_raises_like_fsum(self, terms):
        roots = _roots_of(terms)
        with pytest.raises(OverflowError):
            _fsum_of_terms(roots)
        with pytest.raises(OverflowError):
            _allan_sum_of(roots)


class TestOverlappingAdev:
    def test_constant_series_is_zero(self):
        curve = overlapping_adev(TimeErrorSeries(np.full(64, 3.25), 5.0))
        assert np.all(curve.adev == 0.0)

    def test_linear_ramp_is_zero(self):
        # constant frequency offset: second differences vanish exactly
        x = 0.5 * np.arange(64)
        curve = overlapping_adev(TimeErrorSeries(x, 1.0))
        assert np.all(curve.adev == 0.0)

    def test_white_phase_matches_known_relation(self):
        rng = np.random.default_rng(11)
        sigma_ns = 2.5
        tau0 = 5.0
        series = TimeErrorSeries(rng.normal(0.0, sigma_ns, size=100_000), tau0)
        curve = overlapping_adev(series)
        expected = math.sqrt(3.0) * (sigma_ns * 1e-9) / tau0
        assert curve.adev[0] == pytest.approx(expected, rel=0.10)
        # the same value must come out of the literal double-loop evaluation
        brute = brute_force_adev(series.samples_ns, tau0, 1)
        assert curve.adev[0] == pytest.approx(brute, rel=1e-15)

    def test_matches_brute_force_on_small_series(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 10, size=33)
        series = TimeErrorSeries(x, 2.0)
        curve = overlapping_adev(series)
        for tau, dev in zip(curve.taus_s, curve.adev):
            m = int(round(tau / 2.0))
            assert dev == brute_force_adev(x, 2.0, m)

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=3,
            max_size=64,
        )
    )
    @settings(max_examples=150, deadline=None)
    @example(values=[0.0, 1e300, 0.0, 1e300, 0.0])
    @example(values=[0.0] * 6 + [6e162, 0.0, 6e162, 0.0])
    @example(values=[0.0, 1e-150, 0.0, -3e-151, 0.0])
    def test_brute_force_oracle_property(self, values):
        # equal at every factor, or both raise OverflowError (near-overflow squares)
        def brute_force_curve():
            return [brute_force_adev(values, 5.0, m) for m in default_m_values(len(values))]

        series = TimeErrorSeries(np.array(values), 5.0)
        expected = _outcome(brute_force_curve)
        assert _outcome(lambda: overlapping_adev(series).adev.tolist()) == expected

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=64,
        ),
        st.integers(1, 9),
    )
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_brute_force_oracle_across_blocks(self, monkeypatch, values, block):
        monkeypatch.setattr(stability, "_SUM_CHUNK", block)
        curve = overlapping_adev(TimeErrorSeries(np.array(values), 5.0))
        for tau, dev in zip(curve.taus_s, curve.adev):
            assert dev == brute_force_adev(values, 5.0, int(round(tau / 5.0)))

    def test_overflowing_squares_give_infinite_deviation(self):
        # finite samples whose second differences square to inf, as math.fsum gave
        series = TimeErrorSeries(np.array([0.0, 1e300, 0.0, 1e300, 0.0]), 1.0)
        curve = overlapping_adev(series)
        assert curve.adev[0] == math.inf
        assert curve.adev[1] == 0.0

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            overlapping_adev(TimeErrorSeries(np.zeros(2), 1.0))

    @pytest.mark.parametrize("tau0", [1e-320, 1e-170, 1.4e-154])
    def test_interval_whose_square_underflows_rejected(self, tau0):
        # (m * tau0)**2 would be subnormal or zero, and the variance divides by it
        series = TimeErrorSeries(np.arange(8.0), tau0)
        with pytest.raises(ValueError, match=rf"^tau0_s must be >= 2\*\*-511 s .*, got {tau0!r}$"):
            overlapping_adev(series)

    def test_shortest_interval_accepted(self):
        series = TimeErrorSeries(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), 2.0**-511)
        curve = overlapping_adev(series)
        assert curve.taus_s[0] == 2.0**-511 and np.all(np.isfinite(curve.adev))

    def test_default_grid_is_octave_spaced(self):
        assert default_m_values(2001) == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        series = TimeErrorSeries(np.arange(41, dtype=float) ** 1.5, 1.0)
        curve = overlapping_adev(series)
        assert list(curve.taus_s) == [1.0, 2.0, 4.0, 8.0, 16.0]

    # Nonzero samples of at least 1e-100 in size keep every nonzero squared
    # second difference a normal float; subnormal ones lose relative
    # precision when scaled, and the property no longer holds.
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(
                lambda v: v == 0.0 or abs(v) >= 1e-100
            ),
            min_size=8,
            max_size=40,
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    @example(values=[0.0] * 7 + [1e-100], scale=0.01171875)
    def test_scale_equivariance(self, values, scale):
        base = overlapping_adev(TimeErrorSeries(np.array(values), 1.0))
        scaled = overlapping_adev(TimeErrorSeries(np.array(values) * scale, 1.0))
        assert np.allclose(scaled.adev, base.adev * scale, rtol=1e-9, atol=1e-300)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=8, max_size=40),
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, values, shift):
        base = overlapping_adev(TimeErrorSeries(np.array(values), 1.0))
        shifted = overlapping_adev(TimeErrorSeries(np.array(values) + shift, 1.0))
        assert np.allclose(shifted.adev, base.adev, rtol=1e-7, atol=1e-18)

    def test_relative_uncertainty_grows_with_m(self):
        rng = np.random.default_rng(13)
        series = TimeErrorSeries(rng.normal(0, 1, 4096), 1.0)
        curve = overlapping_adev(series)
        ratio = curve.sigma_adev / curve.adev
        assert np.all(np.diff(ratio) > 0)


_RAISE_ALL = dict(over="raise", invalid="raise", divide="raise")


class TestBlockwiseFallbacks:
    """The sums fall back to math.fsum from a block after the first."""

    @pytest.fixture(autouse=True)
    def _blocks_of_four(self, monkeypatch):
        monkeypatch.setattr(stability, "_SUM_CHUNK", 4)

    @pytest.mark.parametrize("errstate", [{}, _RAISE_ALL])
    def test_overflowing_square_in_last_block_gives_inf(self, errstate):
        # ten terms at m=1 in blocks of 4, 4 and 2; only the last term reads x[11]
        x = np.random.default_rng(19).normal(0.0, 5.0, 12)
        x[11] = 1e300
        with np.errstate(**errstate):
            curve = overlapping_adev(TimeErrorSeries(x, 1.0))
        assert curve.adev[0] == math.inf
        for tau, dev in zip(curve.taus_s, curve.adev):
            assert dev == brute_force_adev(x, 1.0, int(tau))

    @pytest.mark.parametrize("errstate", [{}, _RAISE_ALL])
    @pytest.mark.parametrize(
        "tail",
        [
            # three finite squares of about 1.4e308 in the last block: its bucket sum overflows
            [6e162, 0.0, 6e162, 0.0],
            # squares in the third block and in the fifth and last: each bucket sum is finite
            [0.0, 0.0, 0.0, 0.0, 6e162, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 6e162, 0.0],
        ],
    )
    def test_overflowing_bucket_totals_raise_like_fsum(self, errstate, tail):
        x = np.concatenate([np.zeros(6), tail])
        with pytest.raises(OverflowError):
            brute_force_adev(x, 1.0, 1)
        with np.errstate(**errstate), pytest.raises(OverflowError):
            overlapping_adev(TimeErrorSeries(x, 1.0))


def test_peak_memory_stays_in_blocks():
    # one full-length array of 2**19 terms alone would take 4 MiB
    series = TimeErrorSeries(np.random.default_rng(20).normal(0.0, 1.0, 1 << 19), 1.0)
    tracemalloc.start()
    try:
        overlapping_adev(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


class TestSlopeFit:
    def test_inverse_tau_law(self):
        taus = [1.0, 2.0, 4.0, 8.0, 16.0]
        curve = _curve_from_law(taus, lambda t: 3.0 / t)
        assert fit_loglog_slope(curve) == pytest.approx(-1.0, abs=1e-9)

    def test_inverse_sqrt_law(self):
        taus = [1.0, 2.0, 4.0, 8.0, 16.0]
        curve = _curve_from_law(taus, lambda t: 3.0 / math.sqrt(t))
        assert fit_loglog_slope(curve) == pytest.approx(-0.5, abs=1e-9)

    def test_white_phase_ensemble_slope(self):
        rng = np.random.default_rng(14)
        slopes = []
        for _ in range(8):
            series = TimeErrorSeries(rng.normal(0, 3, 4000), 5.0)
            slopes.append(fit_loglog_slope(overlapping_adev(series)))
        assert -1.1 < float(np.mean(slopes)) < -0.9

    def test_range_restriction(self):
        taus = [1.0, 2.0, 4.0, 16.0, 32.0, 64.0]
        curve = _curve_from_law(taus, lambda t: 1.0 / t if t < 10 else 10.0 / (t * t))
        steep = fit_loglog_slope(curve, tau_range=(10.0, 100.0))
        assert steep == pytest.approx(-2.0, abs=1e-9)

    def test_too_few_points(self):
        curve = _curve_from_law([1.0, 2.0], lambda t: 1.0 / t)
        with pytest.raises(ValueError):
            fit_loglog_slope(curve)
        full = _curve_from_law([1.0, 2.0, 4.0, 8.0], lambda t: 1.0 / t)
        with pytest.raises(ValueError):
            fit_loglog_slope(full, tau_range=(3.0, 5.0))

    def test_zero_adev_rejected(self):
        curve = AdevCurve(np.array([1.0, 2.0, 4.0]), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            fit_loglog_slope(curve)


class TestClassifyNoise:
    @pytest.mark.parametrize(
        "slope,expected",
        [
            (-1.0, NoiseClass.WHITE_PHASE),
            (-0.85, NoiseClass.WHITE_PHASE),
            (-0.5, NoiseClass.RANDOM_WALK_PHASE),
            (-0.75, NoiseClass.INDETERMINATE),
            (0.3, NoiseClass.INDETERMINATE),
            (-2.0, NoiseClass.INDETERMINATE),
        ],
    )
    def test_bands(self, slope, expected):
        assert classify_noise(slope) is expected


class TestDecorrelationSteps:
    def test_iid_white_is_one(self):
        rng = np.random.default_rng(15)
        series = TimeErrorSeries(rng.normal(0, 1, 5000), 1.0)
        assert decorrelation_steps(series) == 1

    def test_unbounded_walk_stays_correlated(self):
        # independent construction: cumulative sum of signed uniform steps
        rng = np.random.default_rng(16)
        steps = rng.choice([-1.0, 1.0], size=10_000) * rng.integers(0, 256, size=10_000) / 4.0
        series = TimeErrorSeries(np.cumsum(steps), 1.0)
        assert decorrelation_steps(series) > 100

    def test_bounded_walk_decorrelates_fast(self):
        stream = mock_qkd_source(17, 3 * 2000)
        model = NoiseModelSpec(kind=NoiseKind.RANDOM_WALK, bound_deg=360.0)
        schedule = generate_schedule(stream, model, 2000)
        series = TimeErrorSeries(schedule.delays_ns(), 5.0)
        assert decorrelation_steps(series) < 10

    def test_length_validated(self):
        with pytest.raises(ValueError):
            decorrelation_steps(TimeErrorSeries(np.random.default_rng(0).normal(size=50), 1.0))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            decorrelation_steps(TimeErrorSeries(np.zeros(200), 1.0))


class TestAdevCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdevCurve(np.array([2.0, 1.0]), np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            AdevCurve(np.array([1.0, 2.0]), -np.ones(2), np.ones(2))

    def test_callers_arrays_stay_writable_and_unchanged(self):
        # inf is kept: an overflowing Allan sum gives an infinite deviation
        taus, dev, sig = np.array([1.0, 2.0]), np.array([0.5, np.inf]), np.array([0.05, 0.02])
        curve = AdevCurve(taus, dev, sig)
        assert taus.flags.writeable and dev.flags.writeable and sig.flags.writeable
        assert dev.tolist() == curve.adev.tolist() == [0.5, math.inf]
        taus[0] = dev[0] = sig[0] = 3.0
        assert curve.taus_s.tolist() == [1.0, 2.0]
        assert curve.adev.tolist() == [0.5, math.inf]
        assert curve.sigma_adev.tolist() == [0.05, 0.02]

    def test_csv_round_trip(self, tmp_path):
        curve = AdevCurve(np.array([1.0, 2.0]), np.array([0.5, 0.25]), np.array([0.05, 0.02]))
        path = tmp_path / "curve.csv"
        write_text(path, curve.csv_text())
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_s,adev,sigma_adev"
        back = np.genfromtxt(path, delimiter=",", names=True)
        assert np.array_equal(np.atleast_1d(back["adev"]), curve.adev)
