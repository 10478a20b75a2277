import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
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
    with np.errstate(over="ignore"):
        return stability._allan_sum(x, m, (np.empty(size), np.empty(size)))


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


def _root_scaled_to(scaled: float) -> float:
    """A root whose Allan term is exactly scaled * scaled."""
    root = scaled / (1.0 / 1e9)
    while root * (1.0 / 1e9) != scaled:
        root = math.nextafter(root, math.inf if root * (1.0 / 1e9) < scaled else 0.0)
    return root


#: roots of terms from about 4 down to 2**-300 of it: level-2 remainders are non-zero
_SPREAD_ROOTS = st.builds(
    math.ldexp, st.floats(min_value=1e9, max_value=2e9), st.integers(-150, 0)
)


def _sum_of_terms(monkeypatch, terms):
    """_allan_sum over exactly these terms, and whether it built the factor's whole
    term array (the math.fsum path) rather than blocks in the buffers."""
    terms = np.array(terms, dtype=np.float64)
    outs = []

    def fill(x, m, start, out):
        outs.append(out)
        out[:] = terms[start : start + out.size]

    monkeypatch.setattr(stability, "_squared_differences", fill)
    size = min(stability._SUM_CHUNK, terms.size)
    total = stability._allan_sum(np.zeros(terms.size + 2), 1, (np.empty(size), np.empty(size)))
    # the blocks are views of the buffers; the whole term array is not
    return total, outs[-1].base is None


def _levels_run(monkeypatch) -> list:
    """The extraction levels _allan_sum runs from now on, in order."""
    levels = []
    split = stability._extracted_parts

    def spy(x, m, buffers, n):
        levels.append(n)
        return split(x, m, buffers, n)

    monkeypatch.setattr(stability, "_extracted_parts", spy)
    return levels


def _fsum_of_allan_terms(x: np.ndarray, m: int) -> float:
    """math.fsum over the Allan terms of factor m, as brute_force_adev forms them."""
    v = x.tolist()
    d = [(v[i + 2 * m] - 2.0 * v[i + m] + v[i]) * (1.0 / 1e9) for i in range(len(v) - 2 * m)]
    return math.fsum(e * e for e in d)


class TestExtraction:
    """The extraction levels and the certified rounding of _allan_sum."""

    @given(
        arrays(np.float64, st.integers(1, 120), elements=_SPREAD_ROOTS),
        st.sampled_from([1, 2, 7, 64, stability._SUM_CHUNK]),
    )
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    # block tops 2**900 and 2**-900, the bounds of _EXTRACT_RANGE, and the doubles below them
    @example(roots=np.array([_root_scaled_to(2.0**450), 1e9]), chunk=64)
    @example(roots=np.array([_root_scaled_to(math.nextafter(2.0**450, 0.0)), 1e9]), chunk=64)
    @example(roots=np.array([_root_scaled_to(2.0**-450), 1e-150, 1e-160]), chunk=64)
    @example(roots=np.array([_root_scaled_to(math.nextafter(2.0**-450, 0.0)), 1e-150]), chunk=7)
    def test_spread_terms_equal_fsum(self, monkeypatch, roots, chunk):
        monkeypatch.setattr(stability, "_SUM_CHUNK", chunk)
        _assert_sum_equals_fsum(roots)

    @pytest.mark.parametrize(
        "top, whole",
        [
            (2.0**900, True),
            (math.nextafter(2.0**900, 0.0), False),
            (2.0**-900, False),
            (math.nextafter(2.0**-900, 0.0), True),
        ],
    )
    def test_block_tops_outside_the_range_take_fsum(self, monkeypatch, top, whole):
        terms = [top * 2.0**-80, top, 5e-324]
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) and whole_built is whole

    def test_all_zero_block_between_non_zero_blocks(self, monkeypatch):
        monkeypatch.setattr(stability, "_SUM_CHUNK", 4)
        terms = [1.0, 2.0, 3.0, 0.1] + [0.0] * 4 + [5.0, 6.0, 2.0**-70]
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) and not whole_built

    @pytest.mark.parametrize("chunk", [4, stability._SUM_CHUNK])
    def test_all_zero_factor_gives_positive_zero(self, monkeypatch, chunk):
        monkeypatch.setattr(stability, "_SUM_CHUNK", chunk)
        total, whole_built = _sum_of_terms(monkeypatch, [0.0] * 10)
        assert total == 0.0 and math.copysign(1.0, total) == 1.0 and not whole_built

    @pytest.mark.parametrize("chunk", [3, stability._SUM_CHUNK])
    def test_failed_certification_takes_fsum(self, monkeypatch, chunk):
        # bounds far above the total: the two roundings differ in sign. Terms spanning down
        # to 2**-297 of the top leave non-zero level-2 remainders, so the bounds are not 0
        monkeypatch.setattr(stability, "_SUM_CHUNK", chunk)
        monkeypatch.setattr(stability, "_BOUND_EXPONENT", 60)
        terms = np.ldexp(np.random.default_rng(21).random(10), -33 * np.arange(10))
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) and whole_built

    @pytest.mark.parametrize("chunk", [1, stability._SUM_CHUNK])
    def test_tied_total_certifies_in_blocks(self, monkeypatch, chunk):
        # 1 + 2**-53 lies halfway between 1.0 and its next double. The extraction takes both
        # terms whole, so every remainder is zero, the bounds are 0 and the tie rounds to even
        monkeypatch.setattr(stability, "_SUM_CHUNK", chunk)
        terms = [1.0, 2.0**-53]
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) == 1.0 and not whole_built

    def test_residual_sum_rounding_is_bounded(self, monkeypatch):
        # one block of 4, sigma1 = 16, sigma2 = 2**-46. Level 2 leaves the remainders
        # 0, 2**-100, 2**-153 and -2**-100, whose float sum is 0: 2**-100 + 2**-153 is a tie
        # that rounds to even. The parts then sum to the midpoint 1 + 2**-53 while the
        # total lies 2**-153 above it, so only the bound 2**-145 keeps it from rounding
        # to 1.0; the two roundings differ and math.fsum decides.
        terms = [1.0, 2.0**-100, 2.0**-153, 2.0**-53 - 2.0**-100]
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) == 1.0 + 2.0**-52 and whole_built

    def test_second_level_takes_what_the_first_leaves(self, monkeypatch):
        # one block of 5, sigma1 = 16. The first level leaves 0, 2**-50, 2**-103, -2**-50 and
        # 2**-53 - 2**-104, whose float sum loses the 2**-103 to a tie and would put the parts
        # 2**-104 below the midpoint 1 + 2**-48 + 2**-53, beyond the bound 2**-145. The second
        # level takes all but 2**-103 and -2**-104, which sum exactly.
        terms = [1.0, 2.0**-50, 2.0**-103, 2.0**-48 - 2.0**-50, 2.0**-53 - 2.0**-104]
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) == 1.0 + 17 * 2.0**-52 and not whole_built

    def test_certifying_factor_runs_one_level(self, monkeypatch):
        # terms in [0, 1): the one-level interval, 2**-95 wide, holds no rounding boundary
        levels = _levels_run(monkeypatch)
        terms = np.random.default_rng(21).random(10)
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) and levels == [1] and not whole_built

    def test_straddled_boundary_runs_two_levels_in_the_blocks(self, monkeypatch):
        # the terms above: their total lies 2**-104 above a midpoint, inside the one-level
        # interval of 2**-95, so the blocks run again at two levels, and only in the buffers
        levels = _levels_run(monkeypatch)
        terms = [1.0, 2.0**-50, 2.0**-103, 2.0**-48 - 2.0**-50, 2.0**-53 - 2.0**-104]
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) and levels == [1, 2] and not whole_built

    @pytest.mark.parametrize("chunk", [3, stability._SUM_CHUNK])
    def test_block_top_outside_the_range_skips_the_second_level(self, monkeypatch, chunk):
        monkeypatch.setattr(stability, "_SUM_CHUNK", chunk)
        levels = _levels_run(monkeypatch)
        terms = [1.0, 2.0, 3.0, 2.0**910]
        total, whole_built = _sum_of_terms(monkeypatch, terms)
        assert total == math.fsum(terms) and levels == [1] and whole_built

    # series read at 0 to 3 decimals leave few-bit terms, whose totals meet rounding
    # boundaries: about 1% of such factors run the second level
    @given(
        arrays(np.float64, st.integers(3, 80), elements=st.floats(-1e4, 1e4)),
        st.integers(0, 3),
        st.sampled_from([1, 2, 7, 64, stability._SUM_CHUNK]),
    )
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @example(values=np.array([44.41, 105.59, -96.69, -58.31]), decimals=2, chunk=1)
    @example(values=np.array([0.0, -0.2, 0.1, 0.1, 0.2, -0.1, 0.0]), decimals=1, chunk=1)
    def test_rounded_series_equal_fsum(self, monkeypatch, values, decimals, chunk):
        monkeypatch.setattr(stability, "_SUM_CHUNK", chunk)
        x = np.round(values, decimals)
        size = min(chunk, x.size - 2)
        for m in default_m_values(x.size):
            total = stability._allan_sum(x, m, (np.empty(size), np.empty(size)))
            assert total.hex() == _fsum_of_allan_terms(x, m).hex()

    @pytest.mark.parametrize(
        "x, m",
        [([44.41, 105.59, -96.69, -58.31], 1), ([0.0, -0.2, 0.1, 0.1, 0.2, -0.1, 0.0], 2)],
    )
    def test_rounded_examples_reach_the_second_level(self, monkeypatch, x, m):
        # the @examples above, in blocks of one: the first level leaves factor m uncertified
        monkeypatch.setattr(stability, "_SUM_CHUNK", 1)
        levels = _levels_run(monkeypatch)
        x = np.array(x)
        total = stability._allan_sum(x, m, (np.empty(1), np.empty(1)))
        assert levels == [1, 2] and total == _fsum_of_allan_terms(x, m)


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
        assert curve.adev[0] == pytest.approx(brute, rel=1e-15, abs=0)

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

    @pytest.mark.parametrize(
        "n, tau0, m",
        [(8, 1e308, 1), (50, 1e200, 1), (50, 1.6e152, 16), (65, 1.2e152, 16)],
        ids=["largest_double", "every_factor", "largest_factor", "middle_factor"],
    )
    def test_interval_whose_divisor_overflows_rejected(self, n, tau0, m):
        # 2 * (m * tau0)**2 * (N - 2m) would be inf, so the deviation at m would be 0.0;
        # at 65 samples it overflows at m = 16 but not at the largest factor, 32
        series = TimeErrorSeries(np.arange(float(n)), tau0)
        with pytest.raises(ValueError, match=r"^tau0_s must be small enough ") as info:
            overlapping_adev(series)
        assert str(info.value).endswith(f" of {n} samples (m = {m}), got {tau0!r}")

    @pytest.mark.parametrize("n, tau0", [(50, 1.3e152), (65, 1e152)])
    def test_largest_intervals_keep_their_deviation(self, n, tau0):
        # the second differences of c * i**2 are 2 * m**2 * c at every factor m
        c = 1e100
        curve = overlapping_adev(TimeErrorSeries(c * np.arange(float(n)) ** 2, tau0))
        factors = curve.taus_s / tau0
        expected = math.sqrt(2.0) * factors * c * 1e-9 / tau0
        assert curve.adev == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("tau0", [1e150, 1.3e152])
    def test_deviation_whose_variance_is_subnormal_keeps_its_digits(self, tau0):
        # adev = sqrt(2) * m * 1e-12 s / tau0 is a normal double, its square is not:
        # forming the variance first gave 0.0 at m = 1 and 3.14e-162 at m = 2 for 1e150,
        # and 0.0 at every factor for 1.3e152, the largest interval 50 samples accept
        curve = overlapping_adev(TimeErrorSeries(1e-3 * np.arange(50.0) ** 2, tau0))
        factors = curve.taus_s / tau0
        assert factors.tolist() == [1.0, 2.0, 4.0, 8.0, 16.0]
        expected = math.sqrt(2.0) * factors * 1e-12 / tau0
        assert curve.adev == pytest.approx(expected, rel=1e-12, abs=0)

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
            # three finite squares of about 1.4e308, above 2**900, in the last block
            [6e162, 0.0, 6e162, 0.0],
            # squares in the third block and in the fifth and last: each block sum is finite
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

    def test_infinite_adev_in_the_window_rejected(self, capfd):
        # an overflowing Allan sum; polyfit once raised LinAlgError and printed LAPACK lines
        dev = np.array([1.0, 0.5, 0.25, math.inf])
        curve = AdevCurve(np.array([1.0, 2.0, 4.0, 8.0]), dev, dev)
        with pytest.raises(ValueError, match=r"^cannot fit a log-log slope through non-finite adev values$"):
            fit_loglog_slope(curve)
        assert fit_loglog_slope(curve, tau_range=(1.0, 4.0)) == pytest.approx(-1.0, abs=1e-9)
        assert capfd.readouterr().err == ""


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


def _lag_from_2n_transform(samples: np.ndarray) -> int:
    """The decorrelation lag from the full 2n-point FFT autocorrelation."""
    x = samples - samples.mean()
    spectrum = np.fft.rfft(x, 2 * len(x))
    acf = np.fft.irfft(spectrum * np.conj(spectrum))[: len(x)]
    return int(np.argmax(acf[1:] / acf[0] < 1.0 / math.e)) + 1


def _series_of_kind(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "white":
        return rng.normal(size=n)
    if kind == "walk":
        return np.cumsum(rng.normal(size=n))
    if kind == "mixed":
        return rng.normal(0.0, 0.05, n) + np.cumsum(rng.normal(0.0, 0.002, n))
    if kind == "ramp":
        return np.arange(n) * rng.uniform(0.1, 10.0) + rng.normal(0.0, 0.01, n)
    samples = np.full(n, rng.uniform(-5.0, 5.0))
    samples[rng.integers(n)] += rng.uniform(1.0, 100.0)
    return samples


def _rfft_lengths(monkeypatch) -> list:
    """The lengths of every np.fft.rfft call from now on in this test."""
    lengths = []
    rfft = np.fft.rfft

    def spy(x, size):
        lengths.append(size)
        return rfft(x, size)

    monkeypatch.setattr(np.fft, "rfft", spy)
    return lengths


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


_EXTREME_SAMPLES = [0.0, 5e-324, -5e-324, 2.0**-1022, 1.7e308, -1.7e308, 1.0, -0.5]


@st.composite
def _distinct_series(draw):
    """100-400 finite samples holding at least two distinct values: any floats,
    extremes (subnormals, +-1.7e308), or one value and its neighbours 1 ulp away."""
    n = draw(st.integers(100, 400))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        pool = draw(st.lists(finite | st.sampled_from(_EXTREME_SAMPLES), min_size=2, max_size=5))
    else:
        value = draw(finite | st.sampled_from(_EXTREME_SAMPLES))
        pool = [value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf)]
        pool = [v for v in pool if math.isfinite(v)]
    samples = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    assume(samples.max() != samples.min())
    return samples


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

    def test_tiny_or_huge_series_keeps_its_lag(self):
        # white noise at 1e-300 once underflowed acf[0] to 0, at 1e160 overflowed it
        samples = np.random.default_rng(1).normal(size=200)
        lag = decorrelation_steps(TimeErrorSeries(samples, 1.0))
        assert decorrelation_steps(TimeErrorSeries(samples * 2.0**530, 1.0)) == lag
        assert decorrelation_steps(TimeErrorSeries(samples * 2.0**-1000, 1.0)) == lag
        assert 1 <= decorrelation_steps(TimeErrorSeries(samples * 1e-300, 1.0)) < 200
        assert 1 <= decorrelation_steps(TimeErrorSeries(samples * 1e160, 1.0)) < 200

    @pytest.mark.parametrize(
        "samples",
        [
            # the sum behind its mean overflows unless the samples are scaled first
            np.linspace(-1.0, 1.0, 150) * 1.7e308,
            np.arange(150) * 5e-324,
        ],
        ids=["near_the_largest_double", "subnormals"],
    )
    def test_extreme_series_equals_its_unit_scaled_oracle(self, samples):
        scaled = np.ldexp(samples, stability._unit_exponent(samples))
        assert decorrelation_steps(TimeErrorSeries(samples, 1.0)) == _lag_from_2n_transform(scaled)

    @settings(deadline=None, max_examples=150)
    @given(
        kind=st.sampled_from(["white", "walk", "mixed", "ramp", "spike"]),
        n=st.integers(100, 4000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-6, 1e6),
    )
    @example(kind="walk", n=100, seed=0, scale=1.0)
    @example(kind="ramp", n=100, seed=0, scale=1.0)
    @example(kind="spike", n=101, seed=3, scale=1e-3)
    @example(kind="mixed", n=4000, seed=7, scale=2.5)
    @example(kind="white", n=3125, seed=11, scale=1e6)
    def test_lag_equals_the_2n_transform(self, kind, n, seed, scale):
        samples = _series_of_kind(kind, n, seed) * scale
        assert decorrelation_steps(TimeErrorSeries(samples, 1.0)) == _lag_from_2n_transform(samples)

    def test_workload_like_series_runs_only_the_padded_transform(self, monkeypatch):
        # white phase plus a slow walk, as the adev_512k benchmark's series
        n = 1 << 16
        samples = _series_of_kind("mixed", n, 2)
        expected = _lag_from_2n_transform(samples)
        lengths = _rfft_lengths(monkeypatch)
        assert decorrelation_steps(TimeErrorSeries(samples, 1.0)) == expected < n // 4
        assert lengths == [81_920]  # 2**14 * 5 == n + n // 4

    def test_thin_margin_falls_back_to_the_2n_transform(self, monkeypatch):
        # no seeded walk of 100 to 256 samples (3,000 seeds each) crosses 1/e beyond
        # n // 4, so the margin is forced: at 0.5 + 0.5 no lag is certified
        samples = _series_of_kind("walk", 200, 5)
        expected = _lag_from_2n_transform(samples)
        monkeypatch.setattr(stability, "_rho_error", lambda size: 0.5)
        lengths = _rfft_lengths(monkeypatch)
        assert decorrelation_steps(TimeErrorSeries(samples, 1.0)) == expected
        assert lengths == [250, 400]

    def test_crossing_beyond_the_padded_lags_falls_back(self, monkeypatch):
        # a pad of one point holds lags 0 and 1 alone, and a walk's rho[1] is near 1
        samples = _series_of_kind("walk", 200, 5)
        expected = _lag_from_2n_transform(samples)
        monkeypatch.setattr(stability, "_smooth_length", lambda target: 201)
        lengths = _rfft_lengths(monkeypatch)
        assert decorrelation_steps(TimeErrorSeries(samples, 1.0)) == expected > 1
        assert lengths == [201, 400]

    @pytest.mark.parametrize(
        "samples",
        [
            # the means of the first three round, which once left a lag of about 0.633 n
            np.full(1000, 0.1),
            np.full(200, 0.3),
            np.full(1000, 1e-5),
            np.full(200, 0.1),
            np.full(200, 3.0),
            np.tile([0.0, -0.0], 100),
            np.full(150, 5e-324),
            np.full(150, -1.7e308),
        ],
        ids=[
            "0.1x1000", "0.3x200", "1e-5x1000", "0.1x200", "3x200",
            "signed_zeros", "subnormal", "huge",
        ],
    )
    def test_equal_samples_run_no_transform(self, samples, monkeypatch):
        lengths = _rfft_lengths(monkeypatch)
        with pytest.raises(ValueError, match=r"^series has zero variance$"):
            decorrelation_steps(TimeErrorSeries(samples, 1.0))
        assert lengths == []

    @settings(deadline=None, max_examples=300)
    @given(samples=_distinct_series())
    @example(samples=np.array([5e-324, 0.0] * 50))
    @example(samples=np.array([1.7e308, -1.7e308] + [0.0] * 98))
    @example(samples=np.array([0.75] * 99 + [math.nextafter(0.75, 1.0)]))
    @example(samples=np.array([-1.7e308] * 99 + [math.nextafter(-1.7e308, 0.0)]))
    def test_distinct_samples_leave_a_positive_lag_zero(self, samples):
        # why decorrelation_steps needs no acf[0] > 0 check once equal samples are refused:
        # the scaled, mean-removed series keeps a value of at least 2**-54, and lag 0 of
        # both transforms is positive
        n = len(samples)
        x = np.ldexp(samples, stability._unit_exponent(samples))
        x -= x.mean()
        assert np.abs(x).max() >= 2.0**-54
        for size in (stability._smooth_length(n + n // 4), 2 * n):
            assert stability._autocorrelation(x, size, 1)[0] > 0, size

    def test_padded_length_is_the_smallest_smooth_length(self):
        smooth = [m for m in range(1, 5000) if _is_5_smooth(m)]
        for target in range(1, 4000):
            assert stability._smooth_length(target) == min(m for m in smooth if m >= target)

    @settings(deadline=None)
    @given(
        arrays(np.float64, st.integers(100, 300), elements=st.floats(-1e100, 1e100, width=64))
    )
    def test_some_lag_below_the_length_decorrelates(self, samples):
        # the lags 1..N-1 of a mean-removed series sum to -1/2 of lag 0
        series = TimeErrorSeries(samples, 1.0)
        try:
            steps = decorrelation_steps(series)
        except ValueError as error:
            assert str(error) == "series has zero variance"
        else:
            assert 1 <= steps < len(series)


class TestAdevCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdevCurve(np.array([2.0, 1.0]), np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            AdevCurve(np.array([1.0, 2.0]), -np.ones(2), np.ones(2))

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_taus_must_be_finite_and_positive(self, tau):
        with pytest.raises(ValueError, match=r"^taus_s must be finite and > 0$"):
            AdevCurve(np.array([1.0, tau]), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("field", [1, 2])
    def test_nan_deviation_rejected(self, field):
        arrays = [np.array([1.0, 2.0]), np.ones(2), np.ones(2)]
        arrays[field][1] = math.nan
        with pytest.raises(ValueError, match=r"^adev and sigma_adev must be non-negative, not NaN$"):
            AdevCurve(*arrays)

    @pytest.mark.parametrize("short", range(3))
    def test_unequal_arrays_rejected(self, short):
        arrays = [np.array([1.0, 2.0]), np.ones(2), np.ones(2)]
        arrays[short] = arrays[short][:1]
        with pytest.raises(ValueError, match=r"^curve arrays must have equal length$"):
            AdevCurve(*arrays)

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
