import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecloak.linkbudget import ChannelParams, feasibility_report, report_csv, report_text


def _report(**fields):
    return feasibility_report(ChannelParams(**fields))


class TestCountsPerPulse:
    def test_reference_background(self):
        assert _report(background_rate_cps=6500.0, rep_rate_hz=1e9).background_per_pulse == 6.5e-6

    def test_lower_background_edge(self):
        assert _report(background_rate_cps=3500.0, rep_rate_hz=1e9).background_per_pulse == 3.5e-6

    def test_zero_rate(self):
        assert _report(background_rate_cps=0.0, rep_rate_hz=1e9).background_per_pulse == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
        st.floats(min_value=1e3, max_value=1e10, allow_nan=False),
    )
    def test_unit_sanity(self, rate, rep):
        back = _report(background_rate_cps=rate, rep_rate_hz=rep).background_per_pulse * rep
        assert back == pytest.approx(rate, rel=1e-12, abs=1e-300)


class TestSignalCountsPerPulse:
    def test_reference_operating_point(self):
        signal = _report(mean_photon_mu=1.5, loss_db=10.0, det_efficiency=0.2).signal_per_pulse
        assert signal == pytest.approx(0.03, rel=1e-12)

    def test_lossless_unit_efficiency(self):
        signal = _report(mean_photon_mu=0.1, loss_db=0.0, det_efficiency=1.0).signal_per_pulse
        assert signal == 0.1

    def test_infinite_loss_limit(self):
        signal = _report(mean_photon_mu=1.5, loss_db=1e6, det_efficiency=0.2).signal_per_pulse
        assert signal == 0.0


class TestSaturationLimit:
    def test_reference_dead_time(self):
        assert _report(dead_time_s=25e-6).saturation_cps == 40_000.0

    def test_one_second(self):
        assert _report(dead_time_s=1.0).saturation_cps == 1.0

    def test_one_millisecond(self):
        assert _report(dead_time_s=1e-3).saturation_cps == 1000.0


class TestObservedRate:
    # incident = signal_per_pulse * rep_rate_hz + background + dark: at 0 dB,
    # unit efficiency and no stray counts it is mean_photon_mu * rep_rate_hz
    _LOSSLESS = dict(loss_db=0.0, det_efficiency=1.0, dark_rate_cps=0.0, background_rate_cps=0.0)

    def test_asymptote_is_saturation(self):
        report = _report(**self._LOSSLESS, mean_photon_mu=1e3, dead_time_s=25e-6)
        assert report.total_rate_cps < report.saturation_cps

    def test_linear_at_low_rate(self):
        report = _report(**self._LOSSLESS, mean_photon_mu=1e-8, dead_time_s=25e-6)
        assert report.total_rate_cps == pytest.approx(10.0, rel=1e-3)


class TestFeasibilityReport:
    def test_reference_channel_is_feasible(self):
        report = feasibility_report(ChannelParams())
        assert report.feasible
        assert report.background_per_pulse == 6.5e-6
        assert report.signal_per_pulse == pytest.approx(0.03, rel=1e-12)
        assert report.saturation_cps == 40_000.0

    def test_long_dead_time_kills_feasibility(self):
        report = feasibility_report(ChannelParams(dead_time_s=1.0))
        assert report.saturation_cps == 1.0
        assert not report.feasible

    def test_background_dominating_signal_kills_feasibility(self):
        # crank the loss until the per-pulse signal sinks under the background
        report = feasibility_report(ChannelParams(loss_db=80.0))
        assert report.signal_per_pulse < report.background_per_pulse
        assert not report.feasible

    def test_stray_load_saturation_kills_feasibility(self):
        report = feasibility_report(ChannelParams(background_rate_cps=50_000.0))
        assert not report.feasible

    def test_observed_rate_rounding_to_saturation_kills_feasibility(self):
        # the dead-time response stays below 1/dead_time only in exact
        # arithmetic: at an extreme incident rate it rounds to saturation,
        # and the total < saturation term alone makes the verdict
        report = feasibility_report(ChannelParams(mean_photon_mu=1e15, loss_db=0.0))
        assert report.total_rate_cps == report.saturation_cps == 40_000.0
        assert report.signal_per_pulse > report.background_per_pulse
        assert not report.feasible

    @given(
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=200)
    def test_raising_loss_or_background_never_helps(self, loss_db, extra_db):
        base = feasibility_report(ChannelParams(loss_db=loss_db))
        worse_loss = feasibility_report(ChannelParams(loss_db=loss_db + extra_db))
        if not base.feasible:
            assert not worse_loss.feasible
        params = ChannelParams(loss_db=loss_db)
        more_background = dataclasses.replace(
            params, background_rate_cps=params.background_rate_cps * (1.0 + extra_db)
        )
        worse_background = feasibility_report(more_background)
        if not base.feasible:
            assert not worse_background.feasible

    @given(
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1e6, max_value=1e10),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=1e-7, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_report_internal_consistency(self, loss, eta, dark, bg, rep, mu, dead):
        params = ChannelParams(
            loss_db=loss,
            det_efficiency=eta,
            dark_rate_cps=dark,
            background_rate_cps=bg,
            rep_rate_hz=rep,
            mean_photon_mu=mu,
            dead_time_s=dead,
        )
        report = feasibility_report(params)
        if report.feasible:
            assert report.total_rate_cps < report.saturation_cps
            assert report.signal_per_pulse > report.background_per_pulse

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ChannelParams(det_efficiency=0.0)
        with pytest.raises(ValueError):
            ChannelParams(loss_db=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(dead_time_s=0.0)
        with pytest.raises(ValueError):
            ChannelParams(rep_rate_hz=0.0)
        with pytest.raises(ValueError):
            ChannelParams(mean_photon_mu=0.0)

    @pytest.mark.parametrize("name", ["dark_rate_cps", "background_rate_cps"])
    def test_negative_count_rate_rejected(self, name):
        with pytest.raises(ValueError, match=r"^count rates must be >= 0$"):
            ChannelParams(**{name: -1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ChannelParams)])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"ChannelParams.{name} must be finite"):
            ChannelParams(**{name: value})


class TestRendering:
    def test_text_report_is_aligned(self):
        text = report_text(feasibility_report(ChannelParams()))
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[-1].startswith("feasible")
        assert "yes" in lines[-1]

    def test_csv_report(self):
        csv = report_csv(feasibility_report(ChannelParams()))
        header, row, _ = csv.split("\n")
        assert header.split(",")[0] == "background_per_pulse"
        assert row.split(",")[-1] == "true"

    def test_infeasible_report_bytes(self):
        # the stray load (90 kcps) is past saturation (40 kcps): each renderer's
        # every byte, the "no"/"false" verdict and a repr that is not .6g included
        report = _report(background_rate_cps=90000.0)
        assert report_text(report) == (
            "background_per_pulse  9e-05\n"
            "signal_per_pulse      0.03\n"
            "total_rate_cps        39946.9\n"
            "saturation_cps        40000\n"
            "feasible              no"
        )
        assert report_csv(report) == (
            "background_per_pulse,signal_per_pulse,total_rate_cps,saturation_cps,feasible\n"
            "9e-05,0.030000000000000006,39946.897402761926,40000.0,false\n"
        )
