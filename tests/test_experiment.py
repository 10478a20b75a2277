import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from timecloak import experiment
from timecloak.config import ExperimentConfig, HopConfig, build_experiment_config
from timecloak.experiment import (
    DEFAULT_SWEEP_BOUND_DEG,
    build_schedule,
    calibration_window,
    emit_outputs,
    run_experiment,
    sweep_noise_models,
)
from timecloak.keys import KeyExhaustedError, mock_qkd_source, save_keys
from timecloak.noise import NoiseKind, apply_schedule, generate_schedule
from timecloak.stability import (
    NoiseClass,
    TimeErrorSeries,
    classify_noise,
    fit_loglog_slope,
    overlapping_adev,
)
from timecloak.tables import CHUNK_ROWS, csv_text
from timecloak.wrptp import run_sync_session


def _config(**kwargs) -> ExperimentConfig:
    defaults = dict(duration_s=400 * 5.0, seed=1, key_seed=1)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


BIASED_HOPS = dict(
    hop1=HopConfig(delay_forward_ns=50, delay_backward_ns=50, bias_ns=100.0),
    hop2=HopConfig(delay_forward_ns=75, delay_backward_ns=75, bias_ns=29.188),
)


class TestRunExperiment:
    def test_noiseless_decrypted_path_is_flat_at_bias(self):
        cfg = _config(tic_jitter_ns=0.0, **BIASED_HOPS)
        result = run_experiment(cfg)
        total_bias = 129.188
        assert np.allclose(result.tic1_series.samples_ns, total_bias, atol=1e-9)

    def test_encrypted_path_spreads_above_bias(self):
        cfg = _config(tic_jitter_ns=0.0, **BIASED_HOPS)
        result = run_experiment(cfg)
        excess = result.tic2_series.samples_ns - 129.188
        assert excess.min() >= -1e-9
        assert excess.max() <= 255.0 / 4.0 / 360.0 * 100.0 + 1e-9
        # a full-range key spreads over most of the interval
        assert excess.max() > 15.0

    def test_series_share_metadata(self):
        result = run_experiment(_config())
        assert len(result.tic1_series) == len(result.tic2_series) == 400
        assert result.tic1_series.tau0_s == result.tic2_series.tau0_s == 5.0

    def test_summary_fields(self):
        result = run_experiment(_config(**BIASED_HOPS))
        assert result.summary.calib_bias_total_ns == pytest.approx(129.188)
        assert result.summary.tic2_std_ns > result.summary.tic1_std_ns
        assert result.summary.adev_ratio_tau0 > 10

    def test_deterministic_given_seeds(self):
        a = run_experiment(_config())
        b = run_experiment(_config())
        assert np.array_equal(a.tic1_series.samples_ns, b.tic1_series.samples_ns)
        assert np.array_equal(a.tic2_series.samples_ns, b.tic2_series.samples_ns)

    def test_key_file_source(self, tmp_path):
        cfg = _config()
        needed = 2 * cfg.n_steps
        path = tmp_path / "exp.hex"
        save_keys(mock_qkd_source(cfg.key_seed, needed), path)
        from_file = replace(cfg, key_source="file", key_path=str(path))
        assert np.array_equal(
            run_experiment(from_file).tic2_series.samples_ns,
            run_experiment(cfg).tic2_series.samples_ns,
        )

    def test_key_exhaustion_surfaces(self, tmp_path):
        path = tmp_path / "short.hex"
        save_keys(mock_qkd_source(1, 10), path)
        cfg = _config(key_source="file", key_path=str(path))
        with pytest.raises(KeyExhaustedError):
            run_experiment(cfg)

    def test_overflowing_input_raises_instead_of_nan(self):
        # finite, but both Allan deviations overflow to inf, and inf / inf is invalid
        cfg = build_experiment_config({"hop1.bias_ns": "1e308", "duration_s": "50"})
        with pytest.raises(FloatingPointError):
            run_experiment(cfg)

    def test_wrong_key_looks_like_the_encrypted_path(self):
        # decrypting with an independent key must leave an Allan curve the
        # encrypted path's curve cannot be told apart from, while the right
        # key sits two orders of magnitude lower
        cfg = _config(duration_s=2000 * 5.0, **BIASED_HOPS)
        result = run_experiment(cfg)
        wrong_schedule = generate_schedule(
            mock_qkd_source(999, 2 * cfg.n_steps),
            cfg.model,
            cfg.n_steps,
            dwell_s=cfg.dwell_s,
            carrier_hz=cfg.carrier_hz,
        )
        wrong_tic1 = apply_schedule(result.tic2_series, wrong_schedule, -1)
        wrong_curve = overlapping_adev(wrong_tic1)
        ks = stats.ks_2samp(np.log10(wrong_curve.adev), np.log10(result.adev2.adev))
        assert ks.pvalue > 0.01
        # and the legitimate decryption is clearly distinguishable
        ratio = result.adev2.adev[0] / result.adev1.adev[0]
        assert ratio > 50


class TestCalibrationWindow:
    def test_noiseless_bias_recovery_is_exact(self):
        cfg = _config(calib_window_steps=50, tic_jitter_ns=0.0, **BIASED_HOPS)
        result = run_experiment(cfg)
        assert calibration_window(result) == pytest.approx(129.188)

    def test_window_zeroes_leading_schedule(self):
        cfg = _config(calib_window_steps=50)
        schedule = build_schedule(cfg)
        assert schedule.phases_deg[:50] == (0.0,) * 50
        assert any(p != 0.0 for p in schedule.phases_deg[50:])

    def test_noisy_bias_within_standard_error(self):
        jitter = 2.0
        window = 180
        cfg = _config(
            duration_s=400 * 5.0,
            calib_window_steps=window,
            tic_jitter_ns=jitter,
            hop1=HopConfig(jitter_ns=jitter, bias_ns=100.0),
        )
        result = run_experiment(cfg)
        estimate = calibration_window(result)
        # session jitter propagates to the residuals at sigma/sqrt(2)
        standard_error = jitter / math.sqrt(2.0) / math.sqrt(window)
        assert abs(estimate - 100.0) < 5.0 * standard_error + 0.5  # + quantization floor

    def test_zero_window_rejected(self):
        result = run_experiment(_config())
        with pytest.raises(ValueError, match="calib.window_steps"):
            calibration_window(result)


@pytest.fixture(scope="module")
def sweep_results():
    base = _config(duration_s=2000 * 5.0)
    return sweep_noise_models(base, ["rw", "rw_mem"], bounded_options=(False, True))


class TestSweep:
    def test_unbounded_walk_slope(self, sweep_results):
        slope = sweep_results[("rw", False)].summary.tic2_slope
        assert -0.65 <= slope <= -0.35

    def test_bounded_walk_turns_white_at_long_tau(self, sweep_results):
        curve = sweep_results[("rw", True)].adev2
        slope = fit_loglog_slope(curve, tau_range=(20 * 5.0, math.inf))
        assert classify_noise(slope) is NoiseClass.WHITE_PHASE

    def test_memory_walk_reverses_trend_at_its_depth(self, sweep_results):
        curve = sweep_results[("rw_mem", False)].adev2
        depth_tau = 10 * 5.0
        early = fit_loglog_slope(curve, tau_range=(0.0, depth_tau))
        late = fit_loglog_slope(curve, tau_range=(depth_tau, math.inf))
        assert early < late

    def test_shared_seeds_across_runs(self, sweep_results):
        a = sweep_results[("rw", False)].config
        b = sweep_results[("rw_mem", True)].config
        assert (a.seed, a.key_seed) == (b.seed, b.key_seed)

    def test_kind_strings_and_defaults(self, sweep_results):
        assert sweep_results[("rw_mem", False)].config.model.memory == 10
        assert sweep_results[("rw", True)].config.model.bound_deg == 360.0

    def test_configured_bound_reaches_bounded_runs(self):
        base = _config(duration_s=50 * 5.0)
        base = replace(base, model=replace(base.model, bound_deg=90.0))
        results = sweep_noise_models(base, ["rw"])
        bounded = results[("rw", True)]
        assert bounded.config.model.bound_deg == 90.0
        assert max(map(abs, bounded.schedule.phases_deg)) <= 90.0
        assert results[("rw", False)].config.model.bound_deg is None


    def test_repeated_and_aliased_kinds_run_once(self, monkeypatch):
        calls = []
        analyze = experiment._analyze

        def counting_run(config, *stage_inputs):
            calls.append((config.model.kind, config.model.bound_deg))
            return analyze(config, *stage_inputs)

        monkeypatch.setattr(experiment, "_analyze", counting_run)
        base = _config(duration_s=50 * 5.0)
        kinds = ["rw", "random_walk", NoiseKind.RANDOM_WALK, "white", "rw"]
        results = sweep_noise_models(base, kinds, (True, False, True))
        assert list(results) == [("rw", True), ("rw", False), ("white", True), ("white", False)]
        walk, white, bound = NoiseKind.RANDOM_WALK, NoiseKind.WHITE, DEFAULT_SWEEP_BOUND_DEG
        assert calls == [(walk, bound), (walk, None), (white, bound), (white, None)]

    def test_hops_are_simulated_once_per_sweep(self, monkeypatch):
        sessions = []

        def counting_session(hop, *args, **kwargs):
            sessions.append(hop)
            return run_sync_session(hop, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_sync_session", counting_session)
        base = _config(duration_s=50 * 5.0, **BIASED_HOPS)
        results = sweep_noise_models(base, ["white", "rw", "rw_mem"])
        assert len(results) == 6
        assert sessions == [base.hop1, base.hop2]

    def test_overflow_raises_for_library_callers(self):
        cfg = build_experiment_config({"calib.bias_ns": "1e308", "duration_s": "50"})
        with pytest.raises(FloatingPointError, match=r"^hop1 \+ hop2 time error: overflow"):
            sweep_noise_models(cfg, ["rw"])


class TestEmitOutputs:
    def test_file_set_and_row_counts(self, tmp_path):
        result = run_experiment(_config())
        written = emit_outputs(result, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == [
            "adev1.csv",
            "adev2.csv",
            "fig_adev.gp",
            "fig_delays.gp",
            "summary.txt",
            "tic1.csv",
            "tic2.csv",
        ]
        tic2 = (tmp_path / "out" / "tic2.csv").read_text().splitlines()
        assert len(tic2) == 1 + 400
        assert tic2[0] == "step_index,time_s,error_ns"

    def test_rerun_is_byte_identical(self, tmp_path):
        result_a = run_experiment(_config())
        result_b = run_experiment(_config())
        emit_outputs(result_a, tmp_path / "a")
        emit_outputs(result_b, tmp_path / "b")
        for name in ("tic1.csv", "tic2.csv", "adev1.csv", "adev2.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_summary_ratio_three_significant_digits(self, tmp_path):
        result = run_experiment(_config())
        emit_outputs(result, tmp_path / "out")
        summary = (tmp_path / "out" / "summary.txt").read_text()
        line = next(l for l in summary.splitlines() if l.startswith("adev_ratio_tau0"))
        value = line.split("=")[1].strip()
        assert value == f"{result.summary.adev_ratio_tau0:.3g}"

    def test_integer_dwell_writes_the_float_dwell_bytes(self, tmp_path):
        for name, dwell in (("int", 5), ("float", 5.0)):
            emit_outputs(run_experiment(_config(dwell_s=dwell)), tmp_path / name)
        for path in sorted((tmp_path / "float").iterdir()):
            assert (tmp_path / "int" / path.name).read_bytes() == path.read_bytes(), path.name
        assert (tmp_path / "int" / "tic1.csv").read_text().splitlines()[2].startswith("1,5.0,")

    @pytest.mark.parametrize("tau0", [5.0, 0.1])
    @pytest.mark.parametrize(
        "n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5]
    )
    def test_tic_files_match_csv_text(self, n, tau0, tmp_path):
        # the chunked series writer against one csv_text per series, the form
        # every other file is written in
        rng = np.random.default_rng(n)
        samples = rng.normal(0.0, 1e3, (2, n)) * 10.0 ** rng.integers(-20, 20, (2, n))
        samples[:, 0] = -0.0
        result = replace(
            run_experiment(_config()),
            tic1_series=TimeErrorSeries(samples[0], tau0),
            tic2_series=TimeErrorSeries(samples[1], tau0),
        )
        emit_outputs(result, tmp_path)
        for name, series in (("tic1.csv", result.tic1_series), ("tic2.csv", result.tic2_series)):
            steps = range(n)
            columns = (steps, [i * tau0 for i in steps], series.samples_ns.tolist())
            expected = csv_text("step_index,time_s,error_ns", *(map(repr, c) for c in columns))
            assert (tmp_path / name).read_text() == expected

    @pytest.mark.parametrize(
        "n, tau0",
        [(2, 2.0**52), (3, 2.0**52), (4, 2.0**52), (8, 2.0**50), (9, 2.0**50), (5, 2.5)],
    )
    def test_time_cells_are_repr_on_both_sides_of_2_53(self, n, tau0, tmp_path):
        # a whole tau0 writes its time cells from integers while (n - 1) * tau0 < 2**53;
        # at 3 * 2**52 > 1e16, repr writes an exponent, which the integer path would not
        series = TimeErrorSeries(np.zeros(n), tau0)
        result = replace(run_experiment(_config()), tic1_series=series, tic2_series=series)
        emit_outputs(result, tmp_path)
        rows = (tmp_path / "tic2.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [repr(i * tau0) for i in range(n)]

    @pytest.mark.parametrize("n2", [40, 60])
    def test_tic_columns_of_unequal_length_rejected(self, n2, tmp_path):
        # a shorter second column and a longer one, which a writer that walks
        # the first column's rows would cut without a word
        result = replace(
            run_experiment(_config()),
            tic1_series=TimeErrorSeries(np.zeros(50), 5.0),
            tic2_series=TimeErrorSeries(np.zeros(n2), 5.0),
        )
        with pytest.raises(ValueError, match=rf"^columns differ in length: 50 and {n2}$"):
            emit_outputs(result, tmp_path)
        assert not (tmp_path / "tic1.csv").exists()  # checked before any file is opened

    @pytest.mark.parametrize(
        "field, message",
        [("tic2_series", r"5\.0 and 1\.0"), ("tic1_series", r"1\.0 and 5\.0")],
        ids=["tic2", "tic1"],
    )
    def test_tic_series_of_unequal_tau0_rejected(self, field, message, tmp_path):
        # both files' time_s cells are written from one tau0, so one of them would
        # get 5 s steps for a 1 s series, or 1 s steps for a 5 s one
        result = replace(run_experiment(_config()), **{field: TimeErrorSeries(np.zeros(400), 1.0)})
        with pytest.raises(ValueError, match=rf"^tic series differ in tau0_s: {message}$"):
            emit_outputs(result, tmp_path / "out")
        assert not (tmp_path / "out").exists()  # checked before any file is opened

    def test_csv_line_endings(self, tmp_path):
        result = run_experiment(_config())
        emit_outputs(result, tmp_path / "out")
        raw = (tmp_path / "out" / "tic1.csv").read_bytes()
        assert b"\r" not in raw


class TestConfigValidation:
    def test_duration_must_align_with_dwell(self):
        with pytest.raises(ValueError):
            ExperimentConfig(duration_s=12.0, dwell_s=5.0)

    def test_window_must_leave_encrypted_steps(self):
        with pytest.raises(ValueError):
            ExperimentConfig(duration_s=50.0, dwell_s=5.0, calib_window_steps=10)

    def test_file_source_needs_path(self):
        with pytest.raises(ValueError):
            ExperimentConfig(key_source="file")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", [f.name for f in fields(ExperimentConfig) if f.type == "float"]
    )
    def test_non_finite_experiment_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            _config(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in fields(HopConfig) if f.type == "float"])
    def test_non_finite_hop_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HopConfig(**{field: value})

    @pytest.mark.parametrize("gain", [0.0, -0.5, 2.0, 2.5])
    def test_hop_gain_outside_stable_range_rejected(self, gain):
        with pytest.raises(ValueError, match="gain"):
            HopConfig(gain=gain)
