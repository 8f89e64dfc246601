import numpy as np
import pytest
from scipy.stats import norm, spearmanr

from changepoint_rul.config import PipelineConfig
from changepoint_rul.errors import ConfigError, InsufficientDataError
from changepoint_rul.monitoring import (
    StatisticSeries,
    compute_lambda,
    compute_statistics,
    detect_change_point,
    fit_device_monitor,
    kde_control_limit,
    statistic_trace,
    validate_normal_window,
    validation_report,
)

from synthetic import make_engine_series


def brute_force_suffix_start(values, cl, start_cycle):
    """Independent oracle: smallest k with values >= cl from k through the end."""
    n = len(values)
    for i in range(n):
        if all(values[j] >= cl for j in range(i, n)):
            return start_cycle + i
    return None


def brute_force_longest_run(mask):
    best = 0
    for i in range(len(mask)):
        run = 0
        for j in range(i, len(mask)):
            if mask[j]:
                run += 1
            else:
                break
        best = max(best, run)
    return best


class TestComputeStatistics:
    def test_sum_of_squares(self):
        stats = compute_statistics(np.array([[3.0], [4.0]]), np.array([[0.0], [0.0]]))
        assert stats.t2[0] == pytest.approx(25.0)

    def test_zero_residuals(self):
        stats = compute_statistics(np.ones((2, 5)), np.zeros((4, 5)))
        assert np.all(stats.q == 0.0)

    def test_two_arithmetic_routes_agree(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 40))
        e = rng.normal(size=(10, 40))
        stats = compute_statistics(z, e)
        t2_norm = np.linalg.norm(z, axis=0) ** 2
        q_norm = np.linalg.norm(e, axis=0) ** 2
        np.testing.assert_allclose(stats.t2, t2_norm, atol=1e-12)
        np.testing.assert_allclose(stats.q, q_norm, atol=1e-12)


class TestKdeControlLimit:
    def test_standard_normal_quantile(self):
        rng = np.random.default_rng(123)
        samples = rng.normal(size=100_000)
        cl = kde_control_limit(samples, 0.99)
        assert cl == pytest.approx(norm.ppf(0.99), abs=0.05)

    def test_degenerate_samples(self):
        with pytest.warns(UserWarning, match="degenerate"):
            cl = kde_control_limit(np.full(50, 5.0), 0.99)
        assert cl > 5.0
        assert cl == pytest.approx(5.0, abs=1e-3)

    def test_monotone_in_alpha(self):
        samples = np.random.default_rng(7).gamma(shape=3.0, size=500)
        assert kde_control_limit(samples, 0.95) < kde_control_limit(samples, 0.99)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            kde_control_limit(np.arange(10.0), 0.99)

    def test_alpha_range(self):
        samples = np.arange(100.0)
        with pytest.raises(ConfigError):
            kde_control_limit(samples, 0.4)
        with pytest.raises(ConfigError):
            kde_control_limit(samples, 1.0)


class TestLambda:
    def test_no_breaches(self):
        stats = StatisticSeries(t2=np.zeros(10), q=np.zeros(10), start_cycle=1)
        assert compute_lambda(stats, 1.0, 1.0) == 0

    def test_run_length_definition(self):
        t2 = np.array([0.0, 9.0, 9.0, 9.0, 0.0])
        stats = StatisticSeries(t2=t2, q=np.zeros(5), start_cycle=1)
        assert compute_lambda(stats, 5.0, 5.0) == 3

    def test_matches_brute_force_on_random_sequences(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            t2 = rng.random(n)
            q = rng.random(n)
            cl_t2, cl_q = 0.6, 0.7
            stats = StatisticSeries(t2=t2, q=q, start_cycle=1)
            expected = max(
                brute_force_longest_run(t2 >= cl_t2), brute_force_longest_run(q >= cl_q)
            )
            assert compute_lambda(stats, cl_t2, cl_q) == expected


class TestDetectChangePoint:
    def test_spec_suffix_example(self):
        t2 = np.array([1.0, 1.0, 9.0, 1.0, 9.0, 9.0, 9.0])
        stats = StatisticSeries(t2=t2, q=np.zeros(7), start_cycle=1)
        result = detect_change_point(stats, 5.0, 1e9, k_max=7)
        assert result.k_t2_cp == 5
        assert result.k_cp == 5

    def test_all_below_no_change_point(self):
        stats = StatisticSeries(t2=np.zeros(30), q=np.zeros(30), start_cycle=10)
        result = detect_change_point(stats, 1.0, 1.0, k_max=39)
        assert result.k_cp is None
        assert result.method == "fallback_cap"

    def test_earlier_candidate_selected(self):
        t2 = np.array([0.0, 0.0, 2.0, 2.0, 2.0])
        q = np.array([0.0, 0.0, 0.0, 2.0, 2.0])
        stats = StatisticSeries(t2=t2, q=q, start_cycle=1)
        result = detect_change_point(stats, 1.0, 1.0, k_max=5)
        assert result.k_t2_cp == 3
        assert result.k_q_cp == 4
        assert result.k_cp == 3

    def test_matches_brute_force_on_random_sequences(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            start = int(rng.integers(1, 100))
            t2 = rng.random(n)
            q = rng.random(n)
            stats = StatisticSeries(t2=t2, q=q, start_cycle=start)
            result = detect_change_point(stats, 0.7, 0.8, k_max=start + n - 1)
            assert result.k_t2_cp == brute_force_suffix_start(t2, 0.7, start)
            assert result.k_q_cp == brute_force_suffix_start(q, 0.8, start)

    def test_prepending_non_breaching_cycles_invariant(self):
        rng = np.random.default_rng(5)
        t2 = rng.random(20) * 2.0
        q = rng.random(20) * 2.0
        stats = StatisticSeries(t2=t2, q=q, start_cycle=21)
        base = detect_change_point(stats, 1.5, 1.5, k_max=40)
        prefixed = StatisticSeries(
            t2=np.concatenate([np.zeros(20), t2]),
            q=np.concatenate([np.zeros(20), q]),
            start_cycle=1,
        )
        extended = detect_change_point(prefixed, 1.5, 1.5, k_max=40)
        assert extended.k_cp == base.k_cp
        assert extended.k_t2_cp == base.k_t2_cp

    def test_raising_limit_only_delays_or_removes(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            t2 = rng.random(30) * 3.0
            stats = StatisticSeries(t2=t2, q=np.zeros(30), start_cycle=1)
            low = detect_change_point(stats, 1.0, 1e9, k_max=30).k_t2_cp
            high = detect_change_point(stats, 2.0, 1e9, k_max=30).k_t2_cp
            if high is not None:
                assert low is not None
                assert high >= low

    def test_length_must_reach_k_max(self):
        stats = StatisticSeries(t2=np.zeros(5), q=np.zeros(5), start_cycle=1)
        with pytest.raises(InsufficientDataError):
            detect_change_point(stats, 1.0, 1.0, k_max=9)


class TestValidateNormalWindow:
    def test_all_below_passes(self):
        series = make_engine_series(1, 260, None, seed=20, n_channels=5)
        cfg = PipelineConfig(r=5)
        monitor, _ = fit_device_monitor(series, cfg)
        stats = StatisticSeries(t2=np.zeros(20), q=np.zeros(20), start_cycle=61)
        report = validate_normal_window(monitor, stats)
        assert report.t2_breach_fraction == 0.0
        assert not report.flagged

    def test_injected_validation_drift_flags(self):
        series = make_engine_series(1, 260, None, seed=21, n_channels=5)
        cfg = PipelineConfig(r=5)
        monitor, _ = fit_device_monitor(series, cfg)
        sensors = series.sensors.copy()
        sensors[60:80] += 8.0  # drift through the whole validation window
        stats = statistic_trace(monitor, sensors).slice_cycles(61, 80)
        report = validate_normal_window(monitor, stats)
        assert report.flagged

    def test_normal_validation_mostly_below(self):
        flags = []
        for seed in range(8):
            series = make_engine_series(1, 250, None, seed=30 + seed, n_channels=5)
            cfg = PipelineConfig(r=5)
            monitor, _ = fit_device_monitor(series, cfg)
            report = validation_report(monitor, series, cfg)
            flags.append(report.flagged)
        assert sum(flags) <= 2  # occasional flags allowed, most devices clean


class TestFitDeviceMonitor:
    def test_short_engine_signals_fallback(self):
        from changepoint_rul.pipeline import detect_device

        series = make_engine_series(9, 150, None, seed=1, n_channels=5)
        cfg = PipelineConfig(r=5, min_lifespan=200)
        monitor, _ = fit_device_monitor(series, cfg)  # long enough to monitor
        assert monitor.persistence >= 0
        outcome = detect_device(series, cfg)  # but below the minimum lifespan
        assert outcome.method == "fallback_cap"
        assert outcome.monitor is None and outcome.k_cp is None and not outcome.flagged

    def test_stationary_engine_detects_nothing(self):
        series = make_engine_series(2, 250, None, seed=20, n_channels=5)
        _, result = fit_device_monitor(series, PipelineConfig(r=5))
        assert result.k_cp is None
        assert result.method == "fallback_cap"

    def test_injected_change_point_found(self):
        series = make_engine_series(3, 320, 240, seed=4, n_channels=5)
        monitor, result = fit_device_monitor(series, PipelineConfig(r=5))
        assert result.method == "detected"
        assert abs(result.k_cp - 240) <= monitor.persistence + 5

    def test_training_statistics_mostly_below_limits(self):
        series = make_engine_series(4, 260, None, seed=22, n_channels=5)
        cfg = PipelineConfig(r=5)
        monitor, _ = fit_device_monitor(series, cfg)
        stats = statistic_trace(monitor, series.sensors).slice_cycles(3, 60)
        frac_t2 = np.mean(stats.t2 < monitor.cl_t2)
        frac_q = np.mean(stats.q < monitor.cl_q)
        assert cfg.alpha - 0.03 <= frac_t2 <= 1.0
        assert cfg.alpha - 0.03 <= frac_q <= 1.0

    @pytest.mark.parametrize(
        "n_channels,r,seed,k_cp",
        [
            (5, 5, 1, None),
            (14, 15, 15, None),
            (14, 15, 22, 240),
            (16, 21, 2, 240),
            (16, 21, 136, 240),
        ],
    )
    def test_limits_are_kde_of_in_sample_trace(self, n_channels, r, seed, k_cp):
        # in-sample columns of the normal window: cycles p+1 .. normal_window - p + 1.
        # With some BLAS builds, all but the first seed give a limit that differs
        # in its last bit when the normal window's columns are projected alone.
        series = make_engine_series(7, 320, k_cp, seed=seed, n_channels=n_channels)
        cfg = PipelineConfig(r=r)
        monitor, _ = fit_device_monitor(series, cfg)
        stats = statistic_trace(monitor, series.sensors)
        in_sample = stats.slice_cycles(cfg.p + 1, cfg.normal_window - cfg.p + 1)
        assert monitor.cl_t2 == kde_control_limit(in_sample.t2, cfg.alpha)
        assert monitor.cl_q == kde_control_limit(in_sample.q, cfg.alpha)

    def test_persistence_covers_pre_change_runs(self):
        series = make_engine_series(5, 300, 230, seed=6, n_channels=5)
        cfg = PipelineConfig(r=5)
        monitor, result = fit_device_monitor(series, cfg)
        stats = statistic_trace(monitor, series.sensors)
        pre = stats.slice_cycles(3, result.k_cp - 1)
        assert monitor.persistence == compute_lambda(pre, monitor.cl_t2, monitor.cl_q)

    def test_detected_points_track_lifespan(self):
        # later change points for longer-lived devices, in rank correlation
        lifespans, points = [], []
        for i in range(14):
            k_max = 215 + 11 * i
            k_cp = k_max - (50 + 2 * i)
            series = make_engine_series(i, k_max, k_cp, seed=60 + i, n_channels=5)
            _, result = fit_device_monitor(series, PipelineConfig(r=5))
            if result.k_cp is not None:
                lifespans.append(k_max)
                points.append(result.k_cp)
        assert len(points) >= 12
        rho = spearmanr(lifespans, points).statistic
        assert rho > 0.5

    def test_monitor_serialization_round_trip(self):
        from changepoint_rul.monitoring import MonitorModel

        series = make_engine_series(6, 260, 210, seed=8, n_channels=5)
        monitor, _ = fit_device_monitor(series, PipelineConfig(r=5))
        clone = MonitorModel.from_dict(monitor.to_dict())
        assert clone.cl_t2 == monitor.cl_t2
        assert clone.persistence == monitor.persistence
        s1 = statistic_trace(monitor, series.sensors)
        s2 = statistic_trace(clone, series.sensors)
        np.testing.assert_allclose(s1.t2, s2.t2)
        np.testing.assert_allclose(s1.q, s2.q)
