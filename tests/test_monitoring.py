import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import norm, spearmanr

from changepoint_rul import monitoring
from changepoint_rul.config import PipelineConfig
from changepoint_rul.cva import fit_standardizer
from changepoint_rul.errors import ConfigError, InsufficientDataError, ShapeError
from changepoint_rul.monitoring import (
    StatisticSeries,
    compute_lambda,
    compute_statistics,
    detect_change_point,
    fit_device_monitors,
    kde_control_limit,
    statistic_trace,
)

from synthetic import make_engine_series

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # only the property tests need Hypothesis
    st = None


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


def kde_limit(samples, alpha):
    """The control limit of one sample, as the one-row stack gives it."""
    return kde_control_limit(np.asarray(samples)[None], alpha)[0]


class TestKdeControlLimit:
    def test_standard_normal_quantile(self):
        rng = np.random.default_rng(123)
        samples = rng.normal(size=100_000)
        cl = kde_limit(samples, 0.99)
        assert cl == pytest.approx(norm.ppf(0.99), abs=0.05)

    def test_degenerate_samples(self):
        # 57 copies of 56/57 have a mean that rounds away from them, so a positive deviation
        for value, n in [(5.0, 50), (56 / 57, 57)]:
            with pytest.warns(UserWarning, match="degenerate"):
                cl = kde_limit(np.full(n, value), 0.99)
            assert cl > value
            assert cl == pytest.approx(value, abs=1e-3)

    def test_monotone_in_alpha(self):
        samples = np.random.default_rng(7).gamma(shape=3.0, size=500)
        assert kde_limit(samples, 0.95) < kde_limit(samples, 0.99)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            kde_limit(np.arange(10.0), 0.99)

    def test_alpha_range(self):
        samples = np.arange(100.0)
        with pytest.raises(ConfigError):
            kde_limit(samples, 0.4)
        with pytest.raises(ConfigError):
            kde_limit(samples, 1.0)

    @pytest.mark.parametrize("shape", [(100,), (2, 3, 40)])
    def test_only_a_stack_of_rows_is_accepted(self, shape):
        with pytest.raises(ShapeError, match="stack"):
            kde_control_limit(np.ones(shape), 0.99)

    def test_rows_of_a_stack_stop_on_their_own_width(self, monkeypatch):
        base = np.random.default_rng(8).gamma(shape=2.0, size=60)
        stack = np.stack([base * 1e-3, base, base * 1e4 + 5e6, base + 1e9])
        calls = []
        kde_cdf = monitoring.kde_cdf
        monkeypatch.setattr(monitoring, "kde_cdf", lambda *a: calls.append(1) or kde_cdf(*a))
        alone = []
        for row in stack:
            calls.clear()
            alone.append((kde_limit(row, 0.99), len(calls)))
        assert len({n for _, n in alone}) == len(stack)  # each row bisects a different number of times
        assert kde_control_limit(stack, 0.99).tolist() == [limit for limit, _ in alone]


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


class TestFitDeviceMonitor:
    def test_short_engine_signals_fallback(self):
        from changepoint_rul.pipeline import run_detect

        series = make_engine_series(9, 150, None, seed=1, n_channels=5)
        cfg = PipelineConfig(r=5, min_lifespan=200)
        monitor = fit_device_monitors([series], cfg)[0].monitor  # long enough to monitor
        assert monitor.persistence >= 0
        [outcome], _ = run_detect(cfg, engines=[series], write=False)  # but short of min_lifespan
        assert outcome.method == "fallback_cap"
        assert outcome.monitor is None and outcome.k_cp is None and not outcome.flagged

    def test_stationary_engine_detects_nothing(self):
        series = make_engine_series(2, 250, None, seed=20, n_channels=5)
        result = fit_device_monitors([series], PipelineConfig(r=5))[0]
        assert result.k_cp is None
        assert result.method == "fallback_cap"

    def test_injected_change_point_found(self):
        series = make_engine_series(3, 320, 240, seed=4, n_channels=5)
        result = fit_device_monitors([series], PipelineConfig(r=5))[0]
        monitor = result.monitor
        assert result.method == "detected"
        assert abs(result.k_cp - 240) <= monitor.persistence + 5

    def test_training_statistics_mostly_below_limits(self):
        series = make_engine_series(4, 260, None, seed=22, n_channels=5)
        cfg = PipelineConfig(r=5)
        monitor = fit_device_monitors([series], cfg)[0].monitor
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
        monitor = fit_device_monitors([series], cfg)[0].monitor
        stats = statistic_trace(monitor, series.sensors)
        in_sample = stats.slice_cycles(cfg.p + 1, cfg.normal_window - cfg.p + 1)
        assert monitor.cl_t2 == kde_limit(in_sample.t2, cfg.alpha)
        assert monitor.cl_q == kde_limit(in_sample.q, cfg.alpha)

    def test_persistence_covers_pre_change_runs(self):
        series = make_engine_series(5, 300, 230, seed=6, n_channels=5)
        cfg = PipelineConfig(r=5)
        result = fit_device_monitors([series], cfg)[0]
        monitor = result.monitor
        stats = statistic_trace(monitor, series.sensors)
        pre = stats.slice_cycles(3, result.k_cp - 1)
        assert monitor.persistence == compute_lambda(pre, monitor.cl_t2, monitor.cl_q)

    def test_monitor_serialization_round_trip(self, tmp_path):
        from changepoint_rul.monitoring import load_monitors, save_monitors

        series = make_engine_series(6, 260, 210, seed=8, n_channels=5)
        cfg = PipelineConfig(r=5)
        monitor = fit_device_monitors([series], cfg)[0].monitor
        save_monitors(str(tmp_path), cfg, range(1, 6), {6: monitor})
        clones, manifest = load_monitors(str(tmp_path))
        assert list(clones) == manifest["units"] == [6]
        clone = clones[6]
        assert clone.cl_t2 == monitor.cl_t2 and clone.cl_q == monitor.cl_q
        assert clone.persistence == monitor.persistence
        s1 = statistic_trace(monitor, series.sensors)
        s2 = statistic_trace(clone, series.sensors)
        np.testing.assert_array_equal(s1.t2, s2.t2)
        np.testing.assert_array_equal(s1.q, s2.q)

    def test_detected_points_track_lifespan(self):
        # later change points for longer-lived devices, in rank correlation
        lifespans, points = [], []
        for i in range(14):
            k_max = 215 + 11 * i
            k_cp = k_max - (50 + 2 * i)
            series = make_engine_series(i, k_max, k_cp, seed=60 + i, n_channels=5)
            result = fit_device_monitors([series], PipelineConfig(r=5))[0]
            if result.k_cp is not None:
                lifespans.append(k_max)
                points.append(result.k_cp)
        assert len(points) >= 12
        rho = spearmanr(lifespans, points).statistic
        assert rho > 0.5


def fleet_with_edge_cases():
    """Engines of five channels: detected, fallback for either reason, flagged,
    one constant channel in two engines, and an alternating normal window whose
    two statistics have zero spread."""
    fleet = [
        make_engine_series(1, 260, 200, seed=31, n_channels=5),
        make_engine_series(2, 150, None, seed=32, n_channels=5),  # below the minimum lifespan
        make_engine_series(3, 70, None, seed=33, n_channels=5),  # no cycle left to monitor
        make_engine_series(4, 280, 75, seed=34, n_channels=5),  # drifts in validation: flagged
        make_engine_series(5, 300, None, seed=35, n_channels=5),
        make_engine_series(6, 240, 190, seed=36, n_channels=5),
    ]
    for unit, channel in ((7, 2), (8, 0)):
        series = make_engine_series(unit, 250 + unit, None, seed=30 + unit, n_channels=5)
        sensors = series.sensors.copy()
        sensors[:, channel] = 3.0
        fleet.append(replace(series, sensors=sensors))
    series = make_engine_series(9, 230, None, seed=39, n_channels=5)
    sensors = series.sensors.copy()
    signs = np.where(np.arange(60) % 2, -1.0, 1.0)[:, None]
    sensors[:60] = signs * np.array([1.0, 2.0, 0.5, 3.0, 1.25])
    fleet.append(replace(series, sensors=sensors))
    return fleet


def detect_recording_warnings(cfg, engines):
    from changepoint_rul.pipeline import run_detect

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes, _ = run_detect(cfg, engines=engines, write=False)
    return outcomes, [(w.category, str(w.message)) for w in caught]


MONITOR_ARRAYS = ("w", "vr", "singular_values", "j", "j_res")


def test_fleet_fit_equals_fitting_each_engine_alone():
    cfg = PipelineConfig(r=5)
    fleet = fleet_with_edge_cases()
    together, fleet_warnings = detect_recording_warnings(cfg, fleet)
    alone, alone_warnings = [], []
    for series in fleet:
        [outcome], caught = detect_recording_warnings(cfg, [series])
        alone.append(outcome)
        alone_warnings += caught
    assert [o.monitor is not None for o in together] == [True, False, False] + [True] * 6
    assert [o.k_cp is not None for o in together] == [True, False, False] + [True] * 3 + [False, False, True]
    assert [o.flagged for o in together] == [False, False, False, True] + [False] * 4 + [True]
    for series, a, b in zip(fleet, together, alone):
        for field in fields(a):
            if field.name != "monitor":
                assert getattr(a, field.name) == getattr(b, field.name), (a.unit_id, field.name)
        assert (a.monitor is None) == (b.monitor is None)
        if a.monitor is None:
            continue
        assert (a.monitor.cl_t2, a.monitor.cl_q, a.monitor.persistence) == (
            b.monitor.cl_t2, b.monitor.cl_q, b.monitor.persistence)
        pairs = [(getattr(a.monitor.cva, n), getattr(b.monitor.cva, n)) for n in MONITOR_ARRAYS]
        pairs += [(getattr(a.monitor.cva.standardizer, n), getattr(b.monitor.cva.standardizer, n))
                  for n in ("mean", "std")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the constant channels
            single = fit_standardizer(series.sensors[: cfg.normal_window].T)
        pairs += [(single.mean, a.monitor.cva.standardizer.mean),  # a series' own layout sums
                  (single.std, a.monitor.cva.standardizer.std)]  # in the stack's order
        for x, y in pairs:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), a.unit_id
    assert Counter(fleet_warnings) == Counter(alone_warnings)
    texts = Counter(text.split(",")[0].split(";")[0] for _, text in fleet_warnings)
    assert texts["1 zero-variance channel(s)"] == 2  # once per engine with a constant channel
    assert texts["degenerate statistic sample (zero spread)"] == 2  # engine 9's T2 and Q


def plain_longest_run(mask):
    longest = current = 0
    for breached in mask:
        current = current + 1 if breached else 0
        longest = max(longest, current)
    return longest


if st is not None:
    masks = st.lists(st.booleans(), max_size=80)

    @given(masks, masks)
    def test_lambda_equals_a_plain_loop(t2_mask, q_mask):
        n = min(len(t2_mask), len(q_mask))
        for t2, q in ((t2_mask[:n], q_mask[:n]), ([], []), ([True] * n, [False] * n)):
            stats = StatisticSeries(t2=np.array(t2, float), q=np.array(q, float), start_cycle=1)
            expected = max(plain_longest_run(t2), plain_longest_run(q))
            assert compute_lambda(stats, 0.5, 0.5) == expected

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.sampled_from([1e-6, 1e-2, 1.0, 1e3, 1e7]),
                           st.floats(-1e8, 1e8)), min_size=1, max_size=6),
        st.integers(30, 90),
        st.sampled_from([0.9, 0.95, 0.99, 0.999]),
        st.integers(-1, 5),
    )
    def test_kde_stack_equals_each_row_alone(seed, scales, n, alpha, constant):
        rng = np.random.default_rng(seed)
        stack = np.stack([loc + scale * rng.gamma(2.0, size=n) for scale, loc in scales])
        if 0 <= constant < len(stack):
            stack[constant] = np.round(stack[constant, 0])  # summed exactly: zero spread
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone = [kde_limit(row, alpha) for row in stack]
            n_alone = len(caught)
            limits = kde_control_limit(stack, alpha)
        assert limits.tolist() == alone
        assert len(caught) - n_alone == n_alone == int(0 <= constant < len(stack))


def looped_breach_start(values, cl, start_cycle):
    """The scan as a plain walk back from the end of life: a nan ends the run."""
    idx = len(values)
    while idx > 0 and values[idx - 1] >= cl:
        idx -= 1
    if idx == len(values):
        return None
    return start_cycle + idx


if st is not None:
    statistic_values = st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, np.nan, np.inf]) | st.floats(allow_nan=True), max_size=60
    )

    @given(statistic_values, st.sampled_from([0.5, 1.0, np.inf, np.nan]), st.integers(1, 10))
    def test_breach_start_equals_the_plain_loop(values, cl, start_cycle):
        n = len(values)
        for case in (values, [], [2.0] * n, [0.0] * n, values + [2.0, 2.0]):
            series = np.array(case, dtype=float)
            got = monitoring._permanent_breach_start(series, cl, start_cycle)
            assert got == looped_breach_start(series, cl, start_cycle)
            assert got is None or type(got) is int  # json.dump refuses numpy ints
