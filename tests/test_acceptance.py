"""Acceptance gate: every criterion prints one [PASS]/[FAIL] line.

Fast numeric oracles and the desk-scale synthetic integration always run.
Checks that need the real turbofan files locate them via CMAPSS_DATA_DIR or
./data and skip with an explicit reason when absent. Full-dataset
reproduction runs take hours and additionally require RUN_FULL_SCALE=1.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.stats import norm

from changepoint_rul.config import PipelineConfig, default_config
from changepoint_rul.cva import (
    apply_standardizer,
    build_lagged_matrices,
    fit_cva,
    fit_standardizer,
    project,
)
from changepoint_rul.labeling import piecewise_rul_labels
from changepoint_rul.lstm import init_regressor, iter_parameters, loss_and_gradients
from changepoint_rul.metrics import score_term
from changepoint_rul.monitoring import (
    StatisticSeries,
    compute_lambda,
    detect_change_point,
    fit_device_monitor,
    kde_control_limit,
)
from changepoint_rul.pipeline import constant_cap_report, run_detect, run_evaluate, run_sweep, run_train

from synthetic import make_engine_series, write_corpus
from test_monitoring import brute_force_longest_run, brute_force_suffix_start


def report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def cmapss_data_dir():
    candidates = [os.environ.get("CMAPSS_DATA_DIR"), os.path.join(os.getcwd(), "data")]
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "train_FD001.txt")):
            return cand
    return None


needs_real_data = pytest.mark.skipif(
    cmapss_data_dir() is None,
    reason="real turbofan files not found (set CMAPSS_DATA_DIR or place files in ./data)",
)
full_scale = pytest.mark.skipif(
    os.environ.get("RUN_FULL_SCALE") != "1",
    reason="hours-long reproduction; opt in with RUN_FULL_SCALE=1",
)


def test_cva_reconstruction_identity():
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(4, 250))
    s = fit_standardizer(x)
    lagged = build_lagged_matrices(apply_standardizer(s, x), 2)
    model = fit_cva(lagged, r=5, standardizer=s)
    x_new = rng.normal(size=(8, 60))
    z, e = project(model, x_new)
    lhs = model.w @ x_new
    rel = np.max(np.abs(lhs - (model.vr @ z + e))) / np.max(np.abs(lhs))
    report(rel < 1e-8, f"whitened past reconstructs from variates (rel err {rel:.2e})")


def test_canonical_correlation_bounds():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 500))
    s = fit_standardizer(x)
    lagged = build_lagged_matrices(apply_standardizer(s, x), 2)
    model = fit_cva(lagged, r=4)
    bounded = bool(np.all(model.singular_values >= 0) and np.all(model.singular_values <= 1 + 1e-6))

    from changepoint_rul.cva import LaggedMatrices

    xp = rng.normal(size=(3, 400))
    perfect = fit_cva(LaggedMatrices(xp=xp, xf=xp.copy(), p=1), r=2)
    leading = abs(perfect.singular_values[0] - 1.0) < 1e-6
    report(
        bounded and leading,
        f"singular values in [0, 1+1e-6]; perfectly correlated construction gives "
        f"{perfect.singular_values[0]:.8f}",
    )


def test_kde_control_limit_against_normal_quantile():
    rng = np.random.default_rng(31337)
    train = rng.normal(size=100_000)
    cl = kde_control_limit(train, 0.99)
    target = norm.ppf(0.99)
    held_out = rng.normal(size=100_000)
    coverage = float(np.mean(held_out < cl))
    ok = abs(cl - target) <= 0.05 and 0.985 <= coverage <= 0.995
    report(ok, f"KDE limit {cl:.4f} vs quantile {target:.4f}; held-out coverage {coverage:.4f}")


def test_change_point_and_persistence_match_brute_force():
    rng = np.random.default_rng(4096)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        start = int(rng.integers(1, 50))
        t2 = rng.random(n)
        q = rng.random(n)
        stats = StatisticSeries(t2=t2, q=q, start_cycle=start)
        result = detect_change_point(stats, 0.7, 0.75, k_max=start + n - 1)
        if result.k_t2_cp != brute_force_suffix_start(t2, 0.7, start):
            mismatches += 1
        if result.k_q_cp != brute_force_suffix_start(q, 0.75, start):
            mismatches += 1
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        t2 = rng.random(n)
        q = rng.random(n)
        stats = StatisticSeries(t2=t2, q=q, start_cycle=1)
        expected = max(
            brute_force_longest_run(t2 >= 0.6), brute_force_longest_run(q >= 0.65)
        )
        if compute_lambda(stats, 0.6, 0.65) != expected:
            mismatches += 1
    report(mismatches == 0, f"detector matches brute-force scans on 2000 sequences ({mismatches} mismatches)")


def test_lstm_gradient_check():
    rng = np.random.default_rng(555)
    model = init_regressor(6, (4, 3), (0.0,), seed=18)
    windows = rng.normal(size=(3, 5, 6))
    targets = rng.normal(size=3) * 5
    _, grads = loss_and_gradients(model, windows, targets)
    eps = 1e-5
    worst = 0.0
    for name, arr in iter_parameters(model):
        flat = arr.ravel()
        grad = grads[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = loss_and_gradients(model, windows, targets)
            flat[idx] = orig - eps
            down, _ = loss_and_gradients(model, windows, targets)
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / denom)
    report(worst < 1e-4, f"analytic gradients vs central differences (worst rel err {worst:.2e})")


def test_score_function_spot_values():
    checks = [
        score_term(0.0) == 0.0,
        abs(score_term(10.0) - (math.e - 1.0)) < 1e-9,
        abs(score_term(-13.0) - (math.e - 1.0)) < 1e-9,
        all(score_term(float(k)) > score_term(float(-k)) for k in range(1, 51)),
    ]
    report(all(checks), "score terms: d=0 -> 0, +10 and -13 -> e-1, overestimates penalized more")


def test_piecewise_label_shape():
    spec = piecewise_rul_labels(344, 240)
    diffs = np.diff(spec.labels)
    slope_starts = np.sum(np.diff((diffs == -1).astype(int)) == 1)
    ok = (
        spec.y_max == 104
        and np.all(diffs <= 0)
        and set(diffs.tolist()) == {0, -1}
        and slope_starts == 1
        and spec.labels[-1] == 0
    )
    report(ok, f"change point at 240 of 344 caps labels at {spec.y_max}; one slope change")


def test_synthetic_corpus_detection():
    cfg = PipelineConfig(p=2, r=5, alpha=0.99, min_lifespan=200)
    within = 0
    for i in range(30):
        k_max = 215 + 6 * i
        injected = k_max - (55 + 3 * i)
        series = make_engine_series(i + 1, k_max, injected, seed=1000 + i, n_channels=5)
        monitor, result = fit_device_monitor(series, cfg)
        if result.k_cp is not None and abs(result.k_cp - injected) <= monitor.persistence + 5:
            within += 1
    false_detections = 0
    for i in range(10):
        series = make_engine_series(i + 1, 250 + 7 * i, None, seed=20 + i, n_channels=5)
        _, result = fit_device_monitor(series, cfg)
        if result.k_cp is not None:
            false_detections += 1
    ok = within >= 27 and false_detections == 0
    report(
        ok,
        f"synthetic corpus: {within}/30 devices within persistence+5 of injected change "
        f"point; {false_detections} false detections on 10 stationary devices",
    )


def test_desk_scale_synthetic_pipeline(tmp_path):
    started = time.monotonic()
    data_dir = tmp_path / "data"
    write_corpus(data_dir, n_train=20, n_test=8, seed=11, short_every=5)
    cfg = default_config(
        "FD001",
        data_dir=str(data_dir),
        out_dir=str(tmp_path / "out"),
        sequence_length=30,
        hidden_sizes=(32, 16, 8),
        dropout_ratios=(0.1, 0.1),
        learning_rate=0.005,
        epochs=30,
        batch_size=64,
        seed=2,
    )
    outcomes, summary = run_detect(cfg)
    run_train(cfg, outcomes=outcomes)
    model_report = run_evaluate(cfg)
    baseline = constant_cap_report(cfg)
    elapsed = time.monotonic() - started
    ok = (
        summary["n_detected"] >= 10
        and model_report.rmse < baseline.rmse
        and elapsed < 600.0
    )
    report(
        ok,
        f"synthetic subset pipeline in {elapsed:.1f}s; "
        f"RMSE {model_report.rmse:.2f} vs constant-cap {baseline.rmse:.2f}",
    )


@needs_real_data
def test_desk_scale_fd001_subset(tmp_path):
    started = time.monotonic()
    cfg = default_config(
        "FD001",
        data_dir=cmapss_data_dir(),
        out_dir=str(tmp_path / "out"),
        subset=20,
        sequence_length=30,
        hidden_sizes=(32, 16, 8),
        dropout_ratios=(0.1, 0.1),
        epochs=30,
        seed=0,
    )
    outcomes, _ = run_detect(cfg)
    run_train(cfg, outcomes=outcomes)
    model_report = run_evaluate(cfg)
    baseline = constant_cap_report(cfg)
    elapsed = time.monotonic() - started
    ok = elapsed < 600.0 and model_report.rmse < baseline.rmse
    report(
        ok,
        f"FD001 20-engine subset in {elapsed:.1f}s; RMSE {model_report.rmse:.2f} "
        f"vs constant-cap {baseline.rmse:.2f}",
    )


@full_scale
@needs_real_data
@pytest.mark.full_scale
def test_full_fd001_and_fd004_reproduction(tmp_path):
    results = {}
    for dataset, rmse_ref, sf_ref in (("FD001", 13.59, 224.88), ("FD004", 18.69, 1360.34)):
        cfg = default_config(
            dataset,
            data_dir=cmapss_data_dir(),
            out_dir=str(tmp_path / dataset),
            seed=0,
        )
        outcomes, _ = run_detect(cfg)
        run_train(cfg, outcomes=outcomes)
        results[dataset] = (run_evaluate(cfg), rmse_ref, sf_ref)

    fd001, rmse_ref, sf_ref = results["FD001"]
    ok = abs(fd001.rmse - rmse_ref) <= 0.15 * rmse_ref and abs(fd001.sf - sf_ref) <= 0.40 * sf_ref
    fd004, rmse_ref4, _ = results["FD004"]
    ok = ok and abs(fd004.rmse - rmse_ref4) <= 0.15 * rmse_ref4

    # ablation: same pipeline with change points disabled must trail by >= 3%
    for dataset in ("FD002", "FD004"):
        cfg = default_config(
            dataset, data_dir=cmapss_data_dir(), out_dir=str(tmp_path / f"{dataset}_run"), seed=0
        )
        outcomes, _ = run_detect(cfg)
        run_train(cfg, outcomes=outcomes)
        informed = run_evaluate(cfg)
        ablated_cfg = default_config(
            dataset,
            data_dir=cmapss_data_dir(),
            out_dir=str(tmp_path / f"{dataset}_ablate"),
            seed=0,
            min_lifespan=10**6,  # nothing detected: fixed-cap labels everywhere
        )
        ab_outcomes, _ = run_detect(ablated_cfg)
        run_train(ablated_cfg, outcomes=ab_outcomes)
        ablated = run_evaluate(ablated_cfg)
        ok = ok and informed.rmse <= 0.97 * ablated.rmse
    report(ok, "full-dataset reproduction within stated tolerances")


@full_scale
@needs_real_data
@pytest.mark.full_scale
def test_min_lifespan_sweep_shape(tmp_path):
    cfg = default_config(
        "FD001", data_dir=cmapss_data_dir(), out_dir=str(tmp_path / "sweep"), seed=0
    )
    rows = run_sweep(cfg, [100, 125, 150, 175, 200, 225])
    by_cand = {r["min_lifespan"]: r for r in rows}
    ok = all(not by_cand[c]["applicable"] for c in (100, 125, 150))
    for c in (175, 200, 225):
        ok = ok and by_cand[c]["applicable"]
    if ok:
        ok = (
            by_cand[200]["rmse"] < by_cand[175]["rmse"]
            and by_cand[200]["rmse"] < by_cand[225]["rmse"]
        )
    report(ok, "minimum-lifespan sweep: 200 dominates 175 and 225; short thresholds NA")
