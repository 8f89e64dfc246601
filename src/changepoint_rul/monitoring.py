"""Monitoring statistics, KDE control limits, and change-point detection.

Per device: a canonical-variate model is fit on an initial normal-operation
window, control limits for the two monitoring statistics are estimated by
kernel density estimation at a one-sided confidence level, the following
validation window is checked against those limits, and the remaining cycles
are scanned for the first cycle whose statistic stays above its limit
through end of life.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .cmapss import EngineSeries
from .config import PipelineConfig
from .cva import (
    CvaModel,
    apply_standardizer,
    build_lagged_matrices,
    build_past_matrix,
    fit_cva,
    fit_standardizer,
    project,
)
from .errors import ConfigError, InsufficientDataError

KDE_MIN_SAMPLES = 30
# Relative width at which the control-limit bisection stops.
KDE_RTOL = 1e-6


@dataclass(frozen=True)
class StatisticSeries:
    """Per-cycle health statistics; index i corresponds to cycle start_cycle + i."""

    t2: np.ndarray
    q: np.ndarray
    start_cycle: int

    def __post_init__(self):
        if len(self.t2) != len(self.q):
            raise ValueError("t2 and q must have equal lengths")

    def __len__(self) -> int:
        return len(self.t2)

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + len(self.t2) - 1

    @property
    def cycles(self) -> np.ndarray:
        return np.arange(self.start_cycle, self.end_cycle + 1)

    def slice_cycles(self, first: int, last: int) -> "StatisticSeries":
        """Sub-series covering cycles first..last inclusive."""
        if first < self.start_cycle or last > self.end_cycle or first > last:
            raise InsufficientDataError(
                f"requested cycles {first}..{last} outside available "
                f"{self.start_cycle}..{self.end_cycle}"
            )
        lo = first - self.start_cycle
        hi = last - self.start_cycle + 1
        return StatisticSeries(t2=self.t2[lo:hi], q=self.q[lo:hi], start_cycle=first)


def compute_statistics(z: np.ndarray, e: np.ndarray, start_cycle: int = 1) -> StatisticSeries:
    """Column-wise sums of squares of the dominant and residual variates."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    e = np.atleast_2d(np.asarray(e, dtype=float))
    return StatisticSeries(
        t2=np.sum(z * z, axis=0), q=np.sum(e * e, axis=0), start_cycle=start_cycle
    )


def silverman_bandwidth(samples: np.ndarray) -> float:
    """h = 1.06 * sigma * n^(-1/5) with sigma the ddof=1 sample deviation."""
    samples = np.asarray(samples, dtype=float)
    return 1.06 * samples.std(ddof=1) * len(samples) ** (-0.2)


def kde_cdf(samples: np.ndarray, bandwidth: float, x: float) -> float:
    """CDF of a Gaussian-kernel density estimate, evaluated at x."""
    return float(ndtr((x - samples) / bandwidth).mean())


def kde_control_limit(samples, alpha: float) -> float:
    """Upper control limit: the alpha-quantile of a Gaussian-kernel KDE.

    Solved by bisection of CDF(x) = alpha on [min sample, max sample + 5h].
    Degenerate all-equal samples return the common value plus a small floor
    term, with a warning.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if len(samples) < KDE_MIN_SAMPLES:
        raise InsufficientDataError(
            f"control limit estimation needs >= {KDE_MIN_SAMPLES} samples, got {len(samples)}"
        )
    if not 0.5 < alpha < 1.0:
        raise ConfigError(f"confidence level must lie in (0.5, 1), got {alpha}")
    bandwidth = silverman_bandwidth(samples)
    if bandwidth <= 0:
        common = float(samples[0])
        floor = 1e-6 * max(1.0, abs(common))
        warnings.warn(
            "degenerate statistic sample (zero spread); control limit set to "
            "the common value plus a floor term",
            stacklevel=2,
        )
        return common + floor
    lo = float(samples.min())
    hi = float(samples.max() + 5.0 * bandwidth)
    if kde_cdf(samples, bandwidth, lo) >= alpha:
        return lo
    while (hi - lo) > KDE_RTOL * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if kde_cdf(samples, bandwidth, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MonitorModel:
    """Per-device monitor: CVA transforms plus control limits and persistence.

    ``persistence`` is the longest consecutive-breach run length observed in
    the device's data before degradation (its normal operation plus any
    transition period); the streaming detector requires a run strictly longer
    than this before declaring a change point.
    """

    cva: CvaModel
    alpha: float
    cl_t2: float
    cl_q: float
    persistence: int
    normal_window: int = 60
    validation_window: int = 20

    def to_dict(self) -> dict:
        return {
            "cva": self.cva.to_dict(),
            "alpha": self.alpha,
            "cl_t2": self.cl_t2,
            "cl_q": self.cl_q,
            "persistence": self.persistence,
            "normal_window": self.normal_window,
            "validation_window": self.validation_window,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MonitorModel":
        return cls(
            cva=CvaModel.from_dict(payload["cva"]),
            alpha=float(payload["alpha"]),
            cl_t2=float(payload["cl_t2"]),
            cl_q=float(payload["cl_q"]),
            persistence=int(payload["persistence"]),
            normal_window=int(payload["normal_window"]),
            validation_window=int(payload["validation_window"]),
        )


@dataclass(frozen=True)
class ChangePointResult:
    """Candidate and selected change-point cycles for one device."""

    unit_id: int
    k_t2_cp: int | None
    k_q_cp: int | None
    k_cp: int | None
    method: str  # "detected" or "fallback_cap"
    flagged: bool = False


@dataclass(frozen=True)
class ValidationReport:
    """Breach fractions of the validation window against the control limits."""

    unit_id: int
    n_cycles: int
    t2_breach_fraction: float
    q_breach_fraction: float
    threshold: float
    flagged: bool


def validate_normal_window(
    model: MonitorModel,
    validation_stats: StatisticSeries,
    breach_threshold: float = 0.2,
    unit_id: int = 0,
) -> ValidationReport:
    """Check that validation-window statistics stay mostly below the limits."""
    t2_breach = float(np.mean(validation_stats.t2 >= model.cl_t2))
    q_breach = float(np.mean(validation_stats.q >= model.cl_q))
    return ValidationReport(
        unit_id=unit_id,
        n_cycles=len(validation_stats),
        t2_breach_fraction=t2_breach,
        q_breach_fraction=q_breach,
        threshold=breach_threshold,
        flagged=max(t2_breach, q_breach) > breach_threshold,
    )


def _longest_run(mask: np.ndarray) -> int:
    longest = current = 0
    for breached in mask:
        current = current + 1 if breached else 0
        longest = max(longest, current)
    return longest


def compute_lambda(stats: StatisticSeries, cl_t2: float, cl_q: float) -> int:
    """Longest consecutive-breach run over either statistic."""
    return max(_longest_run(stats.t2 >= cl_t2), _longest_run(stats.q >= cl_q))


def _permanent_breach_start(values: np.ndarray, cl: float, start_cycle: int) -> int | None:
    """First cycle from which the statistic stays at or above cl to the end."""
    idx = len(values)
    while idx > 0 and values[idx - 1] >= cl:
        idx -= 1
    if idx == len(values):
        return None
    return start_cycle + idx


def detect_change_point(
    stats: StatisticSeries,
    cl_t2: float,
    cl_q: float,
    k_max: int | None = None,
    unit_id: int = 0,
) -> ChangePointResult:
    """Earliest cycle whose statistic permanently breaches its control limit.

    Each statistic yields a candidate (the start of its trailing all-breach
    run); the earlier one is selected so warnings come as early as possible.
    No candidate at all yields k_cp=None with the fallback method tag.
    """
    if k_max is not None and stats.end_cycle != k_max:
        raise InsufficientDataError(
            f"statistics end at cycle {stats.end_cycle} but device lifespan is {k_max}"
        )
    k_t2 = _permanent_breach_start(stats.t2, cl_t2, stats.start_cycle)
    k_q = _permanent_breach_start(stats.q, cl_q, stats.start_cycle)
    candidates = [k for k in (k_t2, k_q) if k is not None]
    k_cp = min(candidates) if candidates else None
    return ChangePointResult(
        unit_id=unit_id,
        k_t2_cp=k_t2,
        k_q_cp=k_q,
        k_cp=k_cp,
        method="detected" if k_cp is not None else "fallback_cap",
    )


def _statistics(cva: CvaModel, x_std: np.ndarray) -> StatisticSeries:
    """Statistics of cycles p+1 .. N of a standardized (m, N) series."""
    z, e = project(cva, build_past_matrix(x_std, cva.p))
    return compute_statistics(z, e, start_cycle=cva.p + 1)


def statistic_trace(model: MonitorModel, sensors: np.ndarray) -> StatisticSeries:
    """Full statistic series of a device under a fitted monitor.

    ``sensors`` is row-per-cycle with the monitor's channel count; cycles
    p+1 .. k_max are covered (the first p cycles only seed the lags).
    """
    x = apply_standardizer(model.cva.standardizer, np.asarray(sensors, dtype=float).T)
    return _statistics(model.cva, x)


def fit_device_monitor(series: EngineSeries, config: PipelineConfig):
    """Fit a monitor on one device and locate its change point.

    The series must already be sensor-selected. Standardizer and CVA are fit
    on the first normal_window cycles and the whole life is projected once:
    control limits come from the in-sample statistics (the lagged columns of
    the normal window), and detection runs on cycles from the monitor start
    through end of life. Any device with cycles left to monitor is fitted;
    the minimum-lifespan fallback is the caller's decision.

    Returns (MonitorModel, ChangePointResult).
    """
    k_max = series.k_max
    tau = config.normal_window + config.validation_window + config.p
    if k_max <= tau:
        raise InsufficientDataError(
            f"unit {series.unit_id}: lifespan {k_max} leaves no cycles to monitor "
            f"after cycle {tau}"
        )

    x = np.asarray(series.sensors, dtype=float).T  # (m, k_max)
    standardizer = fit_standardizer(x[:, : config.normal_window])
    x_std = apply_standardizer(standardizer, x)

    lagged = build_lagged_matrices(x_std[:, : config.normal_window], config.p)
    cva_model = fit_cva(lagged, config.r, standardizer=standardizer)
    all_stats = _statistics(cva_model, x_std)

    train_stats = all_stats.slice_cycles(config.p + 1, config.p + lagged.n_effective)
    cl_t2 = kde_control_limit(train_stats.t2, config.alpha)
    cl_q = kde_control_limit(train_stats.q, config.alpha)

    test_stats = all_stats.slice_cycles(tau, k_max)
    result = detect_change_point(test_stats, cl_t2, cl_q, k_max=k_max, unit_id=series.unit_id)
    if result.k_cp == tau:
        # Permanent breach already underway at the first monitored cycle; the
        # true onset may be earlier, so clamp and mark for review.
        warnings.warn(
            f"unit {series.unit_id}: statistics breach from the first monitored "
            f"cycle {tau}; change point clamped, review recommended",
            stacklevel=2,
        )
        result = replace(result, flagged=True)

    pre_cp_end = (result.k_cp - 1) if result.k_cp is not None else k_max
    persistence = compute_lambda(all_stats.slice_cycles(config.p + 1, pre_cp_end), cl_t2, cl_q)

    monitor = MonitorModel(
        cva=cva_model,
        alpha=config.alpha,
        cl_t2=cl_t2,
        cl_q=cl_q,
        persistence=persistence,
        normal_window=config.normal_window,
        validation_window=config.validation_window,
    )
    return monitor, result


def validation_report(
    monitor: MonitorModel, series: EngineSeries, config: PipelineConfig
) -> ValidationReport:
    """Validation-window report for a fitted monitor, recomputed from the series."""
    stats = statistic_trace(monitor, series.sensors)
    val = stats.slice_cycles(
        config.normal_window + 1, config.normal_window + config.validation_window
    )
    return validate_normal_window(
        monitor, val, breach_threshold=config.breach_fraction_threshold, unit_id=series.unit_id
    )
