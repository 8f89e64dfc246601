"""Monitoring statistics, KDE control limits, and change-point detection.

Per device: a canonical-variate model is fit on an initial normal-operation
window, control limits for the two monitoring statistics are estimated by
kernel density estimation at a one-sided confidence level, and the cycles
after the following validation window are scanned for the first cycle whose
statistic stays above its limit through end of life. The validation window
itself is not yet checked against the limits (paper step 2; ROADMAP item 3).
A fleet is fitted in stacked arrays: one standardizer, lag embedding and CVA
solve over all the normal windows, and one lockstep bisection for every
control limit; each device keeps its own results, the same bits it would get
when fitted alone.
"""

from __future__ import annotations

import json
import os
import warnings
import zipfile
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .cmapss import check_kept_indices
from .config import KDE_MIN_SAMPLES, PipelineConfig
from .cva import (
    STD_FLOOR,
    CvaModel,
    Standardizer,
    apply_standardizer,
    build_lagged_matrices,
    build_past_matrix,
    fit_cva,
    fit_standardizer,
    project,
)
from .errors import ConfigError, InsufficientDataError, IntegrityError, ShapeError

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
    return StatisticSeries(  # np.add.reduce: np.sum's arithmetic, without its call overhead
        t2=np.add.reduce(z * z, axis=0), q=np.add.reduce(e * e, axis=0), start_cycle=start_cycle
    )


def silverman_bandwidth(samples: np.ndarray):
    """h = 1.06 * sigma * n^(-1/5) with sigma the ddof=1 sample deviation, per row."""
    samples = np.asarray(samples, dtype=float)
    return 1.06 * samples.std(axis=-1, ddof=1) * samples.shape[-1] ** (-0.2)


def kde_cdf(samples: np.ndarray, bandwidth: np.ndarray, x: np.ndarray) -> np.ndarray:
    """CDF of each row's Gaussian-kernel density estimate at that row's x:
    ``samples`` is (k, n), ``bandwidth`` and ``x`` are (k,)."""
    return ndtr((x[:, None] - samples) / bandwidth[:, None]).mean(axis=1)


def kde_control_limit(samples, alpha: float) -> np.ndarray:
    """Upper control limits: the alpha-quantile of a Gaussian-kernel KDE of
    each row of a (k, n) stack.

    Each row is solved by bisection of CDF(x) = alpha on
    [min sample, max sample + 5h]; the rows step in lockstep, each stopping
    at its own width test, so a row's limit is the one it gets alone. The
    CDF at the minimum is at most 1/2 < alpha, so the root is never the
    minimum itself. Degenerate all-equal rows get the common value plus a
    small floor term, with one warning each.
    """
    rows = np.asarray(samples, dtype=float)
    if rows.ndim != 2:
        raise ShapeError(f"expected a (k, n) stack of samples, got shape {rows.shape}")
    if rows.shape[1] < KDE_MIN_SAMPLES:
        raise InsufficientDataError(
            f"control limit estimation needs >= {KDE_MIN_SAMPLES} samples, got {rows.shape[1]}"
        )
    if not 0.5 < alpha < 1.0:
        raise ConfigError(f"confidence level must lie in (0.5, 1), got {alpha}")
    bandwidth = silverman_bandwidth(rows)
    lo, top = rows.min(axis=1), rows.max(axis=1)
    # by the range: equal values have a positive deviation when their mean rounds off them
    degenerate = lo == top
    for _ in range(np.count_nonzero(degenerate)):
        warnings.warn(
            "degenerate statistic sample (zero spread); control limit set to "
            "the common value plus a floor term",
            stacklevel=2,
        )
    hi = np.where(degenerate, lo, top + 5.0 * bandwidth)
    bandwidth[degenerate] = 1.0  # any width: these rows have hi == lo, so never bisect

    def open_rows():
        return (hi - lo) > KDE_RTOL * np.maximum(1.0, np.abs(hi))

    active = open_rows()
    while active.any():
        mid = 0.5 * (lo + hi)
        below = kde_cdf(rows, bandwidth, mid) < alpha
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
        active = open_rows()
    common = rows[:, 0]
    return np.where(degenerate, common + 1e-6 * np.maximum(1.0, np.abs(common)), 0.5 * (lo + hi))


@dataclass(frozen=True)
class MonitorModel:
    """Per-device monitor, all the stream reads: CVA transforms, control limits
    and persistence. Fleet-wide settings live in the store manifest.

    ``persistence`` is the longest consecutive-breach run length observed in
    the device's data before degradation (its normal operation plus any
    transition period); the streaming detector requires a run strictly longer
    than this before declaring a change point.
    """

    cva: CvaModel
    cl_t2: float
    cl_q: float
    persistence: int


MONITOR_STORE = "monitors.npz"
FLEET_SETTINGS = ("p", "r", "alpha", "normal_window", "validation_window")


def _store_layout(n_units: int, m: int, p: int, r: int) -> dict:
    """Name -> shape of each array in a monitor store, all float64 but
    ``persistence`` (int64); row i of every array is the manifest's i-th unit."""
    mp = m * p
    return {
        "w": (n_units, mp, mp),
        "vr": (n_units, mp, r),
        "singular_values": (n_units, mp),
        "mean": (n_units, m),
        "std": (n_units, m),
        "cl_t2": (n_units,),
        "cl_q": (n_units,),
        "persistence": (n_units,),
    }


def _store_dtype(name: str):
    return np.int64 if name == "persistence" else np.float64


def save_monitors(monitors_dir, config: PipelineConfig, kept_indices, monitors: dict) -> None:
    """Write a fleet's monitors, keyed by unit, as ``manifest.json`` (dataset,
    sensors, units and fleet-wide settings) plus one uncompressed, byte-stable
    array store."""
    os.makedirs(monitors_dir, exist_ok=True)
    manifest = {"dataset": config.dataset_id, "kept_indices": list(kept_indices), "units": list(monitors)}
    manifest.update((key, getattr(config, key)) for key in FLEET_SETTINGS)
    with open(os.path.join(monitors_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    rows = [
        {"w": mo.cva.w, "vr": mo.cva.vr, "singular_values": mo.cva.singular_values,
         "mean": mo.cva.standardizer.mean, "std": mo.cva.standardizer.std,
         "cl_t2": mo.cl_t2, "cl_q": mo.cl_q, "persistence": mo.persistence}
        for mo in monitors.values()
    ]
    layout = _store_layout(len(rows), len(kept_indices), config.p, config.r)
    arrays = {  # np.array(...).reshape, as np.stack([]) raises for a fleet without monitors
        name: np.array([row[name] for row in rows], _store_dtype(name)).reshape(shape)
        for name, shape in layout.items()
    }
    np.savez(os.path.join(monitors_dir, MONITOR_STORE), **arrays)


def load_monitors(monitors_dir):
    """Load the monitors written by save_monitors: (monitors by unit, manifest).

    Every check runs before any monitor is built, and each failure is an
    IntegrityError naming the file at fault.
    """
    store = os.path.join(monitors_dir, MONITOR_STORE)
    if not os.path.exists(store):
        raise IntegrityError(f"{store} is missing; run detect to write the monitor store")
    manifest_path = os.path.join(monitors_dir, "manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise IntegrityError(f"{manifest_path} is not a readable JSON file: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("units"), list):
        raise IntegrityError(f"{manifest_path} holds no list of units")
    kept = check_kept_indices(manifest.get("kept_indices"), "monitor manifest")
    units = manifest["units"]
    for i, unit in enumerate(units):
        if type(unit) is not int:
            raise IntegrityError(f"monitor manifest unit {unit!r} is not an int")
        if unit in units[:i]:
            raise IntegrityError(f"{manifest_path} lists unit {unit} twice")
    try:  # the settings a config would accept; alpha is the only float
        PipelineConfig.from_dict({key: manifest[key] for key in FLEET_SETTINGS})
    except (KeyError, ConfigError) as exc:
        raise IntegrityError(
            f"{manifest_path} holds no valid fleet settings: {type(exc).__name__}: {exc}"
        ) from None
    p, r = manifest["p"], manifest["r"]
    layout = _store_layout(len(units), len(kept), p, r)
    try:
        with np.load(store, allow_pickle=False) as payload:  # a .npy file gives TypeError
            arrays = {name: payload[name] for name in layout}
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError, zipfile.BadZipFile) as exc:
        raise IntegrityError(f"{store} is not a monitor store: {type(exc).__name__}: {exc}") from None
    for name, shape in layout.items():
        array, dtype = arrays[name], np.dtype(_store_dtype(name))
        if array.shape != shape or array.dtype != dtype:
            raise IntegrityError(
                f"{store} holds {name} as {array.dtype} {array.shape}, not {dtype} {shape}: "
                f"{len(units)} units, the manifest's {len(kept)} sensors, p={p}, r={r}"
            )
        if not np.isfinite(array).all():
            raise IntegrityError(f"{store} holds a non-finite {name} entry")
    if not (arrays["std"] >= STD_FLOOR).all():
        raise IntegrityError(f"{store} holds a sensor scale below {STD_FLOOR:g}")
    cl_t2, cl_q, persistence = (arrays[name].tolist() for name in ("cl_t2", "cl_q", "persistence"))
    monitors = {
        unit: MonitorModel(
            cva=CvaModel.from_transforms(
                Standardizer(mean=arrays["mean"][i], std=arrays["std"][i]),
                p,
                arrays["w"][i],
                arrays["vr"][i],
                arrays["singular_values"][i],
            ),
            cl_t2=cl_t2[i],
            cl_q=cl_q[i],
            persistence=persistence[i],
        )
        for i, unit in enumerate(units)
    }
    return monitors, manifest


REPORT_COLUMNS = (
    "dataset",
    "unit",
    "k_max",
    "k_t2_cp",
    "k_q_cp",
    "k_cp",
    "method",
    "lambda",
    "cl_t2",
    "cl_q",
    "flagged",
)


@dataclass(frozen=True)
class DeviceOutcome:
    """One engine's detection record: the change-point candidates and, for a
    fitted engine, its limits, persistence and monitor. An engine that was
    not fitted keeps the defaults and gets the fixed-cap fallback."""

    unit_id: int
    k_max: int
    k_t2_cp: int | None = None
    k_q_cp: int | None = None
    k_cp: int | None = None
    persistence: int | None = None
    cl_t2: float | None = None
    cl_q: float | None = None
    flagged: bool = False
    monitor: MonitorModel | None = None

    @property
    def method(self) -> str:
        return "detected" if self.k_cp is not None else "fallback_cap"

    def record(self, dataset_id: str) -> dict:
        """This engine's ``change_points`` row, in REPORT_COLUMNS order; every
        column other than these three is the field of the same name."""
        named = {"dataset": dataset_id, "unit": self.unit_id, "lambda": self.persistence}
        return {c: named[c] if c in named else getattr(self, c) for c in REPORT_COLUMNS}


def _longest_run(mask: np.ndarray) -> int:
    """Length of the longest all-true run: the changes of the False-padded mask
    alternate run starts and run ends."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return int((edges[1::2] - edges[::2]).max(initial=0))


def compute_lambda(stats: StatisticSeries, cl_t2: float, cl_q: float) -> int:
    """Longest consecutive-breach run over either statistic."""
    return max(_longest_run(stats.t2 >= cl_t2), _longest_run(stats.q >= cl_q))


def _permanent_breach_start(values: np.ndarray, cl: float, start_cycle: int) -> int | None:
    """First cycle from which the statistic stays at or above cl to the end
    (a nan ends the run)."""
    below = np.flatnonzero(~(values >= cl))
    idx = int(below[-1]) + 1 if len(below) else 0
    if idx == len(values):
        return None
    return start_cycle + idx


def detect_change_point(
    stats: StatisticSeries,
    cl_t2: float,
    cl_q: float,
    k_max: int,
    unit_id: int = 0,
) -> DeviceOutcome:
    """Earliest cycle whose statistic permanently breaches its control limit.

    Each statistic yields a candidate (the start of its trailing all-breach
    run); the earlier one is selected so warnings come as early as possible.
    No candidate at all yields k_cp=None, the fallback.
    """
    if stats.end_cycle != k_max:
        raise InsufficientDataError(
            f"statistics end at cycle {stats.end_cycle} but device lifespan is {k_max}"
        )
    k_t2 = _permanent_breach_start(stats.t2, cl_t2, stats.start_cycle)
    k_q = _permanent_breach_start(stats.q, cl_q, stats.start_cycle)
    candidates = [k for k in (k_t2, k_q) if k is not None]
    return DeviceOutcome(
        unit_id=unit_id,
        k_max=k_max,
        k_t2_cp=k_t2,
        k_q_cp=k_q,
        k_cp=min(candidates) if candidates else None,
    )


def _statistics(cva: CvaModel, sensors: np.ndarray) -> StatisticSeries:
    """Statistics of cycles p+1 .. N of a row-per-cycle (N, m) series."""
    x = apply_standardizer(cva.standardizer, np.asarray(sensors, dtype=float).T)
    z, e = project(cva, build_past_matrix(x, cva.p))
    return compute_statistics(z, e, start_cycle=cva.p + 1)


def statistic_trace(model: MonitorModel, sensors: np.ndarray) -> StatisticSeries:
    """Full statistic series of a device under a fitted monitor.

    ``sensors`` is row-per-cycle with the monitor's channel count; cycles
    p+1 .. k_max are covered (the first p cycles only seed the lags).
    """
    return _statistics(model.cva, sensors)


def _fit_fleet_cva(engines, config: PipelineConfig) -> list[CvaModel]:
    """Each device's standardizer and CVA, fitted on the stack of normal windows."""
    nw = config.normal_window
    # an (n, m, normal_window) view of row-per-cycle copies, so each channel's
    # sums run over the cycles in the order a single (m, k_max) series has
    normal = np.stack([s.sensors[:nw] for s in engines], dtype=float).transpose(0, 2, 1)
    standardizer = fit_standardizer(normal)
    lagged = build_lagged_matrices(apply_standardizer(standardizer, normal), config.p)
    return fit_cva(lagged, config.r, standardizer=standardizer).unstack()


def fit_device_monitors(engines, config: PipelineConfig) -> list[DeviceOutcome]:
    """Fit a monitor on each device of a fleet and locate its change point.

    The series must already be sensor-selected, each with the same channels
    and more than config.first_monitored_cycle cycles. The fleet is
    fitted in stacked arrays: standardizers and CVA on the (n, m,
    normal_window) stack of normal windows, then both control limits of every
    device in one lockstep bisection. Each device's whole life is projected
    once: control limits come from the in-sample statistics (the lagged
    columns of the normal window), and detection runs on cycles from the
    monitor start through end of life. Every device gets the bits it would
    get when fitted alone; the minimum-lifespan fallback is the caller's
    decision.

    Returns each device's DeviceOutcome, monitor included, in fleet order.
    """
    p, nw = config.p, config.normal_window
    tau = config.first_monitored_cycle
    for series in engines:
        if series.k_max <= tau:
            raise InsufficientDataError(
                f"unit {series.unit_id}: lifespan {series.k_max} leaves no cycles to "
                f"monitor after cycle {tau}"
            )
    if not engines:
        return []

    models = _fit_fleet_cva(engines, config)
    all_stats = [_statistics(cva, series.sensors) for cva, series in zip(models, engines)]

    n_eff = nw - 2 * p + 1  # in-sample columns: cycles p+1 .. p+n_eff
    limits = kde_control_limit(
        np.stack([s.t2[:n_eff] for s in all_stats] + [s.q[:n_eff] for s in all_stats]),
        config.alpha,
    ).tolist()

    outcomes = []
    for series, cva, stats, cl_t2, cl_q in zip(
        engines, models, all_stats, limits[: len(engines)], limits[len(engines) :]
    ):
        k_max = series.k_max
        test_stats = stats.slice_cycles(tau, k_max)
        outcome = detect_change_point(test_stats, cl_t2, cl_q, k_max, unit_id=series.unit_id)
        flagged = outcome.k_cp == tau
        if flagged:
            # Permanent breach already underway at the first monitored cycle; the
            # true onset may be earlier, so clamp and mark for review.
            warnings.warn(
                f"unit {series.unit_id}: statistics breach from the first monitored "
                f"cycle {tau}; change point clamped, review recommended",
                stacklevel=2,
            )
        pre_cp_end = (outcome.k_cp - 1) if outcome.k_cp is not None else k_max
        persistence = compute_lambda(stats.slice_cycles(p + 1, pre_cp_end), cl_t2, cl_q)
        monitor = MonitorModel(cva=cva, cl_t2=cl_t2, cl_q=cl_q, persistence=persistence)
        outcomes.append(
            replace(
                outcome,
                persistence=persistence,
                cl_t2=cl_t2,
                cl_q=cl_q,
                flagged=flagged,
                monitor=monitor,
            )
        )
    return outcomes
