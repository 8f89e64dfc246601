"""End-to-end orchestration: detect, train, evaluate, sweep, and stream monitor.

Offline commands read C-MAPSS-format files from config.data_dir and write
reports and artifacts under config.out_dir. All outputs are deterministic
for a fixed config and seed: rows are sorted by unit and no timestamps are
embedded.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cmapss
from .config import PipelineConfig
from .cva import STD_FLOOR, Standardizer
from .errors import ConfigError, InsufficientDataError, IntegrityError, NumericError
from .labeling import (
    piecewise_rul_labels,
    pooled_standardizer,
    sliding_windows,
    trailing_window,
)
from .lstm import load_checkpoint, predict_batch, save_checkpoint, train
from .metrics import EVAL_COLUMNS, evaluate_predictions, format_metrics_row
from .monitoring import (
    REPORT_COLUMNS,
    DeviceOutcome,
    fit_device_monitors,
    save_monitors,
    statistic_trace,
)

log = logging.getLogger(__name__)


def _write_json(path, payload) -> None:
    """Write a report as strict, sorted, indented JSON, creating its directory.
    The payload is encoded first, so a NaN or infinity raises NumericError and
    writes nothing."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"report {path} holds a non-finite value: {exc}") from None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv(path, columns, rows) -> None:
    """Write a report as a header row plus rows, creating its directory; a None
    cell is written empty."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _sorted_subset(engines, subset: int | None):
    engines = sorted(engines, key=lambda s: s.unit_id)
    return engines[:subset] if subset is not None else engines


def _load_split(config: PipelineConfig, split: str):
    """Parse one split's engines, sorted by unit and cut to ``config.subset``.

    Returns (engines, targets). For ``"test"`` the targets are the RUL file's
    entries for the kept units; for ``"train"`` they are None, so detection
    needs only the train file.
    """
    path = (cmapss.train_file if split == "train" else cmapss.test_file)(
        config.data_dir, config.dataset_id
    )
    engines = cmapss.read_cmapss_file(path, config.dataset_id)
    kept = _sorted_subset(engines, config.subset)
    if split == "train":
        return kept, None
    if not kept:
        raise InsufficientDataError(f"{path} holds no engines")
    rul_path = Path(cmapss.rul_file(config.data_dir, config.dataset_id))
    # undecodable bytes become surrogates, which the parser rejects
    rul_text = rul_path.read_text(encoding="utf-8", errors="surrogateescape")
    targets = cmapss.load_rul_targets(rul_text, config.dataset_id, expected_count=len(engines))
    unit_ids = {s.unit_id for s in kept}
    return kept, [t for t in targets if t.unit_id in unit_ids]


def _empty_train_log(config: PipelineConfig) -> InsufficientDataError:
    """The error of a command that trains on a train log holding no engines."""
    path = cmapss.train_file(config.data_dir, config.dataset_id)
    return InsufficientDataError(f"{path} holds no engines to train on")


def _selected_train_engines(config: PipelineConfig, engines):
    """Sensor selection plus the sorted, subset train engines (loaded when None).

    Engines that already carry only the kept channels pass through as given.
    """
    selection = cmapss.select_sensors(config.dataset_id)
    if engines is None:
        engines, _ = _load_split(config, "train")
    else:
        engines = _sorted_subset(engines, config.subset)
    selected = [
        cmapss.apply_selection(s, selection) if s.n_channels == cmapss.N_SENSORS else s
        for s in engines
    ]
    return selection, selected


def run_detect(config: PipelineConfig, engines=None, write: bool = True):
    """Change-point detection over the train set, one fleet fit for all engines.

    Returns (outcomes sorted by unit, summary dict). With write=True, emits
    change_points.{json,csv}, the fleet's monitor store, and optionally
    statistic traces under config.out_dir.
    """
    selection, selected = _selected_train_engines(config, engines)
    # Engines short of the minimum lifespan, or with no cycles to monitor, get
    # the fixed-cap fallback; the rest are fitted as one fleet.
    tau = config.first_monitored_cycle
    outcomes = [DeviceOutcome(unit_id=s.unit_id, k_max=s.k_max) for s in selected]
    fit = [i for i, s in enumerate(selected) if s.k_max >= config.min_lifespan and s.k_max > tau]
    for i, outcome in zip(fit, fit_device_monitors([selected[i] for i in fit], config)):
        outcomes[i] = outcome

    summary = {
        "dataset": config.dataset_id,
        "n_engines": len(outcomes),
        "n_detected": sum(1 for o in outcomes if o.k_cp is not None),
        "n_fallback": sum(1 for o in outcomes if o.k_cp is None),
        "n_flagged": sum(1 for o in outcomes if o.flagged),
        "min_lifespan": config.min_lifespan,
    }

    if write:
        records = [o.record(config.dataset_id) for o in outcomes]
        report = {"summary": summary, "engines": records}
        _write_json(os.path.join(config.out_dir, "change_points.json"), report)
        rows = [list(record.values()) for record in records]
        _write_csv(os.path.join(config.out_dir, "change_points.csv"), REPORT_COLUMNS, rows)
        fitted = {o.unit_id: o.monitor for o in outcomes if o.monitor is not None}
        monitors_dir = os.path.join(config.out_dir, "monitors")
        save_monitors(monitors_dir, config, selection.kept_indices, fitted)
        if config.export_traces:
            _write_traces(config, outcomes, selected)

    log.info(
        "%s: %d engines, %d detected, %d fallback, %d flagged",
        config.dataset_id,
        summary["n_engines"],
        summary["n_detected"],
        summary["n_fallback"],
        summary["n_flagged"],
    )
    return outcomes, summary


def _write_traces(config, outcomes, selected):
    by_unit = {s.unit_id: s for s in selected}
    for outcome in outcomes:
        if outcome.monitor is None:
            continue
        stats = statistic_trace(outcome.monitor, by_unit[outcome.unit_id].sensors)
        path = os.path.join(config.out_dir, "traces", f"unit_{outcome.unit_id:04d}.csv")
        limits = [outcome.cl_t2, outcome.cl_q]
        rows = ([cycle, t2, q, *limits] for cycle, t2, q in zip(stats.cycles, stats.t2, stats.q))
        _write_csv(path, ("cycle", "t2", "q", "cl_t2", "cl_q"), rows)


def _pre_cp_reference(k_max: int, k_cp: int | None, config: PipelineConfig) -> int:
    """Cutoff cycle whose preceding data counts as normal operation."""
    if k_cp is not None:
        return max(k_cp - 1, 2)
    implied = k_max - config.fallback_cap
    return min(k_max, max(implied, config.normal_window))


def build_training_data(config: PipelineConfig, engines, outcomes):
    """Pooled pre-change-point standardizer plus the fleet's training windows.

    Every engine's rows are stacked into one copy, standardized in place, and
    cut into windows by one sliding_windows call; an engine shorter than one
    window gives none and is named in a warning.
    """
    cp_by_unit = {o.unit_id: o.k_cp for o in outcomes}
    k_cps = [cp_by_unit[s.unit_id] for s in engines]
    pooled = pooled_standardizer(
        s.sensors[: _pre_cp_reference(s.k_max, k_cp, config)] for s, k_cp in zip(engines, k_cps)
    )
    skipped = [s.unit_id for s in engines if s.k_max < config.sequence_length]
    if skipped:
        log.warning(
            "skipped %d engine(s) shorter than one window: %s", len(skipped), skipped
        )
    rows = np.concatenate([s.sensors for s in engines], dtype=float)
    rows -= pooled.mean
    rows /= pooled.std
    labels = [
        piecewise_rul_labels(s.k_max, k_cp, config.fallback_cap)
        for s, k_cp in zip(engines, k_cps)
    ]
    units = [s.unit_id for s in engines]
    return pooled, sliding_windows(rows, labels, config.sequence_length, units)


def run_train(config: PipelineConfig, engines=None, outcomes=None):
    """Train the windowed regressor on change-point-informed labels.

    Runs detection on these engines unless their outcomes are given, so a
    change-point report already under out_dir is never read. Writes
    checkpoint.npz and history.json under out_dir; returns (model, history, meta).
    """
    selection, selected = _selected_train_engines(config, engines)
    if not selected:
        raise _empty_train_log(config)
    if outcomes is None:
        outcomes, _ = run_detect(config, engines=selected)

    pooled, windowed = build_training_data(config, selected, outcomes)
    model, history = train(windowed, config.train_config())
    meta = {
        "dataset": config.dataset_id,
        "kept_indices": list(selection.kept_indices),
        "pooled_mean": pooled.mean.tolist(),
        "pooled_std": pooled.std.tolist(),
        "n_windows": len(windowed),
        "seed": config.seed,
    }
    os.makedirs(config.out_dir, exist_ok=True)
    save_checkpoint(model, os.path.join(config.out_dir, "checkpoint.npz"), meta=meta)
    trained = {"epoch_mse": history, "config": config.to_dict()}
    _write_json(os.path.join(config.out_dir, "history.json"), trained)
    log.info("checkpoint written to %s", os.path.join(config.out_dir, "checkpoint.npz"))
    return model, history, meta


def read_checkpoint(path):
    """Load (model, kept sensor indices, pooled standardizer) from a train
    checkpoint, with one distinct sensor index in 1..21 per model input and
    a positive int window length, and a finite pooled standardizer whose
    scales are at least STD_FLOOR, as fit_standardizer gives."""
    model, meta = load_checkpoint(path)
    length = model.sequence_length
    if type(length) is not int or length < 1:
        raise IntegrityError(f"checkpoint {path} holds no usable window length: {length!r}")
    kept = cmapss.check_kept_indices(meta.get("kept_indices"), f"checkpoint {path}")
    try:
        pooled = Standardizer(
            mean=np.asarray(meta["pooled_mean"], dtype=float),
            std=np.asarray(meta["pooled_std"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(
            f"checkpoint {path} holds no pooled standardizer: {type(exc).__name__}: {exc}"
        ) from None
    shape = (model.input_dim,)
    if len(kept) != model.input_dim or not pooled.mean.shape == pooled.std.shape == shape:
        raise IntegrityError(f"checkpoint {path} metadata does not match its architecture")
    if not (np.isfinite([pooled.mean, pooled.std]).all() and (pooled.std >= STD_FLOOR).all()):
        raise IntegrityError(
            f"checkpoint {path} holds a non-finite pooled standardizer or a scale below {STD_FLOOR:g}"
        )
    return model, kept, pooled


def run_evaluate(config: PipelineConfig, checkpoint_path=None, write: bool = True):
    """Score a checkpoint over the test set; returns the EvalReport. Estimates
    are clipped, and truths capped, at the config's fallback_cap: the scoring
    protocol's cap, whatever cap the checkpoint was trained with."""
    if checkpoint_path is None:
        checkpoint_path = os.path.join(config.out_dir, "checkpoint.npz")
    model, kept, pooled = read_checkpoint(checkpoint_path)
    test_engines, targets = _load_split(config, "test")
    columns = np.asarray(kept) - 1
    # only the scored rows are standardized; padding repeats a raw first cycle
    windows = np.stack(
        [trailing_window(s.sensors[:, columns], model.sequence_length) for s in test_engines]
    )
    windows -= pooled.mean
    windows /= pooled.std
    estimates = predict_batch(model, windows, cap=float(config.fallback_cap))
    predictions = {s.unit_id: float(y) for s, y in zip(test_engines, estimates)}
    report = evaluate_predictions(
        predictions, targets, cap=float(config.fallback_cap), dataset_id=config.dataset_id
    )
    if write:
        _write_json(os.path.join(config.out_dir, "evaluation.json"), report.to_dict())
        _write_csv(os.path.join(config.out_dir, "evaluation.csv"), EVAL_COLUMNS, report.rows())
    print(format_metrics_row(report))
    return report


def run_sweep(config: PipelineConfig, candidates):
    """Full pipeline per candidate minimum lifespan. A candidate below the
    first monitorable lifespan is recorded as not applicable; one above every
    lifespan puts all engines on the fallback cap, the uniform-cap arm."""
    if not candidates:
        raise ConfigError("sweep needs at least one candidate minimum lifespan")
    engines, _ = _load_split(config, "train")  # read once for every candidate
    if not engines:
        raise _empty_train_log(config)
    rows = []
    min_monitorable = config.first_monitored_cycle + 1
    for candidate in candidates:
        if candidate < min_monitorable:  # recorded before a config could refuse it
            rows.append(
                {
                    "min_lifespan": candidate,
                    "applicable": False,
                    "reason": f"candidate below first monitorable lifespan {min_monitorable}",
                }
            )
            continue
        sub_dir = os.path.join(config.out_dir, f"sweep_{candidate}")
        sub_cfg = replace(config, min_lifespan=int(candidate), out_dir=sub_dir)
        outcomes, summary = run_detect(sub_cfg, engines=engines)
        run_train(sub_cfg, engines=engines, outcomes=outcomes)
        report = run_evaluate(sub_cfg)
        rows.append(
            {
                "min_lifespan": candidate,
                "applicable": True,
                "n_detected": summary["n_detected"],
                "n_fallback": summary["n_fallback"],
                "rmse": report.rmse,
                "sf": report.sf,
            }
        )
    _write_json(os.path.join(config.out_dir, "sweep.json"), rows)
    cells = ([row["min_lifespan"], row.get("rmse", "NA"), row.get("sf", "NA")] for row in rows)
    _write_csv(os.path.join(config.out_dir, "sweep.csv"), ("min_lifespan", "rmse", "sf"), cells)
    return rows
