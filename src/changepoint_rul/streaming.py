"""Per-cycle streaming monitor: breach persistence and online RUL estimates.

Input is line-delimited JSON records {"unit": int, "cycle": int,
"sensors": [...]} with either the full 21 raw channels or the already
selected subset. Output is one JSON event per line: a per-cycle status
record, a change-point event once a statistic has breached its control
limit for strictly more consecutive cycles than the device's recorded
persistence, and an RUL estimate per cycle after that.

Cycle k's statistics are ``monitoring.statistic_trace`` over the device's
rows k-p..k, the detector's own lag convention and formula.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cmapss import MAX_ABS_READING, N_SENSORS
from .config import _is_int
from .cva import Standardizer, apply_standardizer
from .errors import ConfigError, IntegrityError, ShapeError
from .labeling import trailing_window
from .lstm import LstmRegressor, predict
from .monitoring import MonitorModel, load_monitors, statistic_trace
from .pipeline import read_checkpoint

STATUS_NORMAL = "normal"
STATUS_TRANSITION = "transition"
STATUS_DEGRADING = "degrading"


@dataclass
class DeviceStreamState:
    """Mutable per-device stream bookkeeping; single-owner, not thread-safe."""

    unit_id: int
    monitor: MonitorModel
    rows: deque  # last selected raw rows, oldest first: p + 1, or an RUL window if longer
    run_t2: int = 0
    run_q: int = 0
    status: str = STATUS_NORMAL
    k_cp: int | None = None
    last_cycle: int = 0


class StreamMonitor:
    """Routes cycle records to per-device state and emits events.

    With a regressor, each degrading cycle's RUL estimate is clipped to
    [0, rul_cap]; a None cap is the regressor's own ``label_cap``, the cap of
    the labels it was trained on. A regressor needs ``pooled``, the
    standardizer of its training windows, with one mean and std per kept sensor.
    """

    def __init__(
        self,
        monitors: dict,
        kept_indices,
        regressor: LstmRegressor | None = None,
        pooled: Standardizer | None = None,
        rul_cap: float | None = None,
    ):
        self.monitors = monitors
        self.columns = np.asarray(kept_indices, dtype=int) - 1
        self.m = len(self.columns)
        if regressor is not None:
            if pooled is None:
                raise ConfigError("a regressor needs the pooled standardizer of its training windows")
            shapes = (np.shape(pooled.mean), np.shape(pooled.std))
            if shapes != ((self.m,), (self.m,)):
                raise ShapeError(
                    f"pooled standardizer mean and std of shapes {shapes} do not match "
                    f"{self.m} kept sensors"
                )
        self.regressor = regressor
        self.pooled = pooled
        self.rul_cap = rul_cap
        self.max_window = regressor.sequence_length if regressor else 1
        # A float32 model cannot take every accepted reading once standardized;
        # a float64 one can, as MAX_ABS_READING keeps them far inside its range.
        self.max_scaled = None
        if regressor is not None and regressor.dtype != np.float64:
            self.max_scaled = np.finfo(regressor.dtype).max
        self.states: dict = {}

    def _reject(self, reason: str, record=None) -> dict:
        event = {"type": "rejected", "reason": reason}
        if isinstance(record, dict):
            for key in ("unit", "cycle"):
                if _is_int(record.get(key)):
                    event[key] = record[key]
        return event

    def process_line(self, line: str):
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # too deep, or an over-long int
            return [self._reject(f"invalid JSON: {exc}")]
        return self.process_record(record)

    def process_record(self, record: dict):
        if not isinstance(record, dict) or not {"unit", "cycle", "sensors"} <= set(record):
            return [self._reject("record must carry unit, cycle, and sensors", record)]
        unit, cycle = record["unit"], record["cycle"]
        if not (_is_int(unit) and _is_int(cycle)):
            return [self._reject("unit and cycle must be integers", record)]
        if unit not in self.monitors:
            return [self._reject(f"unknown unit {unit}", record)]
        readings = record["sensors"]
        if not (isinstance(readings, list) and all(map(_is_reading, readings))):
            return [self._reject("sensors must be numbers", record)]
        try:
            sensors = np.asarray(readings, dtype=float)
        except OverflowError:  # an int beyond the float range
            return [self._reject(f"sensors must be finite, at most {MAX_ABS_READING:g}", record)]
        if sensors.ndim != 1 or sensors.shape[0] not in (N_SENSORS, self.m):
            return [
                self._reject(
                    f"expected {N_SENSORS} raw or {self.m} selected channels, "
                    f"got {sensors.shape}",
                    record,
                )
            ]
        if not (np.abs(sensors) <= MAX_ABS_READING).all():  # also false for nan
            return [self._reject(f"sensors must be finite, at most {MAX_ABS_READING:g}", record)]
        if sensors.shape[0] == N_SENSORS:
            sensors = sensors[self.columns]
        if self.max_scaled is not None:
            scaled = (sensors - self.pooled.mean) / self.pooled.std
            if not (np.abs(scaled) <= self.max_scaled).all():
                reason = f"sensors beyond the regressor's {self.regressor.dtype} range once standardized"
                return [self._reject(reason, record)]

        state = self.states.get(unit)
        if state is None:
            monitor = self.monitors[unit]
            rows = deque(maxlen=max(self.max_window, monitor.cva.p + 1))
            state = DeviceStreamState(unit_id=unit, monitor=monitor, rows=rows)
            self.states[unit] = state
        if cycle <= state.last_cycle:
            return [self._reject(f"cycle {cycle} not after {state.last_cycle}", record)]
        if state.last_cycle and cycle != state.last_cycle + 1:
            return [self._reject(f"cycle gap: expected {state.last_cycle + 1}, got {cycle}", record)]
        state.last_cycle = cycle

        return self._step(state, cycle, sensors)

    def _step(self, state: DeviceStreamState, cycle: int, sensors: np.ndarray):
        monitor = state.monitor
        state.rows.append(sensors)

        events = []
        t2 = q = None
        p = monitor.cva.p
        if len(state.rows) > p:
            stats = statistic_trace(monitor, list(state.rows)[-(p + 1) :])
            t2, q = float(stats.t2[0]), float(stats.q[0])
            if not (math.isfinite(t2) and math.isfinite(q)):  # a finite but huge monitor
                reason = f"statistics overflow under the monitor of unit {state.unit_id}"
                return [self._reject(reason, {"unit": state.unit_id, "cycle": cycle})]
            state.run_t2 = state.run_t2 + 1 if t2 >= monitor.cl_t2 else 0
            state.run_q = state.run_q + 1 if q >= monitor.cl_q else 0
            longest = max(state.run_t2, state.run_q)
            if longest > 0 and state.status == STATUS_NORMAL:
                state.status = STATUS_TRANSITION
            if longest > monitor.persistence and state.status != STATUS_DEGRADING:
                state.status = STATUS_DEGRADING
                state.k_cp = cycle - longest + 1
                events.append(
                    {
                        "type": "change_point",
                        "unit": state.unit_id,
                        "cycle": cycle,
                        "k_cp": state.k_cp,
                        "statistic": "t2" if state.run_t2 >= state.run_q else "q",
                    }
                )

        status_event = {
            "type": "status",
            "unit": state.unit_id,
            "cycle": cycle,
            "t2": t2,
            "q": q,
            "status": state.status,
        }
        if state.status == STATUS_DEGRADING and self.regressor is not None:
            x = apply_standardizer(self.pooled, np.asarray(state.rows).T).T
            window = trailing_window(x, self.regressor.sequence_length)
            status_event["rul"] = predict(self.regressor, window, cap=self.rul_cap)
        events.insert(0, status_event)
        return events


def _is_reading(value) -> bool:
    """True for a JSON number; text and bools are not sensor readings."""
    return isinstance(value, float) or _is_int(value)


def run_monitor(monitors_dir, input_lines, out_fh, checkpoint_path=None):
    """Stream records through the monitor store of a detect run, writing one
    JSON event per line. With a train checkpoint, RUL estimates are clipped at
    the checkpoint's label cap, which ``train`` sets from ``fallback_cap``."""
    monitors, manifest = load_monitors(monitors_dir)
    regressor = pooled = None
    if checkpoint_path is not None:
        regressor, kept, pooled = read_checkpoint(checkpoint_path)
        if list(kept) != manifest["kept_indices"]:
            raise IntegrityError(
                f"checkpoint sensors {list(kept)} differ from the monitor "
                f"manifest's {manifest['kept_indices']}"
            )
    stream = StreamMonitor(monitors, manifest["kept_indices"], regressor=regressor, pooled=pooled)
    n_events = 0
    for line in input_lines:
        if not line.strip():
            continue
        for event in stream.process_line(line):
            out_fh.write(json.dumps(event, sort_keys=True, allow_nan=False) + "\n")
            n_events += 1
    return n_events
