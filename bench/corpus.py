"""Seeded synthetic turbofan fleets in the C-MAPSS text and stream layouts.

The benchmark makes its own inputs, so an edit to a test helper cannot change
a workload. Each engine's 21 raw channels are driven by a few autoregressive
latent factors through random loadings, plus channel noise and a two-level
operating-regime offset. From the injected change-point cycle onward a
step-plus-ramp drift is added in factor space and on three single channels,
so both monitoring statistics breach for good right after it.

Lifespans, change-point offsets and true remaining lives come from fixed grids
that the seed only permutes. The amount of work in a workload (rows, windows,
degrading stream records) therefore barely moves between seeds, while the
sensor values and which engine gets which life do.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

N_SETTINGS = 3
N_RAW = 21
N_FACTORS = 2
AR_COEF = 0.6
BURN_IN = 50
NOISE = 0.5
REGIME_SHIFT = 1.0
DRIFT_STEP = 3.0
DRIFT_SLOPE = 0.05
N_LOCAL_FAULTS = 3
# Change points are injected at least this many cycles into a long life, well
# after the 82-cycle normal + validation + lag prefix the monitor needs.
MIN_CP = 100
# 1-based raw channels that the real FD001/FD003 logs hold constant.
FLAT_SINGLE_CONDITION = (1, 5, 6, 10, 16, 18, 19)
# 1-based raw channels that carry the degradation trends in the real logs;
# the channel-local faults are injected on three of them.
TRENDING = (2, 3, 4, 7, 8, 9, 11, 12, 14, 15, 17, 20, 21)


@dataclass(frozen=True)
class Engine:
    """One synthetic engine: full life, injected change point, logged rows."""

    unit: int
    k_max: int  # cycles to failure
    k_cp: int  # injected change-point cycle
    settings: np.ndarray  # (k_max, 3)
    sensors: np.ndarray  # (k_max, 21) raw channels


def lifespan_grid(n: int, lo: int, hi: int, n_short: int, threshold: int = 200) -> np.ndarray:
    """n lifespans: n_short evenly in [lo, threshold), the rest in [threshold, hi].

    Long lives crowd towards the threshold, as in the real fleets.
    """
    short = np.linspace(lo, threshold - 1, n_short)
    long = threshold + (hi - threshold) * np.linspace(0.0, 1.0, n - n_short) ** 2.5
    return np.round(np.concatenate([short, long])).astype(int)


def _sensor_rows(rng: np.random.Generator, k_max: int, k_cp: int, flat) -> np.ndarray:
    live = np.array([c for c in range(N_RAW) if c + 1 not in flat])
    n_live = len(live)
    shocks = rng.normal(scale=np.sqrt(1.0 - AR_COEF**2), size=(k_max + BURN_IN, N_FACTORS))
    factors = lfilter([1.0], [1.0, -AR_COEF], shocks, axis=0)[BURN_IN:]
    loadings = rng.uniform(0.5, 1.5, size=(N_FACTORS, n_live))
    loadings *= rng.choice((-1.0, 1.0), size=(1, n_live))
    x = factors @ loadings + rng.normal(scale=NOISE, size=(k_max, n_live))
    regime = rng.integers(0, 2, size=k_max).astype(float)
    x += regime[:, None] * (REGIME_SHIFT * np.linspace(0.5, 1.0, n_live))[None, :]

    cycles = np.arange(1, k_max + 1)
    ramp = np.where(cycles >= k_cp, DRIFT_STEP + DRIFT_SLOPE * (cycles - k_cp), 0.0)
    x += ramp[:, None] * loadings[0][None, :] / 3.0
    trending = [i for i, c in enumerate(live) if c + 1 in TRENDING]
    for i in rng.choice(trending, size=N_LOCAL_FAULTS, replace=False):
        x[:, i] += ramp

    sensors = np.empty((k_max, N_RAW))
    sensors[:, live] = np.round(100.0 + 10.0 * x, 4)
    for j, c in enumerate(sorted(set(range(N_RAW)) - set(live.tolist()))):
        sensors[:, c] = 500.0 + j
    return sensors


def make_fleet(seed, lifespans, offsets, flat=(), first_unit: int = 1) -> list[Engine]:
    """Engines with the grid lifespans and change-point offsets, permuted by seed.

    An engine of life k gets its change point at k - offset, kept at or after
    MIN_CP for lives that reach the monitor's minimum lifespan.
    """
    rng = np.random.default_rng(seed)
    lifespans = rng.permutation(np.asarray(lifespans, dtype=int))
    offsets = rng.permutation(np.asarray(offsets, dtype=int))
    engines = []
    for i, (k_max, offset) in enumerate(zip(lifespans, offsets)):
        k_max = int(k_max)
        k_cp = k_max - int(offset)
        if k_max >= 200:
            k_cp = max(k_cp, MIN_CP)
        k_cp = max(k_cp, 2)
        engines.append(
            Engine(
                unit=first_unit + i,
                k_max=k_max,
                k_cp=k_cp,
                settings=np.round(rng.normal(scale=0.001, size=(k_max, N_SETTINGS)), 6),
                sensors=_sensor_rows(rng, k_max, k_cp, flat),
            )
        )
    return engines


def log_text(engines, cutoffs=None) -> str:
    """C-MAPSS rows (unit, cycle, 3 settings, 21 sensors) with trailing spaces.

    ``cutoffs`` maps unit to the last logged cycle; whole lives otherwise.
    """
    row = "%d %d" + " %.6f" * N_SETTINGS + " %.4f" * N_RAW + " \n"
    parts = []
    for e in engines:
        n = e.k_max if cutoffs is None else cutoffs[e.unit]
        table = np.column_stack(
            [np.full(n, e.unit), np.arange(1, n + 1), e.settings[:n], e.sensors[:n]]
        )
        parts.append((row * n) % tuple(table.ravel()))
    return "".join(parts)


def write_split(data_dir, dataset_id: str, split: str, text: str) -> str:
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, f"{split}_{dataset_id}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def holdout_cutoffs(seed, engines, rul_grid, min_logged: int = 31) -> dict:
    """Per test unit, the last logged cycle; true RUL is k_max minus it."""
    ruls = np.random.default_rng(seed).permutation(np.asarray(rul_grid, dtype=int))
    return {
        e.unit: e.k_max - min(int(rul), e.k_max - min_logged) for e, rul in zip(engines, ruls)
    }


def stream_records(engines, last_cycle: dict) -> list[tuple[int, int, str]]:
    """(unit, cycle, JSON line) per unit and cycle, interleaved by cycle across units."""
    records = []
    for cycle in range(1, max(last_cycle.values()) + 1):
        for e in engines:
            if cycle <= last_cycle[e.unit]:
                line = json.dumps(
                    {"unit": e.unit, "cycle": cycle, "sensors": e.sensors[cycle - 1].tolist()}
                )
                records.append((e.unit, cycle, line))
    return records
