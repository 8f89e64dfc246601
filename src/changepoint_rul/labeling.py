"""Piecewise RUL labels, change-point-informed standardization, and windowing.

Matrices in this module are cycle-major: (N, m) with one row per cycle, the
orientation the windowed regressor consumes.

A training set holds each engine's standardized rows once, stacked into one
array, plus the start row of every window. A batch's (B, L, m) windows are
gathered when it is indexed, so the (n, L, m) tensor, which repeats each row
up to L times, is never built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cva import Standardizer, fit_standardizer
from .errors import InsufficientDataError, IntegrityError

DEFAULT_RUL_CAP = 130


def piecewise_rul_labels(
    k_max: int, k_cp: int | None = None, fallback_cap: int = DEFAULT_RUL_CAP
) -> np.ndarray:
    """Per-cycle RUL labels of one device: constant at y_max, then linear
    decay to zero; index i holds the label of cycle i + 1.

    With a change point the cap is the remaining life at that point,
    y_max = k_max - k_cp; without one the fixed fallback cap applies.
    """
    if k_max < 1:
        raise IntegrityError(f"lifespan must be >= 1, got {k_max}")
    if k_cp is not None:
        if not 1 <= k_cp < k_max:
            raise IntegrityError(f"change point {k_cp} must lie in 1..{k_max - 1}")
        y_max = k_max - k_cp
    else:
        y_max = fallback_cap
    cycles = np.arange(1, k_max + 1)
    return np.minimum(k_max - cycles, y_max)


def pooled_standardizer(segments) -> Standardizer:
    """Fit one global standardizer over stacked pre-change-point segments.

    ``segments`` is an iterable of (N_j, m) matrices, one per train device.
    """
    stacked = np.vstack([np.asarray(seg, dtype=float) for seg in segments])
    return fit_standardizer(stacked.T)


class WindowView:
    """Length-L windows over one (R, m) row array, gathered when indexed.

    Window i covers ``rows[starts[i] : starts[i] + length]``. Indexing by an
    int, a slice or an int array returns a fresh ndarray, (L, m) or (k, L, m),
    equal to ``np.stack`` of those slices, so ``view[:]`` is the whole
    (n, L, m) tensor. ``nbytes`` is that tensor's size, which is never held.
    """

    def __init__(self, rows: np.ndarray, starts: np.ndarray, length: int):
        self.rows = rows
        self.starts = starts
        self.length = length

    @property
    def shape(self) -> tuple:
        return (len(self.starts), self.length, self.rows.shape[1])

    @property
    def nbytes(self) -> int:
        return len(self.starts) * self.length * self.rows.shape[1] * self.rows.itemsize

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, idx) -> np.ndarray:
        return self.rows[np.add.outer(self.starts[idx], np.arange(self.length))]


@dataclass(frozen=True)
class WindowedDataset:
    """Fixed-length training windows with the RUL label at each window's end.

    ``windows`` is a WindowView, or a dense (n, L, m) array for a sample
    already gathered; indexing either gives the same ndarray.
    """

    windows: WindowView | np.ndarray  # (n, L, m)
    targets: np.ndarray  # (n,)
    units: np.ndarray  # (n,) provenance
    end_cycles: np.ndarray  # (n,) provenance

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def sequence_length(self) -> int:
        return self.windows.shape[1]

    @property
    def n_channels(self) -> int:
        return self.windows.shape[2]

    @classmethod
    def concatenate(cls, parts) -> "WindowedDataset":
        """Join datasets from ``sliding_windows``: their rows are stacked once
        and each part's window starts shifted past the rows before it."""
        parts = list(parts)
        if not parts:
            raise InsufficientDataError("no windowed data to concatenate")
        views = [p.windows for p in parts]
        offsets = np.cumsum([0] + [len(v.rows) for v in views[:-1]])
        return cls(
            windows=WindowView(
                np.concatenate([v.rows for v in views]),
                np.concatenate([v.starts + offset for v, offset in zip(views, offsets)]),
                views[0].length,
            ),
            targets=np.concatenate([p.targets for p in parts]),
            units=np.concatenate([p.units for p in parts]),
            end_cycles=np.concatenate([p.end_cycles for p in parts]),
        )


def sliding_windows(
    x: np.ndarray, labels: np.ndarray, length: int, unit_id: int = 0
) -> WindowedDataset:
    """Cut a (N, m) matrix into length-L windows ending at cycles L..N.

    The windows are a view over a private C-contiguous copy of ``x``, with
    one start row per window. The target of each window is the label at its
    final cycle. Raises InsufficientDataError when the series is shorter
    than one window; the pipeline skips such devices with a warning.
    """
    x = np.array(x, dtype=float, order="C")
    labels = np.asarray(labels)
    n = x.shape[0]
    if labels.shape[0] != n:
        raise IntegrityError(f"{n} cycles but {labels.shape[0]} labels")
    if length < 1:
        raise IntegrityError("window length must be >= 1")
    if n < length:
        raise InsufficientDataError(f"unit {unit_id}: {n} cycles < window length {length}")
    ends = np.arange(length, n + 1)
    return WindowedDataset(
        windows=WindowView(x, ends - length, length),
        targets=labels[ends - 1].astype(float),
        units=np.full(len(ends), unit_id, dtype=int),
        end_cycles=ends.astype(int),
    )


def trailing_window(x: np.ndarray, length: int) -> np.ndarray:
    """Last L cycles of a (N, m) matrix, left-padded by repeating the first
    cycle when the series is shorter than one window."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n >= length:
        return x[n - length :]
    pad = np.repeat(x[:1], length - n, axis=0)
    return np.vstack([pad, x])

