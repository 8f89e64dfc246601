"""Piecewise RUL labels, change-point-informed standardization, and windowing.

Matrices in this module are cycle-major: (N, m) with one row per cycle, the
orientation the windowed regressor consumes.

A training set holds the fleet's standardized rows once, every series
stacked into one array, plus the start row of every window; no window spans
two series. A batch's (B, L, m) windows are gathered when it is indexed, so
the (n, L, m) tensor, which repeats each row up to L times, is never built.
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
    y_max = k_max - k_cp, so a change point at the last cycle gives all-zero
    labels; without one the fixed fallback cap applies.
    """
    if k_max < 1:
        raise IntegrityError(f"lifespan must be >= 1, got {k_max}")
    if k_cp is not None:
        if not 1 <= k_cp <= k_max:
            raise IntegrityError(f"change point {k_cp} must lie in 1..{k_max}")
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


def sliding_windows(rows: np.ndarray, labels, length: int, units) -> WindowedDataset:
    """Cut a fleet's stacked (R, m) rows into length-L windows, none spanning
    two series.

    ``rows`` stacks every series' rows, one C-contiguous float array that the
    windows view (anything else is converted first); ``labels`` holds one label
    array per series, whose lengths split ``rows`` into series, and ``units``
    one unit id per series. A series of N cycles gives the windows ending at
    its cycles L..N, each targeting the label at its final cycle; one shorter
    than a window gives none. Raises InsufficientDataError when no series gives
    a window.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    lengths = np.array([len(y) for y in labels], dtype=int)
    if lengths.sum() != rows.shape[0] or len(units) != len(lengths):
        raise IntegrityError(
            f"{rows.shape[0]} rows, {lengths.sum()} labels in {len(lengths)} series "
            f"and {len(units)} unit ids do not pair"
        )
    if length < 1:
        raise IntegrityError("window length must be >= 1")
    counts = np.maximum(lengths - length + 1, 0)
    if not counts.any():
        raise InsufficientDataError(f"no series holds one window of {length} cycles")
    series = np.repeat(np.arange(len(lengths)), counts)
    ends = np.concatenate([np.arange(length, n + 1) for n in lengths])
    last_rows = (np.cumsum(lengths) - lengths)[series] + ends - 1
    return WindowedDataset(
        windows=WindowView(rows, last_rows - (length - 1), length),
        targets=np.concatenate(labels)[last_rows].astype(float),
        units=np.asarray(units, dtype=int)[series],
        end_cycles=ends,
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

