import numpy as np
import pytest

from changepoint_rul.errors import InsufficientDataError, IntegrityError
from changepoint_rul.labeling import (
    WindowedDataset,
    piecewise_rul_labels,
    pooled_standardizer,
    sliding_windows,
    trailing_window,
)
from changepoint_rul.cva import apply_standardizer


class TestPiecewiseLabels:
    def test_change_point_sets_cap(self):
        labels = piecewise_rul_labels(344, 240)
        assert labels.max() == 104
        assert labels[0] == 104
        assert labels[-1] == 0
        assert len(labels) == 344

    def test_fallback_cap(self):
        labels = piecewise_rul_labels(150, None, fallback_cap=130)
        assert labels.max() == 130
        assert labels[0] == 130
        assert labels[149] == 0
        # decay starts at cycle k_max - cap = 20
        assert labels[19] == 130
        assert labels[20] == 129

    def test_boundary_change_point(self):
        labels = piecewise_rul_labels(100, 99)
        assert labels.max() == 1
        assert np.all(labels[:99] == 1)
        assert labels[99] == 0

    def test_nonincreasing_single_slope_change(self):
        labels = piecewise_rul_labels(300, 180)
        diffs = np.diff(labels)
        assert np.all(diffs <= 0)
        assert set(diffs.tolist()) == {0, -1}
        # exactly one transition from flat to decaying
        changes = np.diff((diffs == -1).astype(int))
        assert np.sum(changes == 1) == 1

    def test_invalid_change_point(self):
        with pytest.raises(IntegrityError):
            piecewise_rul_labels(100, 100)
        with pytest.raises(IntegrityError):
            piecewise_rul_labels(100, 0)


class TestPooledStandardizer:
    def test_pooled_segments_standardize_to_unit(self):
        rng = np.random.default_rng(3)
        segments = [rng.normal(loc=5.0, scale=3.0, size=(n, 4)) for n in (50, 80, 120)]
        pooled = pooled_standardizer(segments)
        stacked = np.vstack(segments)
        z = apply_standardizer(pooled, stacked.T).T
        assert np.max(np.abs(z.mean(axis=0))) < 1e-8
        assert np.max(np.abs(z.std(axis=0, ddof=1) - 1.0)) < 1e-8


class TestSlidingWindows:
    def test_window_count(self):
        x = np.arange(60 * 2, dtype=float).reshape(60, 2)
        labels = np.arange(60)[::-1]
        ds = sliding_windows(x, labels, 50)
        assert len(ds) == 11
        assert ds.windows.shape == (11, 50, 2)

    def test_single_window_boundary(self):
        x = np.arange(50 * 2, dtype=float).reshape(50, 2)
        labels = np.arange(50)[::-1]
        ds = sliding_windows(x, labels, 50)
        assert len(ds) == 1
        assert ds.targets[0] == labels[49]
        assert ds.end_cycles[0] == 50

    def test_end_of_life_window_target_zero(self):
        labels = piecewise_rul_labels(344, 240)
        x = np.zeros((344, 3))
        ds = sliding_windows(x, labels, 50, unit_id=116)
        assert ds.targets[-1] == 0.0
        assert ds.end_cycles[-1] == 344

    def test_consecutive_windows_overlap(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        ds = sliding_windows(x, np.zeros(40), 10)
        np.testing.assert_array_equal(ds.windows[0][1:], ds.windows[1][:-1])

    def test_too_short_series_raises(self):
        with pytest.raises(InsufficientDataError):
            sliding_windows(np.zeros((10, 2)), np.zeros(10), 20)

    def test_label_length_mismatch(self):
        with pytest.raises(IntegrityError):
            sliding_windows(np.zeros((10, 2)), np.zeros(9), 5)


class TestTrailingWindow:
    def test_long_series_takes_tail(self):
        x = np.arange(20, dtype=float)[:, None]
        w = trailing_window(x, 5)
        np.testing.assert_array_equal(w.ravel(), [15, 16, 17, 18, 19])

    def test_short_series_left_pads_first_cycle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = trailing_window(x, 4)
        np.testing.assert_array_equal(w, [[1, 2], [1, 2], [1, 2], [3, 4]])


def test_concatenate_requires_parts():
    with pytest.raises(InsufficientDataError):
        WindowedDataset.concatenate([])
