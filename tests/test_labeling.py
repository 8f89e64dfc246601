import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from changepoint_rul.config import default_config
from changepoint_rul.errors import InsufficientDataError, IntegrityError
from changepoint_rul.labeling import (
    piecewise_rul_labels,
    pooled_standardizer,
    sliding_windows,
    trailing_window,
)
from changepoint_rul.cva import apply_standardizer
from changepoint_rul.pipeline import _selected_train_engines, build_training_data, run_detect

from synthetic import write_corpus


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
            piecewise_rul_labels(100, 101)
        with pytest.raises(IntegrityError):
            piecewise_rul_labels(100, 0)

    def test_change_point_at_last_cycle_gives_zero_labels(self):
        # the detector's range: a breach run that starts at the final cycle
        labels = piecewise_rul_labels(100, 100)
        np.testing.assert_array_equal(labels, np.zeros(100))


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
        ds = sliding_windows(x, [labels], 50, [0])
        assert len(ds) == 11
        assert ds.windows.shape == (11, 50, 2)

    def test_single_window_boundary(self):
        x = np.arange(50 * 2, dtype=float).reshape(50, 2)
        labels = np.arange(50)[::-1]
        ds = sliding_windows(x, [labels], 50, [0])
        assert len(ds) == 1
        assert ds.targets[0] == labels[49]
        assert ds.end_cycles[0] == 50

    def test_end_of_life_window_target_zero(self):
        labels = piecewise_rul_labels(344, 240)
        x = np.zeros((344, 3))
        ds = sliding_windows(x, [labels], 50, [116])
        assert ds.targets[-1] == 0.0
        assert ds.end_cycles[-1] == 344
        assert set(ds.units.tolist()) == {116}

    def test_consecutive_windows_overlap(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        ds = sliding_windows(x, [np.zeros(40)], 10, [0])
        np.testing.assert_array_equal(ds.windows[0][1:], ds.windows[1][:-1])

    def test_too_short_series_raises(self):
        with pytest.raises(InsufficientDataError):
            sliding_windows(np.zeros((10, 2)), [np.zeros(10)], 20, [0])

    def test_label_length_mismatch(self):
        with pytest.raises(IntegrityError):
            sliding_windows(np.zeros((10, 2)), [np.zeros(9)], 5, [0])
        with pytest.raises(IntegrityError):
            sliding_windows(np.zeros((10, 2)), [np.zeros(4), np.zeros(6)], 5, [0])

    def test_fleet_without_a_full_window_raises(self):
        with pytest.raises(InsufficientDataError):
            sliding_windows(np.zeros((25, 2)), [np.zeros(10), np.zeros(15)], 20, [1, 2])
        with pytest.raises(InsufficientDataError):
            sliding_windows(np.zeros((0, 2)), [], 5, [])

    def test_no_window_spans_two_series(self):
        # three series of 12, 3 and 8 cycles; every row holds its series' unit
        lengths, unit_ids, length = (12, 3, 8), (7, 8, 9), 5
        x = np.repeat(np.array(unit_ids, dtype=float), lengths)[:, None] * [1.0, -1.0]
        labels = [np.arange(n)[::-1] + 100 * u for n, u in zip(lengths, unit_ids)]
        ds = sliding_windows(x, labels, length, unit_ids)
        assert len(ds) == (12 - 4) + 0 + (8 - 4)
        np.testing.assert_array_equal(ds.units, [7] * 8 + [9] * 4)
        np.testing.assert_array_equal(ds.end_cycles, list(range(5, 13)) + list(range(5, 9)))
        expected = [712 - e for e in range(5, 13)] + [908 - e for e in range(5, 9)]
        np.testing.assert_array_equal(ds.targets, expected)
        owners = ds.windows[:][:, :, 0]
        np.testing.assert_array_equal(owners, np.repeat(ds.units[:, None], length, axis=1))
        assert ds.windows.rows is x  # viewed, not copied


class TestTrailingWindow:
    def test_long_series_takes_tail(self):
        x = np.arange(20, dtype=float)[:, None]
        w = trailing_window(x, 5)
        np.testing.assert_array_equal(w.ravel(), [15, 16, 17, 18, 19])

    def test_short_series_left_pads_first_cycle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = trailing_window(x, 4)
        np.testing.assert_array_equal(w, [[1, 2], [1, 2], [1, 2], [3, 4]])


@pytest.fixture(scope="module")
def desk_fleet(tmp_path_factory):
    """The desk corpus's selected train engines and their detection outcomes."""
    data_dir = tmp_path_factory.mktemp("desk")
    write_corpus(data_dir, n_train=20, n_test=8, seed=11, short_every=5)
    config = default_config("FD001", data_dir=str(data_dir))
    _, engines = _selected_train_engines(config, None)
    outcomes, _ = run_detect(config, engines=engines, write=False)
    return config, engines, outcomes


class TestTrainingWindows:
    def test_gathered_windows_equal_stacked_slices(self, desk_fleet):
        config, engines, outcomes = desk_fleet
        # L is the second-shortest lifespan: one engine fills exactly one
        # window, the shortest is skipped
        lifespans = sorted({e.k_max for e in engines})
        length = lifespans[1]
        assert sum(e.k_max == lifespans[0] for e in engines) == 1
        pooled, ds = build_training_data(
            replace(config, sequence_length=length), engines, outcomes
        )

        by_unit = {o.unit_id: o for o in outcomes}
        windows, targets, units, ends = [], [], [], []
        for e in engines:
            if e.k_max < length:
                continue
            x = apply_standardizer(pooled, e.sensors.T).T
            labels = piecewise_rul_labels(e.k_max, by_unit[e.unit_id].k_cp, config.fallback_cap)
            for end in range(length, e.k_max + 1):
                windows.append(x[end - length : end])
                targets.append(labels[end - 1])
                units.append(e.unit_id)
                ends.append(end)
        dense = np.stack(windows)
        assert ds.windows.shape == dense.shape == (len(ds), length, 14)
        np.testing.assert_array_equal(ds.targets, targets)
        np.testing.assert_array_equal(ds.units, units)
        np.testing.assert_array_equal(ds.end_cycles, ends)
        exact = next(e.unit_id for e in engines if e.k_max == length)
        short = next(e.unit_id for e in engines if e.k_max < length)
        assert units.count(exact) == 1 and short not in units

        # each window equals its own engine's slice, so none spans two engines
        np.testing.assert_array_equal(ds.windows[:], dense)
        for i in (0, len(ds) // 2, len(ds) - 1, -1):
            np.testing.assert_array_equal(ds.windows[i], dense[i])
        for part in (slice(None), slice(3, 40), slice(None, None, -7)):
            np.testing.assert_array_equal(ds.windows[part], dense[part])
        pick = np.random.default_rng(0).choice(len(ds), 64, replace=False)
        np.testing.assert_array_equal(ds.windows[pick], dense[pick])
        assert ds.windows.nbytes == dense.nbytes

    def test_build_holds_no_window_tensor(self, desk_fleet):
        config, engines, outcomes = desk_fleet
        tracemalloc.start()
        try:
            _, ds = build_training_data(config, engines, outcomes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.windows.nbytes / 10
