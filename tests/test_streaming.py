import json
from dataclasses import replace

import numpy as np
import pytest

from changepoint_rul.config import PipelineConfig
from changepoint_rul.cva import CvaModel, Standardizer
from changepoint_rul.errors import ConfigError, ShapeError
from changepoint_rul.lstm import LstmLayer, LstmRegressor, init_regressor
from changepoint_rul.monitoring import MonitorModel
from changepoint_rul.streaming import StreamMonitor

from synthetic import make_engine_series


def scalar_monitor(cl_t2=4.0, cl_q=1e9, persistence=3):
    """Identity single-channel monitor: t2 at cycle k equals x_{k-1}^2."""
    cva = CvaModel(
        p=1,
        r=1,
        w=np.eye(1),
        vr=np.eye(1),
        singular_values=np.ones(1),
        j=np.eye(1),
        j_res=np.zeros((1, 1)),
    )
    standardizer = Standardizer(mean=np.zeros(1), std=np.ones(1))
    return MonitorModel(standardizer, cva, cl_t2=cl_t2, cl_q=cl_q, persistence=persistence)


def one_unit_regressor(dtype=np.float64):
    """A one-input, one-unit LSTM of zeros reading 3-cycle windows."""
    layer = LstmLayer(np.zeros((4, 1), dtype), np.zeros((4, 1), dtype), np.zeros(4, dtype))
    return LstmRegressor(
        layers=[layer],
        dropout_ratios=(),
        head_w=np.zeros(1, dtype),
        head_b=np.zeros(1, dtype),
        seed=0,
        sequence_length=3,
    )


def stream_values(monitor, values, unit=1):
    sm = StreamMonitor({unit: monitor}, kept_indices=[1])
    events = []
    for cycle, v in enumerate(values, start=1):
        events.extend(sm.process_record({"unit": unit, "cycle": cycle, "sensors": [v]}))
    return events


def cp_events(events):
    return [e for e in events if e["type"] == "change_point"]


class TestPersistenceRule:
    def test_stationary_stream_stays_normal(self):
        events = stream_values(scalar_monitor(), [0.5] * 30)
        assert not cp_events(events)
        assert all(e["status"] == "normal" for e in events if e["type"] == "status")

    def test_runs_shorter_than_persistence_reset(self):
        # persistence 3: breach runs of length 2 separated by normal cycles
        values = ([0.0, 3.0, 3.0] * 5) + [0.0] * 3  # |x|>=2 breaches cl_t2=4
        events = stream_values(scalar_monitor(persistence=3), values)
        assert not cp_events(events)
        statuses = [e["status"] for e in events if e["type"] == "status"]
        assert "transition" in statuses
        assert "degrading" not in statuses

    def test_runs_of_exactly_persistence_do_not_trigger(self):
        values = [0.0, 3.0, 3.0, 3.0, 0.0, 0.0]  # run of 3 == persistence
        events = stream_values(scalar_monitor(persistence=3), values)
        assert not cp_events(events)

    def test_run_exceeding_persistence_triggers_at_run_start(self):
        # cycle k statistic reflects x_{k-1}; breaches start at cycle 6
        values = [0.0] * 4 + [3.0] * 10
        events = stream_values(scalar_monitor(persistence=3), values)
        cps = cp_events(events)
        assert len(cps) == 1
        assert cps[0]["k_cp"] == 6
        assert cps[0]["cycle"] == 9  # persistence 3 exceeded on the 4th breach
        last_status = [e for e in events if e["type"] == "status"][-1]
        assert last_status["status"] == "degrading"

    def test_zero_persistence_triggers_on_first_breach(self):
        values = [0.0, 0.0, 5.0, 5.0]
        events = stream_values(scalar_monitor(persistence=0), values)
        cps = cp_events(events)
        assert cps[0]["k_cp"] == 4
        assert cps[0]["cycle"] == 4

    def test_statuses_monotone(self):
        values = [0.0, 3.0, 0.0] + [3.0] * 6
        events = stream_values(scalar_monitor(persistence=2), values)
        order = {"normal": 0, "transition": 1, "degrading": 2}
        levels = [order[e["status"]] for e in events if e["type"] == "status"]
        assert levels == sorted(levels)


class TestRecordValidation:
    def test_unknown_unit_rejected(self):
        sm = StreamMonitor({1: scalar_monitor()}, kept_indices=[1])
        events = sm.process_record({"unit": 5, "cycle": 1, "sensors": [0.0]})
        assert events[0]["type"] == "rejected"
        assert "unknown unit" in events[0]["reason"]

    def test_bad_sensor_count_rejected(self):
        sm = StreamMonitor({1: scalar_monitor()}, kept_indices=[1])
        events = sm.process_record({"unit": 1, "cycle": 1, "sensors": [0.0, 1.0, 2.0]})
        assert events[0]["type"] == "rejected"

    def test_non_monotone_cycle_rejected(self):
        sm = StreamMonitor({1: scalar_monitor()}, kept_indices=[1])
        sm.process_record({"unit": 1, "cycle": 1, "sensors": [0.0]})
        events = sm.process_record({"unit": 1, "cycle": 1, "sensors": [0.0]})
        assert events[0]["type"] == "rejected"

    def test_cycle_gap_rejected(self):
        sm = StreamMonitor({1: scalar_monitor()}, kept_indices=[1])
        sm.process_record({"unit": 1, "cycle": 1, "sensors": [0.0]})
        events = sm.process_record({"unit": 1, "cycle": 3, "sensors": [0.0]})
        assert events[0]["type"] == "rejected"

    def test_invalid_json_rejected(self):
        sm = StreamMonitor({1: scalar_monitor()}, kept_indices=[1])
        events = sm.process_line("{broken")
        assert events[0]["type"] == "rejected"

    def test_missing_fields_rejected(self):
        sm = StreamMonitor({1: scalar_monitor()}, kept_indices=[1])
        events = sm.process_record({"unit": 1, "cycle": 2})
        assert events[0]["type"] == "rejected"

    @pytest.mark.parametrize(
        "record",
        [
            {"unit": 1, "cycle": 1, "sensors": ["a", 1]},
            {"unit": [1], "cycle": 1, "sensors": [0.0]},
            {"unit": True, "cycle": 1, "sensors": [0.0]},
            {"unit": 1.0, "cycle": 1, "sensors": [0.0]},
            {"unit": 1, "cycle": "x", "sensors": [0.0]},
            {"unit": 1, "cycle": 1.7, "sensors": [0.0]},
            {"unit": 1, "cycle": True, "sensors": [0.0]},
            {"unit": 1, "cycle": 1, "sensors": [float("nan")]},
            {"unit": 1, "cycle": 1, "sensors": [float("inf")]},
            {"unit": 1, "cycle": 1, "sensors": [10**400]},
            {"unit": 1, "cycle": 1, "sensors": [1e300]},
            "[" * 100_000,
            '{"unit": 1' + "0" * 5000 + ', "cycle": 1, "sensors": [0.0]}',
            '{"unit": 1, "cycle": 1, "sensors": [1' + "0" * 5000 + "]}",
        ],
        ids=[
            "text-sensor",
            "list-unit",
            "bool-unit",
            "float-unit",
            "text-cycle",
            "fractional-cycle",
            "bool-cycle",
            "nan-sensor",
            "inf-sensor",
            "int-sensor-beyond-float",
            "huge-sensor",
            "json-nested-too-deep",
            "json-int-unit-too-long",
            "json-int-sensor-too-long",
        ],
    )
    def test_malformed_values_rejected(self, record):
        sm = StreamMonitor({1: scalar_monitor()}, kept_indices=[1])
        if isinstance(record, str):
            events = sm.process_line(record)
        else:
            events = sm.process_record(record)
        assert [e["type"] for e in events] == ["rejected"]
        json.dumps(events, allow_nan=False)
        assert sm.states == {}  # a rejected record leaves no device state behind

    @pytest.mark.parametrize("sensors", [["521.3"], [True]], ids=["numeric-text", "bool"])
    def test_sensor_entries_must_be_json_numbers(self, sensors):
        sm = StreamMonitor({1: scalar_monitor()}, kept_indices=[1])
        events = sm.process_line(json.dumps({"unit": 1, "cycle": 1, "sensors": sensors}))
        assert events == [
            {"type": "rejected", "reason": "sensors must be numbers", "unit": 1, "cycle": 1}
        ]
        assert sm.states == {}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reading_beyond_regressor_range(self, dtype):
        # 1e50 standardized is finite in float64 but overflows a float32 model
        pooled = Standardizer(mean=np.zeros(1), std=np.ones(1))
        sm = StreamMonitor(
            {1: scalar_monitor(persistence=0)},
            kept_indices=[1],
            regressor=one_unit_regressor(dtype),
            pooled=pooled,
        )
        for cycle, value in ((1, 0.0), (2, 10.0)):
            sm.process_record({"unit": 1, "cycle": cycle, "sensors": [value]})
        events = sm.process_record({"unit": 1, "cycle": 3, "sensors": [1e50]})  # degrading
        if dtype == np.float64:
            assert [e["type"] for e in events] == ["status", "change_point"]
            assert events[0]["rul"] == 0.0
        else:
            assert [e["type"] for e in events] == ["rejected"]
            assert "float32 range" in events[0]["reason"]
            assert sm.states[1].last_cycle == 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_regressor_without_pooled_standardizer_refused(self, dtype):
        with pytest.raises(ConfigError, match="pooled standardizer"):
            StreamMonitor(
                {1: scalar_monitor()}, kept_indices=[1], regressor=one_unit_regressor(dtype)
            )

    @pytest.mark.parametrize(
        "mean, std",
        [(np.zeros(2), np.ones(1)), (np.zeros(1), np.ones(2)), (np.zeros((1, 1)), np.ones((1, 1)))],
        ids=["mean", "std", "both_2d"],
    )
    def test_pooled_standardizer_of_wrong_shape_refused(self, mean, std):
        pooled = Standardizer(mean=mean, std=std)
        with pytest.raises(ShapeError, match="1 kept sensors"):
            StreamMonitor(
                {1: scalar_monitor()},
                kept_indices=[1],
                regressor=one_unit_regressor(np.float32),
                pooled=pooled,
            )

    def test_regressor_of_wrong_input_dim_refused(self):
        # a two-input regressor over one kept sensor would fail at its first degrading cycle
        pooled = Standardizer(mean=np.zeros(1), std=np.ones(1))
        with pytest.raises(ShapeError, match="input dim 2"):
            StreamMonitor(
                {1: scalar_monitor(persistence=0)},
                kept_indices=[1],
                regressor=init_regressor(2, (3,), (), sequence_length=3),
                pooled=pooled,
            )

    def test_overflowing_statistics_rejected(self):
        """A finite but huge whitening transform sends t2 to inf; that record
        gets a rejected event, later cycles still stream, and every event
        stays strict JSON."""
        cva = CvaModel.from_transforms(1, np.full((1, 1), 1e200), np.eye(1), np.ones(1))
        monitor = replace(scalar_monitor(), cva=cva)
        with pytest.warns(RuntimeWarning, match="overflow"):
            events = stream_values(monitor, [0.0, 1.0, 0.0, 0.0])
        assert [e["type"] for e in events] == ["status", "status", "rejected", "status"]
        assert events[2] == {
            "type": "rejected",
            "reason": "statistics overflow under the monitor of unit 1",
            "unit": 1,
            "cycle": 3,
        }
        for event in events:
            json.dumps(event, allow_nan=False)


class TestInjectedShift:
    def test_event_within_persistence_window_of_shift(self):
        from changepoint_rul.monitoring import fit_device_monitors

        series = make_engine_series(1, 260, None, seed=21, n_channels=5)
        result = fit_device_monitors([series], PipelineConfig(r=5))[0]
        monitor = result.monitor
        assert result.k_cp is None

        shift_at = 150
        sensors = series.sensors.copy()
        sensors[shift_at - 1 :] += 6.0  # mean shift from cycle 150 on every channel

        sm = StreamMonitor({1: monitor}, kept_indices=list(range(1, 6)))
        events = []
        for i in range(sensors.shape[0]):
            events.extend(
                sm.process_record(
                    {"unit": 1, "cycle": i + 1, "sensors": sensors[i].tolist()}
                )
            )
        cps = cp_events(events)
        assert len(cps) == 1
        # statistic lags the shift by one cycle; detection needs persistence+1 breaches
        assert shift_at <= cps[0]["k_cp"] <= shift_at + 2
        assert cps[0]["cycle"] <= shift_at + monitor.persistence + 3
