"""Property test of the stream boundary: whatever text arrives on a line,
``StreamMonitor.process_line`` answers with strict-JSON events and raises
nothing but a ``PipelineError``."""

import json
from dataclasses import replace

import pytest

from changepoint_rul.config import PipelineConfig
from changepoint_rul.cva import Standardizer
from changepoint_rul.errors import PipelineError
from changepoint_rul.lstm import init_regressor
from changepoint_rul.monitoring import fit_device_monitors
from changepoint_rul.streaming import StreamMonitor

from synthetic import make_engine_series

given = pytest.importorskip("hypothesis").given
st = pytest.importorskip("hypothesis.strategies")

M = 5
SERIES = make_engine_series(1, 200, None, seed=21, n_channels=M)
MONITOR = fit_device_monitors([SERIES], PipelineConfig(r=M))[0].monitor
# Unit 2 declares its change point on the first breach, so RUL estimates follow.
MONITORS = {1: MONITOR, 2: replace(MONITOR, persistence=0)}
REGRESSOR = init_regressor(M, (4,), (), sequence_length=6)
POOLED = Standardizer(mean=SERIES.sensors.mean(axis=0), std=SERIES.sensors.std(axis=0))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
readings = st.floats() | st.integers() | st.sampled_from([1e100, 1e101])
records = st.fixed_dictionaries(
    {
        "unit": st.sampled_from([1, 2, 3]) | json_values,
        "cycle": st.just("next") | json_values,
        "sensors": st.lists(readings, min_size=M, max_size=M)
        | st.lists(readings, min_size=21, max_size=21)
        | json_values,
    }
)
# Records on the next cycle with finite readings, often far enough off normal
# to breach the limits, so that devices reach the degrading state and RUL
# estimates, and at times large enough to overflow the squared statistics.
finite = st.floats(allow_nan=False, allow_infinity=False)
next_records = st.fixed_dictionaries(
    {
        "unit": st.sampled_from([1, 2]),
        "cycle": st.just("next"),
        "sensors": st.lists(st.floats(-20.0, 20.0) | finite, min_size=M, max_size=M),
    }
)
lines = st.text() | json_values.map(json.dumps) | records | next_records | next_records


def as_line(stream, item):
    """Text as drawn; a record as JSON, "next" standing for its unit's next cycle."""
    if isinstance(item, str):
        return item
    record = dict(item)
    if record["cycle"] == "next":
        state = stream.states.get(record["unit"]) if isinstance(record["unit"], int) else None
        record["cycle"] = state.last_cycle + 1 if state else 1
    return json.dumps(record)  # NaN and Infinity tokens included


@given(st.lists(lines, max_size=40))
def test_process_line_answers_every_line_with_strict_json(items):
    stream = StreamMonitor(MONITORS, list(range(1, M + 1)), regressor=REGRESSOR, pooled=POOLED)
    for item in items:
        line = as_line(stream, item)
        try:
            events = stream.process_line(line)
        except PipelineError:
            continue
        if line.strip():
            assert events
        json.dumps(events, allow_nan=False)
