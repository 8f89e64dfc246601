"""C-MAPSS text-log ingestion and dataset-specific sensor selection.

Input files are ASCII with 26 space- or tab-separated positional columns
per row: unit id, cycle, 3 operating settings, 21 sensor channels. No
headers. Trailing whitespace, blank lines and CRLF line ends are tolerated
(the raw distribution contains trailing spaces). Every value must be finite
and at most MAX_ABS_READING in magnitude.

``detect``, ``train`` and ``evaluate`` read each train/test log with
``read_cmapss_file``, which gives the engines and errors that
``parse_cmapss_file`` gives for the file's text read as UTF-8 with universal
newlines (so a lone CR ends a row there too). A log on the grammar goes from
the file straight into numpy's chunked reader, with no whole-log string.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IntegrityError, ParseError

DATASETS = ("FD001", "FD002", "FD003", "FD004")

N_OP_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_OP_SETTINGS + N_SENSORS

# Larger readings, in a log or in the stream, are rejected as corrupt: a normal
# window's variance must stay finite, and so must the squared statistics once
# the readings are standardized and lagged.
MAX_ABS_READING = 1e100

# 1-based sensor indices dropped per dataset: flat/constant channels for the
# single-condition datasets, erratic range-bound channels for the
# multi-condition ones.
EXCLUDED_SENSORS = {
    "FD001": (1, 5, 6, 10, 16, 18, 19),
    "FD002": (10, 13, 16, 18, 19),
    "FD003": (1, 5, 6, 10, 16, 18, 19),
    "FD004": (10, 13, 16, 18, 19),
}


def _check_dataset_id(dataset_id: str) -> str:
    if dataset_id not in DATASETS:
        raise IntegrityError(f"unknown dataset id {dataset_id!r}, expected one of {DATASETS}")
    return dataset_id


@dataclass(frozen=True)
class EngineSeries:
    """One engine's cycle-indexed operating settings and sensor channels.

    ``cycles`` is the contiguous range 1..k_max. ``sensors`` is row-per-cycle;
    it has 21 channels as parsed and ``m`` kept channels after selection.
    """

    dataset_id: str
    unit_id: int
    cycles: np.ndarray
    op_settings: np.ndarray
    sensors: np.ndarray

    @property
    def k_max(self) -> int:
        return int(self.cycles[-1])

    @property
    def n_channels(self) -> int:
        return self.sensors.shape[1]


@dataclass(frozen=True)
class SensorSelection:
    """Kept 1-based sensor indices for a dataset."""

    dataset_id: str
    kept_indices: tuple

    @property
    def m(self) -> int:
        return len(self.kept_indices)

    @property
    def column_indices(self) -> np.ndarray:
        """0-based positions of the kept channels inside a 21-wide sensor row."""
        return np.asarray(self.kept_indices, dtype=int) - 1


@dataclass(frozen=True)
class RulTarget:
    """True remaining life (cycles) of one test engine at its data cutoff."""

    dataset_id: str
    unit_id: int
    true_rul_at_cutoff: int


def parse_cmapss_file(text: str, dataset_id: str = "FD001") -> list[EngineSeries]:
    """Parse a train/test log, in one ``np.loadtxt`` call, into per-engine series.

    Raises ParseError naming the first row off the module docstring's grammar,
    with a value that is not finite or beyond MAX_ABS_READING in magnitude, or
    with a unit id that is not a positive integer, and
    IntegrityError naming the unit when its cycles are not 1..k_max.
    """
    _check_dataset_id(dataset_id)
    rows = text.split("\n")
    table = _table(rows) if _plain_ascii(text) else None
    if table is None:
        raise _row_error(rows)
    return _engines(table, dataset_id)


def read_cmapss_file(path, dataset_id: str = "FD001") -> list[EngineSeries]:
    """Read a train/test log file into per-engine series, with the results and
    errors ``parse_cmapss_file`` gives for the file's text read as UTF-8 with
    universal newlines (undecodable bytes as surrogates).

    A file of plain ASCII goes straight to numpy's chunked file reader, so no
    whole-log string or row list is built; any file that check or the parse
    rejects is parsed from its text, so the error names the same row.
    """
    with open(path, "rb") as fh:  # a missing file raises first, as reading its text would
        chunks = iter(lambda: fh.read(1 << 20), b"")
        plain = all(map(_plain_ascii, chunks))
    _check_dataset_id(dataset_id)
    # numpy opens a path str through np.lib._datasource, which takes "scheme://host/..." for a URL
    table = _table(os.path.abspath(path)) if plain else None
    if table is None:
        text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
        return parse_cmapss_file(text, dataset_id)
    return _engines(table, dataset_id)


def _plain_ascii(text: str | bytes) -> bool:
    # numpy would also split fields on the ASCII whitespace other than space and tab
    excluded = "\v\f\x1c\x1d\x1e\x1f"
    if isinstance(text, bytes):
        excluded = excluded.encode()  # its items are ints, and `int in bytes` finds that byte
    return text.isascii() and not any(c in text for c in excluded)


def _table(source):
    """The (rows, 26) table ``np.loadtxt`` reads from a path or a row list, or
    None when a row is off the grammar, a value is not finite or beyond
    MAX_ABS_READING in magnitude, or a unit id is not a positive integer."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a log with no rows
            table = np.loadtxt(source, encoding="ascii", comments=None, ndmin=2)
    except ValueError:  # also UnicodeDecodeError, if the file changed since its check
        return None
    if not len(table):
        return table
    if table.shape[1] != N_COLUMNS:
        return None
    units = table[:, 0]
    # min/max instead of abs: no table-sized temporary; both are nan if any entry is
    ok = -MAX_ABS_READING <= table.min() and table.max() <= MAX_ABS_READING
    return table if ok and np.all((units > 0) & (units % 1 == 0)) else None


def _engines(table: np.ndarray, dataset_id: str) -> list[EngineSeries]:
    """Split a checked table into engines ordered by unit, each in cycle order;
    IntegrityError names a unit whose cycles are not 1..k_max."""
    if not len(table):
        return []
    step = np.diff(table[:, 0])
    # C-MAPSS logs are already in (unit, cycle) order, and sorting would copy the table
    if not np.all((step > 0) | ((step == 0) & (np.diff(table[:, 1]) > 0))):
        table = table[np.lexsort((table[:, 1], table[:, 0]))]
    engines = []
    for block in np.split(table, np.flatnonzero(np.diff(table[:, 0])) + 1):
        unit = int(block[0, 0])
        cycles = block[:, 1]
        if np.any(cycles != np.round(cycles)):
            raise IntegrityError(f"unit {unit}: non-integer cycle index")
        cycles = cycles.astype(int)
        if cycles[0] != 1 or np.any(np.diff(cycles) != 1):
            raise IntegrityError(
                f"unit {unit}: cycles must form the contiguous range 1..k_max"
            )
        engines.append(
            EngineSeries(
                dataset_id=dataset_id,
                unit_id=unit,
                cycles=cycles,
                op_settings=block[:, 2 : 2 + N_OP_SETTINGS],
                sensors=block[:, 2 + N_OP_SETTINGS :],
            )
        )
    return engines


def _row_error(rows: list) -> ParseError:
    """The ParseError for the first of the ``\n``-split rows that the whole-log
    parse rejects, walking them as ``np.loadtxt`` does; the error path only."""
    for lineno, row in enumerate(rows, start=1):
        fields = [f for f in row.removesuffix("\r").replace("\t", " ").split(" ") if f]
        if fields and len(fields) != N_COLUMNS:
            return ParseError(f"row {lineno}: expected {N_COLUMNS} columns, got {len(fields)}")
        bad = [f for f in fields if not _is_number(f)]
        if bad:
            return ParseError(f"row {lineno}: non-numeric field {bad[0]!r}")
        values = [float(f) for f in fields]
        if not all(abs(v) <= MAX_ABS_READING for v in values):  # also false for nan
            return ParseError(f"row {lineno}: value not finite or beyond {MAX_ABS_READING:g}")
        if values and not (values[0] > 0 and values[0].is_integer()):
            return ParseError(f"row {lineno}: unit id must be a positive integer")
    raise AssertionError("the log was rejected as a whole but every row parses")


def _is_number(field: str) -> bool:
    """A number of the log grammar: what float() reads, if ASCII, printable and without "_"."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and field.isprintable() and "_" not in field


def select_sensors(dataset_id: str) -> SensorSelection:
    """Return the kept-channel table for a dataset."""
    excluded = EXCLUDED_SENSORS[_check_dataset_id(dataset_id)]
    kept = tuple(i for i in range(1, N_SENSORS + 1) if i not in excluded)
    return SensorSelection(dataset_id=dataset_id, kept_indices=kept)


def check_kept_indices(kept, source: str) -> tuple:
    """Kept 1-based sensor indices read from an artifact, checked to be
    distinct ints in 1..21 before they index a sensor row."""
    if not isinstance(kept, list):
        raise IntegrityError(f"{source} holds no list of kept sensor indices")
    for i, index in enumerate(kept):
        if type(index) is not int or not 1 <= index <= N_SENSORS or index in kept[:i]:
            raise IntegrityError(
                f"{source} sensor index {index!r} is not a distinct int in 1..{N_SENSORS}"
            )
    return tuple(kept)


def apply_selection(series: EngineSeries, selection: SensorSelection) -> EngineSeries:
    """Drop excluded channels; the result has ``selection.m`` sensor columns."""
    if series.n_channels != N_SENSORS:
        raise IntegrityError(
            f"unit {series.unit_id}: expected {N_SENSORS} channels before selection, "
            f"got {series.n_channels}"
        )
    return EngineSeries(
        dataset_id=series.dataset_id,
        unit_id=series.unit_id,
        cycles=series.cycles,
        op_settings=series.op_settings.copy(),  # holds no view of the parsed table
        sensors=series.sensors[:, selection.column_indices],
    )


def load_rul_targets(text: str, dataset_id: str = "FD001", expected_count: int | None = None) -> list[RulTarget]:
    """Parse the per-engine true-RUL file, one value per row of the log grammar
    (split on newlines, blank rows skipped); row i maps to test unit i."""
    _check_dataset_id(dataset_id)
    targets = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.removesuffix("\r").strip(" \t")
        if not stripped:
            continue
        if not _is_number(stripped):
            raise ParseError(f"row {lineno}: non-numeric RUL value {stripped!r}")
        value = float(stripped)
        if not math.isfinite(value):
            raise ParseError(f"row {lineno}: non-finite RUL value {stripped!r}")
        if value != int(value):
            raise IntegrityError(f"row {lineno}: RUL must be an integer, got {stripped}")
        value = int(value)
        if value < 0:
            raise IntegrityError(f"row {lineno}: RUL must be nonnegative, got {value}")
        targets.append(
            RulTarget(dataset_id=dataset_id, unit_id=len(targets) + 1, true_rul_at_cutoff=value)
        )
    if expected_count is not None and len(targets) != expected_count:
        raise IntegrityError(
            f"RUL file has {len(targets)} entries but {expected_count} test engines exist"
        )
    return targets


def train_file(data_dir, dataset_id: str) -> str:
    return os.path.join(data_dir, f"train_{dataset_id}.txt")


def test_file(data_dir, dataset_id: str) -> str:
    return os.path.join(data_dir, f"test_{dataset_id}.txt")


def rul_file(data_dir, dataset_id: str) -> str:
    return os.path.join(data_dir, f"RUL_{dataset_id}.txt")
