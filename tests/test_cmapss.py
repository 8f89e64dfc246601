import re
import tracemalloc
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from changepoint_rul.cmapss import (
    DATASETS,
    MAX_ABS_READING,
    apply_selection,
    load_rul_targets,
    parse_cmapss_file,
    read_cmapss_file,
    select_sensors,
)
from changepoint_rul.errors import IntegrityError, ParseError, PipelineError

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # only the property tests at the end need Hypothesis
    st = None


def row(unit, cycle, value=1.0):
    return " ".join([str(unit), str(cycle)] + ["0.1"] * 3 + [str(value)] * 21)


def test_empty_text_gives_empty_list():
    assert parse_cmapss_file("") == []


def test_minimal_two_row_grouping():
    text = row(1, 1) + "\n" + row(1, 2) + "\n"
    engines = parse_cmapss_file(text)
    assert len(engines) == 1
    assert engines[0].unit_id == 1
    assert engines[0].k_max == 2
    assert engines[0].sensors.shape == (2, 21)
    assert engines[0].op_settings.shape == (2, 3)


def test_blank_lines_and_trailing_whitespace_tolerated():
    text = row(1, 1) + "  \n\n" + row(1, 2) + " \n\n"
    assert len(parse_cmapss_file(text)) == 1


def test_rows_grouped_across_units_and_sorted():
    text = "\n".join([row(2, 1), row(1, 1), row(2, 2), row(1, 2)])
    engines = parse_cmapss_file(text)
    assert [e.unit_id for e in engines] == [1, 2]
    assert all(e.k_max == 2 for e in engines)


def test_wrong_column_count_names_row():
    text = row(1, 1) + "\n1 2 3\n"
    with pytest.raises(ParseError, match="row 2"):
        parse_cmapss_file(text)


def test_non_numeric_field_names_row():
    bad = row(1, 1).replace("0.1", "abc", 1)
    with pytest.raises(ParseError, match="row 1"):
        parse_cmapss_file(bad)


@pytest.mark.parametrize(
    "text,bad_row",
    [
        (row(1, 1) + "\n" + row(1, 2, "nan"), 2),
        (row(2, 1) + "\n" + row(1, 1) + "\n" + row(2, 2, "-inf"), 3),
        (row(1, 1).replace("0.1", "inf", 1), 1),
        (row(1, "nan"), 1),
        (row("inf", 1), 1),
        (row(1, 1) + "\n" + row(1, 2, "1e101"), 2),  # beyond MAX_ABS_READING
        (row(1, 1, "-1e101"), 1),
    ],
)
def test_non_finite_value_names_row(text, bad_row):
    with pytest.raises(ParseError, match=f"row {bad_row}"):
        parse_cmapss_file(text)


def test_reading_bound_is_inclusive():
    engines = parse_cmapss_file(row(1, 1, "1e100") + "\n" + row(1, 2, "-1e100"))
    assert engines[0].sensors[:, 0].tolist() == [MAX_ABS_READING, -MAX_ABS_READING]


def with_last(text, field):
    return text.rsplit(" ", 1)[0] + " " + field


@pytest.mark.parametrize(
    "text,bad_row",
    [
        (row(1, 1) + "\n" + row(1, 2).replace(" ", "\xa0"), 2),  # no-break space
        (row(1, 1).replace(" ", "\u2028", 1), 1),  # line separator
        (row(1, 1).replace(" ", "\f", 1), 1),  # form feed
        (row(1, 1) + "\n" + with_last(row(1, 2), "1_000"), 2),
        (with_last(row(1, 1), "\u0661\u0662"), 1),  # Arabic-Indic digits
        (row(1, 1) + "\r" + row(1, 2) + "\r\n", 1),  # lone carriage return
        (row(1, 1) + "\r\n" + with_last(row(1, 2), "\udcff1"), 2),  # undecodable byte
        ("\n\n" + with_last(row(1, 1), "0x1p3"), 3),
    ],
    ids=["nbsp", "u2028", "form_feed", "underscore", "arabic_indic", "lone_cr", "surrogate", "hex"],
)
def test_malformed_row_names_row(text, bad_row):
    with pytest.raises(ParseError, match=f"^row {bad_row}: "):
        parse_cmapss_file(text)


def test_crlf_tabs_and_sign_forms_parse_as_float_does():
    fields = row(1, 1).split()
    fields[5:9] = ["+1.5e3", "-.25", "7.", "1E-2"]
    engines = parse_cmapss_file("\t".join(fields) + " \r\n\r\n")
    assert engines[0].sensors[0, :4].tolist() == [1500.0, -0.25, 7.0, 0.01]


def test_cycle_gap_names_unit():
    text = row(3, 1) + "\n" + row(3, 3) + "\n"
    with pytest.raises(IntegrityError, match="unit 3"):
        parse_cmapss_file(text)


def test_cycles_must_start_at_one():
    with pytest.raises(IntegrityError, match="unit 1"):
        parse_cmapss_file(row(1, 2))


@pytest.mark.parametrize(
    "dataset,excluded,m",
    [
        ("FD001", {1, 5, 6, 10, 16, 18, 19}, 14),
        ("FD002", {10, 13, 16, 18, 19}, 16),
        ("FD003", {1, 5, 6, 10, 16, 18, 19}, 14),
        ("FD004", {10, 13, 16, 18, 19}, 16),
    ],
)
def test_sensor_selection_tables(dataset, excluded, m):
    selection = select_sensors(dataset)
    assert selection.m == m
    assert set(range(1, 22)) - set(selection.kept_indices) == excluded
    assert list(selection.kept_indices) == sorted(selection.kept_indices)


def test_fd003_matches_fd001_selection():
    assert select_sensors("FD003").kept_indices == select_sensors("FD001").kept_indices


def test_apply_selection_channel_count_and_order():
    engines = parse_cmapss_file(row(1, 1) + "\n" + row(1, 2))
    selection = select_sensors("FD001")
    selected = apply_selection(engines[0], selection)
    assert selected.sensors.shape == (2, selection.m)
    # every kept index is represented, in order
    assert selection.kept_indices == tuple(sorted(selection.kept_indices))
    assert selected.n_channels == selection.m


def test_selected_engine_holds_no_view_of_the_parsed_table():
    """So the 21-channel table is freed once the parsed engines are dropped."""
    engine = parse_cmapss_file(row(1, 1) + "\n" + row(1, 2))[0]
    selected = apply_selection(engine, select_sensors("FD001"))
    for array in (selected.cycles, selected.op_settings, selected.sensors):
        assert not np.shares_memory(array, engine.sensors)
        assert not np.shares_memory(array, engine.op_settings)
    assert selected.op_settings.tolist() == engine.op_settings.tolist()


def test_rul_targets_parse_and_order():
    targets = load_rul_targets("112\n98\n 7 \n")
    assert [t.unit_id for t in targets] == [1, 2, 3]
    assert [t.true_rul_at_cutoff for t in targets] == [112, 98, 7]


def test_rul_single_line():
    targets = load_rul_targets("112\n")
    assert len(targets) == 1
    assert targets[0].true_rul_at_cutoff == 112


def test_rul_negative_rejected():
    with pytest.raises(IntegrityError, match="nonnegative"):
        load_rul_targets("-3\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rul_non_finite_rejected(value):
    with pytest.raises(ParseError, match=f"row 2: non-finite RUL value '{value}'"):
        load_rul_targets(f"12\n{value}\n")


@pytest.mark.parametrize(
    "text,bad_row",
    [
        ("5\u20287\n", 1),  # line separator
        ("5\x0c7\n", 1),  # form feed
        ("3\n\x0c7\n", 2),  # form feed before the value
        ("3\n\u0661\u0662\n", 2),  # Arabic-Indic digits
        ("1_000\n", 1),
        ("3\n7\xa0\n", 2),  # no-break space
        ("3\r4\n", 1),  # lone carriage return
        ("3\n\udcff\n", 2),  # undecodable byte
    ],
    ids=[
        "u2028", "form_feed", "leading_form_feed", "arabic_indic", "underscore", "nbsp",
        "lone_cr", "surrogate",
    ],
)
def test_rul_row_off_the_log_grammar_names_row(text, bad_row):
    with pytest.raises(ParseError, match=f"^row {bad_row}: non-numeric RUL value "):
        load_rul_targets(text)


def test_rul_rows_end_at_newline_with_an_optional_carriage_return():
    targets = load_rul_targets("\t12 \r\n\r\n 7\n \n9")
    assert [t.true_rul_at_cutoff for t in targets] == [12, 7, 9]


def test_rul_count_mismatch():
    with pytest.raises(IntegrityError, match="2 entries"):
        load_rul_targets("5\n6\n", expected_count=3)


REAL_DATA_DIR = None
for _cand in (__import__("os").environ.get("CMAPSS_DATA_DIR"), "data"):
    if _cand and __import__("os").path.exists(__import__("os").path.join(_cand, "train_FD001.txt")):
        REAL_DATA_DIR = _cand
        break


@pytest.mark.skipif(REAL_DATA_DIR is None, reason="real turbofan files not found")
@pytest.mark.parametrize(
    "dataset,n_train,n_test",
    [("FD001", 100, 100), ("FD002", 260, 259), ("FD003", 100, 100), ("FD004", 249, 248)],
)
def test_real_dataset_engine_counts(dataset, n_train, n_test):
    import os

    from changepoint_rul import cmapss

    if not os.path.exists(os.path.join(REAL_DATA_DIR, f"train_{dataset}.txt")):
        pytest.skip(f"{dataset} files not present")
    with open(cmapss.train_file(REAL_DATA_DIR, dataset)) as fh:
        train = parse_cmapss_file(fh.read(), dataset)
    with open(cmapss.test_file(REAL_DATA_DIR, dataset)) as fh:
        test = parse_cmapss_file(fh.read(), dataset)
    with open(cmapss.rul_file(REAL_DATA_DIR, dataset)) as fh:
        targets = load_rul_targets(fh.read(), dataset, expected_count=len(test))
    assert len(train) == n_train
    assert len(test) == n_test
    assert len(targets) == n_test


def reference_parse(text):
    """Per-row reference: rows split on newlines less one trailing carriage
    return, fields split on spaces and tabs, each field through float()."""
    units = {}
    for line in text.split("\n"):
        values = [float(f) for f in line.removesuffix("\r").replace("\t", " ").split(" ") if f]
        if values:
            units.setdefault(int(values[0]), []).append(values[1:])
    return {u: np.array(sorted(rows, key=lambda r: r[0])) for u, rows in sorted(units.items())}


if st is not None:
    INTEGER_FORMS = [str, "{}.0".format, "+{}".format, "{}e0".format, "{}0E-1".format]
    FLOAT_FORMS = [repr, "{:+.17g}".format, "{:.6e}".format, "{:E}".format, "{:.3f}".format]

    @st.composite
    def well_formed_logs(draw):
        """A valid log: shuffled rows, blank rows, CRLF or LF ends, space or
        tab separators, padding, and sign and exponent forms of every literal."""
        lifespans = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        units = draw(st.lists(st.integers(1, 10**6), min_size=len(lifespans),
                              max_size=len(lifespans), unique=True))
        lines = []
        for unit, k_max in zip(units, lifespans):
            for cycle in range(1, k_max + 1):
                ints = draw(st.sampled_from(INTEGER_FORMS))
                floats = draw(st.sampled_from(FLOAT_FORMS))
                values = draw(st.lists(st.floats(-MAX_ABS_READING, MAX_ABS_READING),
                                       min_size=24, max_size=24))
                sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
                pad = draw(st.sampled_from(["", " ", "\t "]))
                fields = [ints(unit), ints(cycle)] + [floats(v) for v in values]
                lines.append(pad + sep.join(fields) + pad)
        blanks = draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3))
        lines = draw(st.permutations(lines + blanks))
        ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
        return "".join(line + end for line, end in zip(lines, ends))

    CORRUPTIONS = [
        lambda f: f[:-1],
        lambda f: f + ["1"],
        lambda f: f[:-1] + ["abc"],
        lambda f: f[:-1] + ["nan"],
        lambda f: f[:-1] + ["-inf"],
        lambda f: f[:-1] + ["1e101"],
        lambda f: f[:-1] + ["1_000"],
        lambda f: f[:-1] + ["\u0663"],
        lambda f: ["0"] + f[1:],
        lambda f: ["2.5"] + f[1:],
        lambda f: ["\udcfe" + f[0]] + f[1:],
        lambda f: ["\xa0".join(f)],
        lambda f: [" ".join(f) + "\r" + " ".join(f)],
    ]

    @given(well_formed_logs())
    def test_well_formed_log_matches_reference_bit_for_bit(text):
        engines = parse_cmapss_file(text)
        expected = reference_parse(text)
        assert [e.unit_id for e in engines] == list(expected)
        for engine in engines:
            rows = expected[engine.unit_id]
            assert engine.cycles.tolist() == rows[:, 0].astype(int).tolist()
            assert engine.op_settings.tobytes() == rows[:, 1:4].tobytes()
            assert engine.sensors.tobytes() == rows[:, 4:].tobytes()

    @given(well_formed_logs(), st.integers(0, 10**6), st.sampled_from(CORRUPTIONS))
    def test_one_corrupted_row_is_named(text, pick, corrupt):
        lines = text.split("\n")
        filled = [i for i, line in enumerate(lines) if line.strip()]
        i = filled[pick % len(filled)]
        lines[i] = " ".join(corrupt(lines[i].split()))
        with pytest.raises(ParseError, match=f"^row {i + 1}: "):
            parse_cmapss_file("\n".join(lines))

    @given(
        st.text()
        | st.text(alphabet=st.sampled_from(list("019.eE+-naif_x \t\r\n\f\xa0\u2028\u0661")))
        | st.tuples(well_formed_logs(), st.integers(0, 10**6), st.text(max_size=3)).map(
            lambda t: t[0][: t[1] % (len(t[0]) + 1)] + t[2] + t[0][t[1] % (len(t[0]) + 1) :]
        )
    )
    def test_arbitrary_text_raises_only_pipeline_errors(text):
        try:
            engines = parse_cmapss_file(text)
        except PipelineError:
            return
        assert [e.unit_id for e in engines] == list(reference_parse(text))


def read_as_text(path, dataset_id="FD001"):
    """What the file reader must match: the text parser over the file's text."""
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    return parse_cmapss_file(text, dataset_id)


def result(read, *args):
    """Every engine as bytes, or the error's type and message."""
    try:
        engines = read(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return [
        (e.dataset_id, e.unit_id, e.cycles.dtype.str, e.cycles.tobytes(), e.op_settings.shape,
         e.op_settings.tobytes(), e.sensors.shape, e.sensors.tobytes())
        for e in engines
    ]


def test_file_reader_matches_text_parser_on_an_ordered_log(tmp_path):
    path = tmp_path / "train_FD001.txt"
    path.write_text("".join(row(u, c, u + c / 10) + "\n" for u in (1, 2, 5) for c in (1, 2, 3)))
    engines = read_cmapss_file(path)
    assert [e.unit_id for e in engines] == [1, 2, 5]
    assert result(read_cmapss_file, path) == result(read_as_text, path)


@pytest.mark.parametrize("dataset_id", ["FD001", "FD009"])
@pytest.mark.parametrize("name", ["missing.txt", ""], ids=["missing", "directory"])
def test_file_reader_raises_as_reading_the_text_does(tmp_path, name, dataset_id):
    path = tmp_path / name
    expected = result(read_as_text, path, dataset_id)
    assert issubclass(expected[0], OSError)
    assert result(read_cmapss_file, path, dataset_id) == expected


def test_file_reader_takes_a_url_like_relative_path_as_a_file(tmp_path, monkeypatch):
    """numpy opens a path str as a URL when it reads "scheme://host/...";
    the reader hands it an absolute path, so no URL is ever opened."""

    def no_urls(*args, **kwargs):
        raise AssertionError("the log path was opened as a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_urls)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    (tmp_path / "http:" / "localhost" / "log.txt").write_text(row(1, 1) + "\n" + row(1, 2) + "\n")
    engines = read_cmapss_file("http://localhost/log.txt")
    assert [e.k_max for e in engines] == [2]


def test_file_reader_holds_no_text_of_the_log(tmp_path):
    """The file goes to numpy's chunked reader: the read peaks at about the
    parsed table, not at the table plus the log's text and its rows."""
    rng = np.random.default_rng(0)
    lines = []
    for unit in range(1, 41):
        for cycle in range(1, 201):
            values = " ".join(f"{v:.4f}" for v in rng.normal(500.0, 50.0, 24))
            lines.append(f"{unit} {cycle} {values} \n")
    path = tmp_path / "train_FD001.txt"
    path.write_text("".join(lines))
    table_bytes = len(lines) * 26 * 8
    tracemalloc.start()
    try:
        engines = read_cmapss_file(path)
        file_peak = tracemalloc.get_traced_memory()[1]
        del engines
        tracemalloc.reset_peak()
        read_as_text(path)
        text_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text_peak > 2.5 * table_bytes  # the text, its rows and the table
    assert file_peak < 1.5 * table_bytes


if st is not None:
    # Bytes the text reader treats in its own way: line ends it translates,
    # a NUL, a BOM, undecodable UTF-8 and the whitespace the grammar refuses.
    ODD_BYTES = [b"\r", b"\r\n", b"\n", b"\x00", b"\xef\xbb\xbf", b"\xff", b"\xc3(", b"\xc2\xa0",
                 b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b" ", b"\t", b"1", b"-"]

    def sorted_rows(text, n_keys):
        """The log's rows sorted by unit (n_keys 1, cycles left shuffled) or
        by unit and cycle (n_keys 2, as C-MAPSS writes them)."""
        lines = text.splitlines(keepends=True)
        key = lambda line: [float(f) for f in line.split()[:n_keys]]  # noqa: E731
        filled = sorted((line for line in lines if line.strip()), key=key)
        return "".join(filled + [line for line in lines if not line.strip()])

    def with_separator(args):
        """The first space or tab, a field separator or padding, replaced."""
        data, separator = args
        return re.sub(rb"[ \t]", separator, data, count=1)

    def spliced(args):
        data, at, inserted = args
        at %= len(data) + 1
        return data[:at] + inserted + data[at:]

    well_formed_bytes = st.tuples(well_formed_logs(), st.sampled_from([0, 1, 2])).map(
        lambda t: (sorted_rows(*t) if t[1] else t[0]).encode()
    )
    log_files = st.one_of(
        well_formed_bytes,
        st.tuples(well_formed_bytes, st.sampled_from(ODD_BYTES[3:14])).map(with_separator),
        well_formed_bytes.map(lambda b: b.replace(b"\r\n", b"\n").replace(b"\n", b"\r")),  # CR only
        well_formed_bytes.map(lambda b: b"\xef\xbb\xbf" + b),
        st.tuples(well_formed_bytes, st.integers(0, 10**6),
                  st.lists(st.sampled_from(ODD_BYTES), min_size=1, max_size=3).map(b"".join)).map(spliced),
        well_formed_bytes.map(lambda b: b + b.splitlines(keepends=True)[0]),  # a row twice
        st.lists(st.sampled_from(ODD_BYTES), max_size=12).map(b"".join),
        st.binary(max_size=200),
        st.none(),  # no file
    )

    @given(log_files, st.sampled_from(DATASETS[:1] + DATASETS[3:] + ("FD009",)))
    def test_file_reader_equals_text_parser_over_the_file_text(tmp_path_factory, data, dataset_id):
        path = tmp_path_factory.mktemp("log") / "train_FD001.txt"
        if data is not None:
            path.write_bytes(data)
        assert result(read_cmapss_file, path, dataset_id) == result(read_as_text, path, dataset_id)
        assert result(read_cmapss_file, str(path), dataset_id) == result(read_as_text, path, dataset_id)
