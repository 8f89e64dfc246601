import numpy as np
import pytest

from changepoint_rul.cmapss import (
    MAX_ABS_READING,
    apply_selection,
    load_rul_targets,
    parse_cmapss_file,
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
