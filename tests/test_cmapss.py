import pytest

from changepoint_rul.cmapss import (
    apply_selection,
    load_rul_targets,
    parse_cmapss_file,
    select_sensors,
)
from changepoint_rul.errors import IntegrityError, ParseError


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
    ],
)
def test_non_finite_value_names_row(text, bad_row):
    with pytest.raises(ParseError, match=f"row {bad_row}"):
        parse_cmapss_file(text)


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
