import csv
import json
import math

import numpy as np
import pytest

from changepoint_rul.cmapss import RulTarget
from changepoint_rul.config import default_config
from changepoint_rul.errors import IntegrityError
from changepoint_rul.metrics import (
    EVAL_COLUMNS,
    evaluate_predictions,
    format_metrics_row,
    rmse,
    score_function,
    score_term,
)
from changepoint_rul.pipeline import run_evaluate, run_train

from synthetic import write_corpus


def targets(values, dataset="FD001"):
    return [
        RulTarget(dataset_id=dataset, unit_id=i + 1, true_rul_at_cutoff=v)
        for i, v in enumerate(values)
    ]


class TestRmse:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_spot_value(self):
        assert rmse([3.0, -4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=20)
        t = rng.normal(size=20)
        perm = rng.permutation(20)
        assert rmse(p, t) == pytest.approx(rmse(p[perm], t[perm]))

    def test_length_mismatch(self):
        with pytest.raises(IntegrityError):
            rmse([1.0], [1.0, 2.0])


class TestScoreFunction:
    def test_zero_errors(self):
        assert score_function([5.0, 6.0], [5.0, 6.0]) == 0.0

    def test_overestimate_spot_value(self):
        assert score_function([10.0], [0.0]) == pytest.approx(math.e - 1.0, abs=1e-9)

    def test_underestimate_spot_value(self):
        assert score_function([0.0], [13.0]) == pytest.approx(math.e - 1.0, abs=1e-9)

    def test_asymmetry_over_penalized(self):
        for k in range(1, 51):
            assert score_term(float(k)) > score_term(float(-k))

    def test_monotone_in_single_error(self):
        base = score_function([5.0, -3.0], [0.0, 0.0])
        worse_over = score_function([6.0, -3.0], [0.0, 0.0])
        worse_under = score_function([5.0, -4.0], [0.0, 0.0])
        assert worse_over > base
        assert worse_under > base

    def test_length_mismatch(self):
        with pytest.raises(IntegrityError):
            score_function([1.0], [])


class TestEvaluatePredictions:
    def test_perfect_oracle(self):
        report = evaluate_predictions({1: 40.0, 2: 80.0}, targets([40, 80]))
        assert report.rmse == 0.0
        assert report.sf == 0.0
        assert report.n == 2

    def test_capping_zeroes_contributions(self):
        # both sides above the cap contribute nothing
        report = evaluate_predictions({1: 150.0, 2: 140.0}, targets([180, 140]))
        assert report.per_engine[0].d == 0.0
        assert report.per_engine[0].true_rul == 130.0

    def test_constant_cap_matches_recomputation(self):
        rng = np.random.default_rng(1)
        values = rng.integers(5, 200, size=30).tolist()
        report = evaluate_predictions({i + 1: 130.0 for i in range(30)}, targets(values))
        capped = np.minimum(values, 130.0)
        d = 130.0 - capped
        assert report.rmse == pytest.approx(float(np.sqrt(np.mean(d * d))))
        expected_sf = sum(
            math.exp(-x / 13.0) - 1.0 if x < 0 else math.exp(x / 10.0) - 1.0 for x in d
        )
        assert report.sf == pytest.approx(expected_sf)

    def test_totals_recomputable_from_rows(self):
        rng = np.random.default_rng(2)
        preds = {i + 1: float(rng.uniform(0, 130)) for i in range(10)}
        report = evaluate_predictions(preds, targets(rng.integers(0, 150, size=10).tolist()))
        d = [row.d for row in report.per_engine]
        assert report.rmse == pytest.approx(float(np.sqrt(np.mean(np.square(d)))))
        assert report.sf == pytest.approx(sum(score_term(x) for x in d))

    def test_missing_prediction(self):
        with pytest.raises(IntegrityError, match="unit 2"):
            evaluate_predictions({1: 5.0}, targets([5, 6]))

    def test_report_files(self, tmp_path, capsys):
        """evaluate writes evaluation.json and one evaluation.csv row per test
        engine, both in EVAL_COLUMNS."""
        write_corpus(tmp_path / "data", n_train=6, n_test=3, seed=3)
        cfg = default_config(
            "FD001",
            data_dir=str(tmp_path / "data"),
            out_dir=str(tmp_path / "out"),
            sequence_length=30,
            hidden_sizes=(4,),
            dropout_ratios=(),
            epochs=1,
        )
        run_train(cfg)
        report = run_evaluate(cfg)
        assert capsys.readouterr().out == format_metrics_row(report) + "\n"
        written = json.loads((tmp_path / "out" / "evaluation.json").read_text())
        assert written == report.to_dict() and written["n"] == 3
        per_engine = report.to_dict()["per_engine"]
        assert [list(row) for row in per_engine] == [list(EVAL_COLUMNS)] * 3
        with open(tmp_path / "out" / "evaluation.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == EVAL_COLUMNS
        assert rows == [[str(v) for v in row.values()] for row in per_engine]
        row = format_metrics_row(report)
        assert "RMSE" in row and "FD001" in row
