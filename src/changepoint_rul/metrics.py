"""RMSE and the asymmetric score function, plus per-dataset reports.

The score function penalizes overestimating remaining life more heavily
than underestimating it, since late maintenance is costlier than early.
Both the true and estimated RUL of test engines are capped before scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError

# Asymmetry constants of the benchmark score term exp(d/scale) - 1.
SF_UNDER_SCALE = 13.0  # d < 0: estimate below truth (early warning)
SF_OVER_SCALE = 10.0  # d >= 0: estimate above truth (late warning)

# The per-engine columns of the evaluation report.
EVAL_COLUMNS = ("unit", "true_rul", "predicted_rul", "d")


def rmse(preds, truths) -> float:
    """Root mean squared error over paired predictions."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape or preds.size == 0:
        raise IntegrityError(f"prediction/truth length mismatch: {preds.shape} vs {truths.shape}")
    d = preds - truths
    return float(np.sqrt(np.mean(d * d)))


def score_term(d: float) -> float:
    """Penalty contribution of one engine with error d = predicted - true."""
    if d < 0:
        return math.exp(-d / SF_UNDER_SCALE) - 1.0
    return math.exp(d / SF_OVER_SCALE) - 1.0


def score_function(preds, truths) -> float:
    """Summed asymmetric penalty over all engines."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape or preds.size == 0:
        raise IntegrityError(f"prediction/truth length mismatch: {preds.shape} vs {truths.shape}")
    return float(sum(score_term(d) for d in preds - truths))


@dataclass(frozen=True)
class EngineScore:
    unit_id: int
    true_rul: float
    predicted_rul: float

    @property
    def d(self) -> float:
        return self.predicted_rul - self.true_rul


@dataclass(frozen=True)
class EvalReport:
    """Aggregate and per-engine scores for one dataset run."""

    dataset_id: str
    rmse: float
    sf: float
    per_engine: tuple

    @property
    def n(self) -> int:
        return len(self.per_engine)

    def rows(self) -> list:
        """One list per engine, its values in EVAL_COLUMNS order."""
        return [[row.unit_id, row.true_rul, row.predicted_rul, row.d] for row in self.per_engine]

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset_id,
            "n": self.n,
            "rmse": self.rmse,
            "sf": self.sf,
            "per_engine": [dict(zip(EVAL_COLUMNS, row)) for row in self.rows()],
        }


def evaluate_predictions(predictions: dict, targets, cap: float = 130.0, dataset_id: str = "FD001") -> EvalReport:
    """Score one prediction per test engine against its true RUL.

    ``predictions`` maps unit_id to the raw estimate; ``targets`` is the
    parsed true-RUL list. Both sides are capped before scoring. A missing
    prediction for any target unit is an integrity error.
    """
    rows = []
    for target in targets:
        if target.unit_id not in predictions:
            raise IntegrityError(f"no prediction for test unit {target.unit_id}")
        pred = min(float(predictions[target.unit_id]), cap)
        true = min(float(target.true_rul_at_cutoff), cap)
        rows.append(EngineScore(unit_id=target.unit_id, true_rul=true, predicted_rul=pred))
    extra = set(predictions) - {t.unit_id for t in targets}
    if extra:
        raise IntegrityError(f"predictions for unknown units {sorted(extra)}")
    preds = [r.predicted_rul for r in rows]
    trues = [r.true_rul for r in rows]
    return EvalReport(
        dataset_id=dataset_id,
        rmse=rmse(preds, trues),
        sf=score_function(preds, trues),
        per_engine=tuple(rows),
    )


def format_metrics_row(report: EvalReport) -> str:
    """One benchmark-table style line for the current run."""
    return (
        f"{'ChangePoint-LSTM':<20s} {report.dataset_id:<6s} n={report.n:<4d} "
        f"RMSE={report.rmse:7.2f}  SF={report.sf:10.2f}"
    )
