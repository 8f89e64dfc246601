"""Pipeline configuration with per-dataset defaults.

Defaults reproduce the reference experimental setup: 2 lags in both the
past and the future vector, 99% control limits on a 60-cycle normal window
validated over the next 20, a 200-cycle minimum lifespan for change-point
detection with a 130-cycle fallback RUL cap, and the tuned per-dataset LSTM
settings. Values read from JSON must match their field's type.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from .cmapss import DATASETS
from .errors import ConfigError

# Tuned per-dataset values: retained variates plus the LSTM grid winners.
DATASET_DEFAULTS = {
    "FD001": {"r": 15, "hidden_sizes": (256, 128, 32), "dropout_ratios": (0.2, 0.1)},
    "FD002": {"r": 15, "hidden_sizes": (256, 128, 32), "dropout_ratios": (0.1, 0.1)},
    "FD003": {"r": 15, "hidden_sizes": (256, 100, 32), "dropout_ratios": (0.2, 0.1)},
    "FD004": {"r": 21, "hidden_sizes": (256, 100, 32), "dropout_ratios": (0.1, 0.1)},
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float; JSON's NaN and Infinity are not numbers here."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


# The check a JSON value must pass, per field annotation.
_FIELD_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": _is_number,
    "tuple[int, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
    "tuple[float, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
}


@dataclass(frozen=True)
class PipelineConfig:
    dataset_id: str = "FD001"
    data_dir: str = "data"
    out_dir: str = "out"
    # change-point detection
    p: int = 2  # lags in both the past and the future vector
    r: int = 15
    alpha: float = 0.99
    normal_window: int = 60
    validation_window: int = 20
    min_lifespan: int = 200
    fallback_cap: int = 130
    breach_fraction_threshold: float = 0.2
    # windowed regressor
    sequence_length: int = 50
    hidden_sizes: tuple[int, ...] = (256, 128, 32)
    dropout_ratios: tuple[float, ...] = (0.2, 0.1)
    learning_rate: float = 0.001
    epochs: int = 30
    batch_size: int = 64
    optimizer: str = "rmsprop"
    grad_clip: float = 5.0
    # execution
    seed: int = 0
    subset: int | None = None
    export_traces: bool = False

    def validate(self) -> "PipelineConfig":
        if self.dataset_id not in DATASETS:
            raise ConfigError(f"unknown dataset id {self.dataset_id!r}")
        if self.p < 1:
            raise ConfigError(f"lag count must be >= 1, got p={self.p}")
        if not 0.5 < self.alpha < 1.0:
            raise ConfigError(f"confidence level must lie in (0.5, 1), got {self.alpha}")
        if self.normal_window < 2 * self.p + 1:
            raise ConfigError("normal window too short for the lag embedding")
        if self.validation_window < 1 or self.min_lifespan < 1 or self.fallback_cap < 1:
            raise ConfigError("window, lifespan, and cap settings must be positive")
        if self.r < 1:
            raise ConfigError(f"retained variate count must be >= 1, got {self.r}")
        if self.subset is not None and self.subset < 1:
            raise ConfigError("subset size must be >= 1 when given")
        return self

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["hidden_sizes"] = list(self.hidden_sizes)
        payload["dropout_ratios"] = list(self.dropout_ratios)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        payload = dict(payload)
        for key, value in payload.items():
            kind = cls.__dataclass_fields__[key].type
            if not _FIELD_CHECKS[kind](value):
                raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
            if kind.startswith("tuple"):
                payload[key] = tuple(value)
        return cls(**payload).validate()


def default_config(dataset_id: str = "FD001", **overrides) -> PipelineConfig:
    """Reference-experiment defaults for a dataset, with keyword overrides."""
    if not isinstance(dataset_id, str) or dataset_id not in DATASET_DEFAULTS:
        raise ConfigError(f"unknown dataset id {dataset_id!r}")
    base = PipelineConfig(dataset_id=dataset_id, **DATASET_DEFAULTS[dataset_id])
    if overrides:
        base = replace(base, **overrides)
    return base.validate()


def load_config(path, **overrides) -> PipelineConfig:
    """Read a JSON config file; overrides win over file values."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # undecodable, too deep, over-long int
            raise ConfigError(f"invalid config JSON in {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    dataset_id = overrides.get("dataset_id", payload.get("dataset_id", "FD001"))
    defaults = default_config(dataset_id).to_dict()
    defaults.update(payload)
    defaults.update(overrides)
    return PipelineConfig.from_dict(defaults)
