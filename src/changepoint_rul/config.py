"""Pipeline configuration with per-dataset defaults.

Defaults reproduce the reference experimental setup: 2 lags in both the
past and the future vector, 99% control limits on a 60-cycle normal window
validated over the next 20, a 200-cycle minimum lifespan for change-point
detection with a 130-cycle fallback RUL cap, and the tuned per-dataset LSTM
settings. Every value must match its field's type, and a value read from JSON
must be finite too; a config is checked whenever it is made, by
``dataclasses.replace`` and the constructor too.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .cmapss import DATASETS
from .errors import ConfigError
from .lstm import TrainConfig

# In-sample statistics a KDE control limit needs; an N-cycle normal window has N - 2p + 1.
KDE_MIN_SAMPLES = 30

# Tuned per-dataset values: retained variates plus the LSTM grid winners.
DATASET_DEFAULTS = {
    "FD001": {"r": 15, "hidden_sizes": (256, 128, 32), "dropout_ratios": (0.2, 0.1)},
    "FD002": {"r": 15, "hidden_sizes": (256, 128, 32), "dropout_ratios": (0.1, 0.1)},
    "FD003": {"r": 15, "hidden_sizes": (256, 100, 32), "dropout_ratios": (0.2, 0.1)},
    "FD004": {"r": 21, "hidden_sizes": (256, 100, 32), "dropout_ratios": (0.1, 0.1)},
}


def _is_int(value) -> bool:
    """True for a JSON integer; bools are ints in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or a float; its range is the field's own check."""
    return _is_int(value) or isinstance(value, float)


def _is_finite(value) -> bool:
    """False for JSON's NaN and Infinity, alone or in a list: not numbers in a file."""
    values = value if isinstance(value, list) else [value]
    return all(math.isfinite(v) for v in values if isinstance(v, float))


# The type a field's value must have, per field annotation.
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

    def __post_init__(self):
        for name, field in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if not _FIELD_CHECKS[field.type](value):
                raise ConfigError(f"config key {name!r} must be {field.type}, got {value!r}")
            if isinstance(value, list):  # stored as a tuple: equal to one, and hashable
                object.__setattr__(self, name, tuple(value))
        if self.dataset_id not in DATASETS:
            raise ConfigError(f"unknown dataset id {self.dataset_id!r}")
        if self.p < 1:
            raise ConfigError(f"lag count must be >= 1, got p={self.p}")
        if not 0.5 < self.alpha < 1.0:
            raise ConfigError(f"confidence level must lie in (0.5, 1), got {self.alpha}")
        if self.normal_window - 2 * self.p + 1 < KDE_MIN_SAMPLES:
            least = 2 * self.p + KDE_MIN_SAMPLES - 1
            raise ConfigError(
                f"a control limit needs a normal window >= {least} at p={self.p}, "
                f"got {self.normal_window}"
            )
        if self.validation_window < 1 or self.min_lifespan < 1 or self.fallback_cap < 1:
            raise ConfigError("window, lifespan, and cap settings must be positive")
        if not 0.0 < self.breach_fraction_threshold <= 1.0:  # a NaN fails too
            threshold = self.breach_fraction_threshold
            raise ConfigError(f"breach fraction threshold must lie in (0, 1], got {threshold}")
        if self.r < 1:
            raise ConfigError(f"retained variate count must be >= 1, got {self.r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.subset is not None and self.subset < 1:
            raise ConfigError("subset size must be >= 1 when given")
        self.train_config()  # checks the training settings before detect writes anything

    @property
    def first_monitored_cycle(self) -> int:
        """tau: the first cycle scanned for a change point, after the normal
        and validation windows and the p cycles that seed the lags."""
        return self.normal_window + self.validation_window + self.p

    def train_config(self) -> TrainConfig:
        """The training settings in the form ``lstm.train`` takes."""
        return TrainConfig(
            sequence_length=self.sequence_length,
            hidden_sizes=self.hidden_sizes,
            dropout_ratios=self.dropout_ratios,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            optimizer=self.optimizer,
            seed=self.seed,
            grad_clip=self.grad_clip,
            label_cap=float(self.fallback_cap),
        )

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
        for key, value in payload.items():
            if not _is_finite(value):
                kind = cls.__dataclass_fields__[key].type
                raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
        return cls(**payload)


def default_config(dataset_id: str = "FD001", **overrides) -> PipelineConfig:
    """Reference-experiment defaults for a dataset, with keyword overrides."""
    if not isinstance(dataset_id, str) or dataset_id not in DATASET_DEFAULTS:
        raise ConfigError(f"unknown dataset id {dataset_id!r}")
    return PipelineConfig(**{**DATASET_DEFAULTS[dataset_id], "dataset_id": dataset_id, **overrides})


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
