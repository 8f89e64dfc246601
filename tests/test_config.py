import json
import os

import pytest

from changepoint_rul.config import PipelineConfig, default_config, load_config
from changepoint_rul.errors import ConfigError

HERE = os.path.dirname(__file__)


@pytest.mark.parametrize("dataset", ["FD001", "FD002", "FD003", "FD004"])
def test_defaults_match_golden_files(dataset):
    golden_path = os.path.join(HERE, "data", f"defaults_{dataset}.json")
    with open(golden_path) as fh:
        golden = json.load(fh)
    assert default_config(dataset).to_dict() == golden


def test_per_dataset_tuned_values():
    assert default_config("FD001").r == 15
    assert default_config("FD004").r == 21
    assert default_config("FD003").hidden_sizes == (256, 100, 32)
    assert default_config("FD002").dropout_ratios == (0.1, 0.1)
    for ds in ("FD001", "FD002", "FD003", "FD004"):
        cfg = default_config(ds)
        assert cfg.sequence_length == 50
        assert cfg.optimizer == "rmsprop"
        assert cfg.epochs == 30
        assert (cfg.p, cfg.f, cfg.alpha) == (2, 2, 0.99)
        assert (cfg.normal_window, cfg.validation_window) == (60, 20)
        assert (cfg.min_lifespan, cfg.fallback_cap) == (200, 130)


def test_overrides():
    cfg = default_config("FD001", epochs=2, subset=10)
    assert cfg.epochs == 2
    assert cfg.subset == 10


def test_round_trip_via_dict():
    cfg = default_config("FD002", seed=9)
    clone = PipelineConfig.from_dict(cfg.to_dict())
    assert clone == cfg


def test_unknown_keys_rejected():
    payload = default_config("FD001").to_dict()
    payload["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        PipelineConfig.from_dict(payload)


def test_validation_errors():
    with pytest.raises(ConfigError):
        default_config("FD009")
    with pytest.raises(ConfigError):
        default_config("FD001", p=2, f=3)
    with pytest.raises(ConfigError):
        default_config("FD001", alpha=0.3)


def test_load_config_file_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_id": "FD003", "epochs": 4}))
    cfg = load_config(path, seed=5)
    assert cfg.dataset_id == "FD003"
    assert cfg.epochs == 4
    assert cfg.seed == 5
    assert cfg.hidden_sizes == (256, 100, 32)  # dataset defaults fill the rest


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
