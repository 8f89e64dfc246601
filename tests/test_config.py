import json
import os

import pytest

from changepoint_rul.cli import main
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
        assert (cfg.p, cfg.alpha) == (2, 0.99)
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


def test_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        default_config("FD009")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": 2, "f": 3}))  # one lag count: "f" is not a key
    with pytest.raises(ConfigError, match="unknown config keys: \\['f'\\]"):
        load_config(path)
    with pytest.raises(ConfigError):
        default_config("FD001", alpha=0.3)


@pytest.mark.parametrize(
    "key,value",
    [
        ("alpha", "0.99"),
        ("subset", "5"),
        ("normal_window", None),
        ("epochs", "3"),
        ("hidden_sizes", "abc"),
        ("hidden_sizes", [256, 12.5]),
        ("dropout_ratios", [0.1, "0.1"]),
        ("seed", "x"),
        ("r", 2.5),
        ("p", True),
        ("grad_clip", None),
        ("grad_clip", float("nan")),
        ("learning_rate", float("inf")),
        ("export_traces", 1),
        ("dataset_id", ["FD001"]),
    ],
)
def test_mistyped_values_rejected(key, value):
    payload = default_config("FD001").to_dict()
    payload[key] = value
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        PipelineConfig.from_dict(payload)


def test_integer_for_float_field_accepted():
    payload = default_config("FD001").to_dict()
    payload["grad_clip"] = 5
    assert PipelineConfig.from_dict(payload).grad_clip == 5


def test_mistyped_config_file_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": "0.99"}))
    assert main(["detect", "--config", str(path), "--data-dir", str(tmp_path)]) == 1
    assert "'alpha'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", '{"dataset_id": ["FD001"]}'])
def test_config_file_shape_rejected(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)


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


@pytest.mark.parametrize(
    "content",
    [b'{"data_dir": "\xff"}', b"[" * 100000, b'{"seed": 1' + b"0" * 5000 + b"}"],
    ids=["undecodable", "too_deep", "over_long_int"],
)
def test_load_config_unreadable_json(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="invalid config JSON"):
        load_config(path)
