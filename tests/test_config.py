import json
import os
from dataclasses import replace

import pytest

from changepoint_rul.cli import main
from changepoint_rul.config import KDE_MIN_SAMPLES, PipelineConfig, default_config, load_config
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


@pytest.mark.parametrize("windows", [{}, dict(p=3, normal_window=40, validation_window=7)])
def test_first_monitored_cycle_follows_both_windows_and_the_lags(windows):
    cfg = default_config("FD001", **windows)
    assert cfg.first_monitored_cycle == cfg.normal_window + cfg.validation_window + cfg.p
    assert "first_monitored_cycle" not in cfg.to_dict()  # derived, so no config key


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
    "overrides,match",
    [
        ({"optimizer": "sgd"}, "unknown optimizer 'sgd'"),
        ({"learning_rate": 0.0}, "learning rate must be positive"),
        ({"epochs": -1}, "epochs must be >= 0"),
        ({"batch_size": 0}, "batch size >= 1"),
        ({"sequence_length": 0}, "sequence length must be >= 1"),
        ({"grad_clip": 0.0}, "gradient clip norm must be positive"),
        ({"hidden_sizes": (8, 0), "dropout_ratios": (0.1,)}, "hidden sizes must be positive"),
        ({"hidden_sizes": (8, 4)}, "2 layers need 1 inter-layer dropout ratios, got 2"),
        ({"dropout_ratios": (0.2, 1.0)}, "dropout ratios must lie in"),
    ],
)
def test_training_settings_validated_with_the_config(overrides, match):
    with pytest.raises(ConfigError, match=match):
        default_config("FD001", **overrides)
    payload = dict(default_config("FD001").to_dict(), **overrides)
    with pytest.raises(ConfigError, match=match):
        PipelineConfig.from_dict(payload)


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"breach_fraction_threshold": float("nan")}, "breach fraction .* got nan"),
        ({"breach_fraction_threshold": 7.0}, "breach fraction .* got 7.0"),
        ({"breach_fraction_threshold": 0.0}, "breach fraction .* got 0.0"),
        ({"grad_clip": float("inf")}, "gradient clip norm must be positive and finite, got inf"),
        ({"learning_rate": float("inf")}, "learning rate must be positive and finite, got inf"),
        ({"learning_rate": float("nan")}, "learning rate must be positive and finite, got nan"),
    ],
)
def test_library_config_refuses_values_a_report_cannot_hold(overrides, match):
    """A config built in Python skips the JSON type checks, so the config itself
    refuses non-finite and out-of-range values before history.json holds them."""
    with pytest.raises(ConfigError, match=match):
        default_config("FD001", **overrides)


@pytest.mark.parametrize(
    "windows,refused",
    [
        (dict(normal_window=32), True),  # 29 in-sample statistics at p=2
        (dict(normal_window=33), False),  # 30, the least a control limit takes
        (dict(p=3, normal_window=34), True),
        (dict(p=3, normal_window=35), False),
    ],
)
def test_normal_window_must_leave_enough_statistics_for_a_limit(windows, refused):
    least = 2 * windows.get("p", 2) + KDE_MIN_SAMPLES - 1
    if refused:
        with pytest.raises(ConfigError, match=f"normal window >= {least} at p="):
            default_config("FD001", **windows)
        payload = dict(default_config("FD001").to_dict(), **windows)
        with pytest.raises(ConfigError, match=f"normal window >= {least} at p="):
            PipelineConfig.from_dict(payload)
    else:
        assert default_config("FD001", **windows).normal_window == least


@pytest.mark.parametrize(
    "changes,match",
    [
        ({"normal_window": 20}, "normal window >= 33 at p=2, got 20"),
        ({"p": 0}, "lag count must be >= 1, got p=0"),
        ({"min_lifespan": 0}, "lifespan"),
        ({"optimizer": "adam"}, "unknown optimizer 'adam'"),
    ],
)
def test_every_config_is_checked_when_it_is_made(changes, match):
    """A config made by the constructor or by ``dataclasses.replace`` is refused
    just as one from ``default_config`` or a file, so no caller re-checks it."""
    with pytest.raises(ConfigError, match=match):
        replace(default_config("FD001"), **changes)
    with pytest.raises(ConfigError, match=match):
        PipelineConfig(**changes)


def test_breach_fraction_threshold_bounds():
    assert default_config("FD001", breach_fraction_threshold=1.0).breach_fraction_threshold == 1.0
    payload = dict(default_config("FD001").to_dict(), breach_fraction_threshold=7.0)
    with pytest.raises(ConfigError, match=r"must lie in \(0, 1\], got 7.0"):
        PipelineConfig.from_dict(payload)


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


@pytest.mark.parametrize(
    "key,value",
    [
        ("p", "2"),
        ("subset", "3"),
        ("hidden_sizes", 5),
        ("r", 2.5),
        ("alpha", "0.99"),
        ("export_traces", 1),
        ("data_dir", None),
    ],
)
def test_library_config_is_type_checked(key, value):
    """A config built in Python gets the type checks a JSON file's values get."""
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        default_config("FD001", **{key: value})
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        replace(default_config("FD001"), **{key: value})


def test_list_for_a_tuple_field_is_stored_as_a_tuple():
    """A config made with lists equals, and hashes as, the same config made
    with tuples, however it is made."""
    tuples = default_config("FD001", hidden_sizes=(8, 4), dropout_ratios=(0.1,))
    lists = dict(hidden_sizes=[8, 4], dropout_ratios=[0.1])
    made = [
        default_config("FD001", **lists),
        PipelineConfig(**lists),
        replace(default_config("FD001"), **lists),
    ]
    for cfg in made:
        assert cfg == tuples and hash(cfg) == hash(tuples)
        assert type(cfg.hidden_sizes) is tuple and type(cfg.dropout_ratios) is tuple


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
