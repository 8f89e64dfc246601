import csv
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from changepoint_rul import cmapss
from changepoint_rul.cli import main
from changepoint_rul.config import default_config
from changepoint_rul.errors import NumericError
from changepoint_rul.labeling import trailing_window
from changepoint_rul.lstm import predict_batch
from changepoint_rul.metrics import evaluate_predictions
from changepoint_rul.monitoring import REPORT_COLUMNS
from changepoint_rul.pipeline import (
    _load_split,
    _write_json,
    read_checkpoint,
    run_detect,
    run_evaluate,
    run_sweep,
    run_train,
)

from synthetic import make_engine_series, write_corpus


def constant_cap_baseline(cfg):
    """Baseline report: the fallback cap predicted for every test engine."""
    test_engines, targets = _load_split(cfg, "test")
    cap = float(cfg.fallback_cap)
    predictions = {s.unit_id: cap for s in test_engines}
    return evaluate_predictions(predictions, targets, cap=cap, dataset_id=cfg.dataset_id)


SMALL_NET = dict(
    sequence_length=30,
    hidden_sizes=(8, 4),
    dropout_ratios=(0.1,),
    learning_rate=0.01,
    epochs=3,
    batch_size=32,
)


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("corpus")
    truth = write_corpus(data_dir, n_train=12, n_test=5, seed=3, short_every=4)
    return str(data_dir), truth


@pytest.fixture(scope="session")
def detect_run(corpus, tmp_path_factory):
    data_dir, truth = corpus
    out_dir = tmp_path_factory.mktemp("detect")
    cfg = default_config("FD001", data_dir=data_dir, out_dir=str(out_dir), export_traces=True)
    outcomes, summary = run_detect(cfg)
    return cfg, outcomes, summary, truth


@pytest.fixture(scope="session")
def trained_run(corpus, detect_run, tmp_path_factory):
    data_dir, _ = corpus
    detect_cfg, outcomes, _, _ = detect_run
    cfg = default_config(
        "FD001", data_dir=data_dir, out_dir=detect_cfg.out_dir, seed=1, **SMALL_NET
    )
    model, history, meta = run_train(cfg, outcomes=outcomes)
    return cfg, model, history, meta


def test_reading_at_the_bound_in_a_normal_window_round_trips(tmp_path, capsys):
    """A reading of MAX_ABS_READING in a normal window leaves its channel's scale
    finite, so the monitor store that detect writes loads in monitor."""
    from changepoint_rul.cmapss import MAX_ABS_READING, select_sensors, train_file

    data_dir = tmp_path / "data"
    write_corpus(data_dir, n_train=3, n_test=2, seed=5, short_every=0)
    path = train_file(data_dir, "FD001")
    lines = open(path).read().split("\n")
    fields = lines[10].split()  # unit 1, cycle 11
    fields[5 + select_sensors("FD001").column_indices[0]] = repr(MAX_ABS_READING)
    lines[10] = " ".join(fields)
    open(path, "w").write("\n".join(lines))
    cfg = default_config("FD001", data_dir=str(data_dir), out_dir=str(tmp_path / "out"))
    outcomes, _ = run_detect(cfg)
    assert outcomes[0].monitor.cva.standardizer.std.max() > 1e98
    stream_path = tmp_path / "stream.jsonl"
    stream_path.write_text(json.dumps({"unit": 1, "cycle": 1, "sensors": [1.0] * 21}) + "\n")
    monitors = os.path.join(cfg.out_dir, "monitors")
    assert main(["monitor", "--monitors", monitors, "--input", str(stream_path)]) == 0
    [event] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert event["type"] == "status" and event["unit"] == 1


class TestDetect:
    def test_long_engines_detected_short_fall_back(self, detect_run):
        _, outcomes, summary, truth = detect_run
        assert summary["n_engines"] == 12
        assert summary["n_fallback"] >= 3  # units 4, 8, 12 are short-lived
        assert summary["n_detected"] >= 7
        for outcome in outcomes:
            if outcome.method == "detected":
                assert abs(outcome.k_cp - truth[outcome.unit_id]) <= outcome.persistence + 5

    def test_report_files_written(self, detect_run):
        cfg, outcomes, _, _ = detect_run
        report = json.load(open(os.path.join(cfg.out_dir, "change_points.json")))
        assert len(report["engines"]) == 12
        csv_lines = open(os.path.join(cfg.out_dir, "change_points.csv")).read().splitlines()
        assert csv_lines[0] == (
            "dataset,unit,k_max,k_t2_cp,k_q_cp,k_cp,method,lambda,cl_t2,cl_q,flagged"
        )
        assert len(csv_lines) == 13
        with open(os.path.join(cfg.out_dir, "change_points.csv"), newline="") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == REPORT_COLUMNS
        records = [o.record(cfg.dataset_id) for o in outcomes]
        assert [list(record) for record in records] == [list(REPORT_COLUMNS)] * 12
        assert rows == [["" if v is None else str(v) for v in r.values()] for r in records]
        monitors_dir = os.path.join(cfg.out_dir, "monitors")
        assert sorted(os.listdir(monitors_dir)) == ["manifest.json", "monitors.npz"]
        manifest = json.load(open(os.path.join(monitors_dir, "manifest.json")))
        assert manifest["units"] == [o.unit_id for o in outcomes if o.monitor is not None]

    def test_monitor_store_round_trip(self, detect_run):
        """Every loaded monitor equals the fitted one, bit for bit and dtype for dtype."""
        from changepoint_rul.streaming import load_monitors

        cfg, outcomes, _, _ = detect_run
        monitors, manifest = load_monitors(os.path.join(cfg.out_dir, "monitors"))
        fitted = {o.unit_id: o.monitor for o in outcomes if o.monitor is not None}
        assert list(monitors) == list(fitted) == manifest["units"]
        for unit, monitor in fitted.items():
            loaded = monitors[unit]
            got, want = loaded.cva, monitor.cva
            arrays = [
                (getattr(got, name), getattr(want, name))
                for name in ("w", "vr", "singular_values", "j", "j_res")
            ] + [
                (getattr(got.standardizer, name), getattr(want.standardizer, name))
                for name in ("mean", "std")
            ]
            for got, want in arrays:
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert [f.name for f in fields(loaded)] == ["cva", "cl_t2", "cl_q", "persistence"]
            for name in ("cl_t2", "cl_q", "persistence"):
                got, want = getattr(loaded, name), getattr(monitor, name)
                assert type(got) is type(want) and got == want
            assert (loaded.cva.p, loaded.cva.r) == (monitor.cva.p, monitor.cva.r)
        for key in ("alpha", "normal_window", "validation_window"):
            assert type(manifest[key]) is type(getattr(cfg, key)) and manifest[key] == getattr(cfg, key)

    def test_fleet_without_monitors_loads_as_none(self, corpus, tmp_path):
        """A minimum lifespan above every engine's fits none: the store holds
        zero rows, loads as no monitors, and the stream rejects every unit."""
        from changepoint_rul.streaming import load_monitors, run_monitor

        cfg = default_config("FD001", data_dir=corpus[0], out_dir=str(tmp_path), min_lifespan=1000)
        _, summary = run_detect(cfg)
        assert summary["n_detected"] == 0 and summary["n_fallback"] == summary["n_engines"] == 12
        monitors_dir = str(tmp_path / "monitors")
        with np.load(os.path.join(monitors_dir, "monitors.npz")) as store:
            assert all(store[name].shape[0] == 0 for name in store.files)
        monitors, manifest = load_monitors(monitors_dir)
        assert monitors == {} and manifest["units"] == []
        out = io.StringIO()
        record = json.dumps({"unit": 1, "cycle": 1, "sensors": [1.0] * 14})
        assert run_monitor(monitors_dir, [record], out) == 1
        event = json.loads(out.getvalue())
        assert (event["type"], event["reason"]) == ("rejected", "unknown unit 1")

    def test_flagged_persisted_and_read_back(self, detect_run):
        cfg, outcomes, _, _ = detect_run
        report = json.load(open(os.path.join(cfg.out_dir, "change_points.json")))
        assert [r["flagged"] for r in report["engines"]] == [o.flagged for o in outcomes]
        assert report["engines"] == [o.record(cfg.dataset_id) for o in outcomes]
        csv_rows = open(os.path.join(cfg.out_dir, "change_points.csv")).read().splitlines()[1:]
        assert [r.rsplit(",", 1)[1] for r in csv_rows] == [str(o.flagged) for o in outcomes]

    def test_traces_exported(self, detect_run):
        cfg, outcomes, _, _ = detect_run
        fitted = [o for o in outcomes if o.monitor is not None][0]
        path = os.path.join(cfg.out_dir, "traces", f"unit_{fitted.unit_id:04d}.csv")
        lines = open(path).read().splitlines()
        assert lines[0] == "cycle,t2,q,cl_t2,cl_q"
        assert len(lines) == fitted.k_max - cfg.p + 1  # cycles p+1..k_max

    def test_huge_min_lifespan_all_fallback(self, corpus, tmp_path):
        data_dir, _ = corpus
        cfg = default_config(
            "FD001", data_dir=data_dir, out_dir=str(tmp_path), min_lifespan=1000
        )
        _, summary = run_detect(cfg, write=False)
        assert summary["n_fallback"] == summary["n_engines"]
        assert summary["n_detected"] == 0

    def test_rerun_byte_identical(self, corpus, tmp_path):
        data_dir, _ = corpus
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = default_config("FD001", data_dir=data_dir, out_dir=str(out), subset=6)
            run_detect(cfg)
            outputs.append(
                (
                    (out / "change_points.json").read_bytes(),
                    (out / "change_points.csv").read_bytes(),
                    (out / "monitors" / "manifest.json").read_bytes(),
                    (out / "monitors" / "monitors.npz").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]


class TestTrain:
    def test_checkpoint_and_history_written(self, trained_run):
        cfg, model, history, meta = trained_run
        assert os.path.exists(os.path.join(cfg.out_dir, "checkpoint.npz"))
        payload = json.load(open(os.path.join(cfg.out_dir, "history.json")))
        assert len(payload["epoch_mse"]) == cfg.epochs
        assert model.hidden_sizes == cfg.hidden_sizes
        assert meta["kept_indices"] == list(range(2, 5)) + [7, 8, 9] + [11, 12, 13, 14, 15, 17, 20, 21]

    def test_training_reduces_loss(self, trained_run):
        _, _, history, _ = trained_run
        assert history[-1] < history[0]

    def test_stale_report_of_another_fleet_is_ignored(self, corpus, tmp_path):
        data_dir, _ = corpus
        other = tmp_path / "other"  # the same 12 units, other lifespans and change points
        write_corpus(other, n_train=12, n_test=2, seed=5, short_every=4)
        stale, fresh = tmp_path / "stale", tmp_path / "fresh"
        run_detect(default_config("FD001", data_dir=str(other), out_dir=str(stale)))
        checkpoints = []
        for out in (stale, fresh):
            cfg = default_config(
                "FD001", data_dir=data_dir, out_dir=str(out), seed=1, **dict(SMALL_NET, epochs=1)
            )
            run_train(cfg)
            with np.load(out / "checkpoint.npz") as payload:
                checkpoints.append({name: payload[name] for name in payload.files})
        assert checkpoints[0].keys() == checkpoints[1].keys()
        for name, value in checkpoints[1].items():
            np.testing.assert_array_equal(checkpoints[0][name], value, err_msg=name)
        report = "change_points.json"
        assert (stale / report).read_bytes() == (fresh / report).read_bytes()


    def test_change_point_at_the_last_cycle_trains(self, tmp_path):
        # healthy 230-cycle engines: the first is detected at its final cycle
        engines = [make_engine_series(s + 1, 230, None, seed=s, n_channels=14) for s in range(3)]
        cfg = default_config(
            "FD001", r=5, out_dir=str(tmp_path), seed=1, **dict(SMALL_NET, epochs=1)
        )
        outcomes, _ = run_detect(cfg, engines=engines, write=False)
        assert outcomes[0].k_cp == 230
        _, _, meta = run_train(cfg, engines=engines, outcomes=outcomes)
        assert meta["n_windows"] == 3 * (230 - cfg.sequence_length + 1)


class TestEvaluate:
    def test_estimates_equal_standardizing_each_whole_life(self, corpus, trained_run, tmp_path):
        # unit 1 cut to 10 cycles, so its window is padded
        lines = open(os.path.join(corpus[0], "test_FD001.txt")).read().splitlines(keepends=True)
        kept = [line for line in lines if line.split()[0] != "1" or int(line.split()[1]) <= 10]
        (tmp_path / "test_FD001.txt").write_text("".join(kept))
        shutil.copy(os.path.join(corpus[0], "RUL_FD001.txt"), tmp_path)
        # reference: select, standardize the whole life, then take the last window
        cfg, model, _, meta = trained_run
        cfg = replace(cfg, data_dir=str(tmp_path))
        test_engines, _ = _load_split(cfg, "test")
        columns = np.asarray(meta["kept_indices"]) - 1
        mean, std = np.asarray(meta["pooled_mean"]), np.asarray(meta["pooled_std"])
        windows = [
            trailing_window((s.sensors[:, columns] - mean) / std, cfg.sequence_length)
            for s in test_engines
        ]
        assert min(s.k_max for s in test_engines) < cfg.sequence_length  # one is padded
        expected = predict_batch(model, np.stack(windows), cap=float(cfg.fallback_cap))
        report = run_evaluate(cfg, write=False)
        assert [row.predicted_rul for row in report.per_engine] == expected.tolist()

    def test_report_covers_every_test_engine(self, corpus, trained_run):
        data_dir, _ = corpus
        cfg, _, _, _ = trained_run
        report = run_evaluate(cfg)
        assert report.n == 5
        assert os.path.exists(os.path.join(cfg.out_dir, "evaluation.json"))
        assert report.rmse >= 0.0

    def test_beats_constant_cap_baseline(self, corpus, trained_run):
        data_dir, _ = corpus
        cfg, _, _, _ = trained_run
        report = run_evaluate(cfg, write=False)
        baseline = constant_cap_baseline(cfg)
        assert report.rmse < baseline.rmse

    def test_oracle_injection_scores_zero(self, corpus, tmp_path):
        data_dir, _ = corpus
        cfg = default_config("FD001", data_dir=data_dir, out_dir=str(tmp_path))
        _, targets = _load_split(cfg, "test")
        injected = {t.unit_id: float(min(t.true_rul_at_cutoff, 130)) for t in targets}
        report = evaluate_predictions(injected, targets, cap=float(cfg.fallback_cap))
        assert report.n == 5
        assert report.rmse == 0.0
        assert report.sf == 0.0

    def test_model_and_baseline_score_the_same_subset(self, trained_run):
        cfg = replace(trained_run[0], subset=3)
        model_units = [row.unit_id for row in run_evaluate(cfg, write=False).per_engine]
        baseline_units = [row.unit_id for row in constant_cap_baseline(cfg).per_engine]
        assert model_units == baseline_units == [1, 2, 3]

    def test_architecture_mismatch_rejected(self, corpus, trained_run, tmp_path):
        data_dir, _ = corpus
        cfg, model, _, meta = trained_run
        from changepoint_rul.errors import IntegrityError
        from changepoint_rul.lstm import save_checkpoint

        bad_meta = dict(meta)
        bad_meta["kept_indices"] = [1, 2, 3]  # wrong channel count for the model
        path = tmp_path / "bad.npz"
        save_checkpoint(model, path, meta=bad_meta)
        with pytest.raises(IntegrityError):
            run_evaluate(cfg, checkpoint_path=str(path), write=False)

    def test_pooled_standardizer_mismatch_rejected(self, trained_run, tmp_path, capsys):
        from changepoint_rul.errors import IntegrityError
        from changepoint_rul.lstm import save_checkpoint

        cfg, model, _, meta = trained_run
        path = tmp_path / "bad.npz"
        save_checkpoint(model, path, meta=dict(meta, pooled_std=meta["pooled_std"][:3]))
        with pytest.raises(IntegrityError, match="does not match its architecture"):
            run_evaluate(cfg, checkpoint_path=str(path), write=False)
        argv = ["evaluate", "--data-dir", cfg.data_dir, "--out-dir", str(tmp_path)]
        assert main(argv + ["--checkpoint", str(path)]) == 2

    @pytest.mark.parametrize(
        "kept,bad",
        [
            ([30] * 14, "30"),
            ([0] + list(range(2, 15)), "0"),  # would read sensor 21 as column -1
            (list(range(2, 15)) + [2], "2"),
            ([2.0] + list(range(3, 16)), "2.0"),
        ],
        ids=["above_21", "zero", "repeated", "float"],
    )
    def test_bad_sensor_indices_rejected(self, trained_run, tmp_path, capsys, kept, bad):
        from changepoint_rul.errors import IntegrityError
        from changepoint_rul.lstm import save_checkpoint

        cfg, model, _, meta = trained_run
        path = tmp_path / "bad.npz"
        save_checkpoint(model, path, meta=dict(meta, kept_indices=kept))
        with pytest.raises(IntegrityError, match=f"sensor index {bad} "):
            run_evaluate(cfg, checkpoint_path=str(path), write=False)
        argv = ["evaluate", "--data-dir", cfg.data_dir, "--out-dir", str(tmp_path)]
        assert main(argv + ["--checkpoint", str(path)]) == 2
        assert f"sensor index {bad} " in capsys.readouterr().err

    def test_empty_test_split_rejected(self, trained_run, tmp_path):
        from changepoint_rul.errors import InsufficientDataError

        (tmp_path / "test_FD001.txt").write_text("")
        (tmp_path / "RUL_FD001.txt").write_text("")
        cfg = replace(trained_run[0], data_dir=str(tmp_path))
        with pytest.raises(InsufficientDataError, match="no engines"):
            run_evaluate(cfg, write=False)


class TestSweep:
    def test_na_semantics_and_single_candidate_reduction(self, corpus, tmp_path):
        data_dir, _ = corpus
        cfg = default_config(
            "FD001", data_dir=data_dir, out_dir=str(tmp_path / "sweep"), seed=1, **SMALL_NET
        )
        rows = run_sweep(cfg, [60, 1000, 200, cfg.first_monitored_cycle])
        by_cand = {r["min_lifespan"]: r for r in rows}
        assert not by_cand[60]["applicable"]  # below first monitorable lifespan
        first = cfg.first_monitored_cycle + 1
        assert by_cand[first - 1]["reason"] == f"candidate below first monitorable lifespan {first}"
        uniform = by_cand[1000]  # above every lifespan: all engines on the fallback cap
        assert uniform["applicable"] and uniform["n_detected"] == 0
        assert uniform["n_fallback"] == 12 and np.isfinite([uniform["rmse"], uniform["sf"]]).all()
        assert by_cand[200]["applicable"]
        # single-candidate sweep reduces to a plain train+evaluate run
        direct_cfg = default_config(
            "FD001",
            data_dir=data_dir,
            out_dir=str(tmp_path / "sweep" / "sweep_200"),
            seed=1,
            **SMALL_NET,
        )
        direct_report = run_evaluate(direct_cfg, write=False)
        assert by_cand[200]["rmse"] == pytest.approx(direct_report.rmse)
        sweep_csv = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert sweep_csv[0] == "min_lifespan,rmse,sf"
        assert any("NA" in line for line in sweep_csv[1:])

    def test_train_log_read_once(self, corpus, tmp_path, monkeypatch):
        """Every candidate detects and trains on the same parsed train engines."""
        reads = []
        read = cmapss.read_cmapss_file

        def counted(path, dataset_id):
            reads.append(os.path.basename(path))
            return read(path, dataset_id)

        monkeypatch.setattr(cmapss, "read_cmapss_file", counted)
        cfg = default_config(
            "FD001", data_dir=corpus[0], out_dir=str(tmp_path), seed=1, **dict(SMALL_NET, epochs=1)
        )
        run_sweep(cfg, [200, 1000])
        assert sorted(reads) == ["test_FD001.txt"] * 2 + ["train_FD001.txt"]

    def test_uniform_cap_arm_from_cli(self, corpus, tmp_path, capsys):
        """``sweep --candidates 200,100000`` scores change-point labels against
        uniform-cap labels with the same network."""
        config = dict(SMALL_NET, data_dir=corpus[0], out_dir=str(tmp_path), seed=1)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["sweep", "--config", str(tmp_path / "cfg.json"), "--candidates", "200,100000"]
        assert main(argv) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if "min_lifespan" in line]
        assert [line.split()[0] for line in printed] == ["min_lifespan=200", "min_lifespan=100000"]
        assert all("RMSE=" in line for line in printed)
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert rows[0]["n_detected"] > 0 and rows[1]["n_detected"] == 0
        assert rows[1]["rmse"] != rows[0]["rmse"]


class TestCli:
    def test_detect_train_evaluate_loop(self, corpus, tmp_path, capsys):
        data_dir, _ = corpus
        out_dir = str(tmp_path / "cli")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset_id": "FD001",
                    "data_dir": data_dir,
                    "out_dir": out_dir,
                    "subset": 6,
                    "sequence_length": 30,
                    "hidden_sizes": [8, 4],
                    "dropout_ratios": [0.1],
                    "learning_rate": 0.01,
                    "epochs": 2,
                    "batch_size": 32,
                }
            )
        )
        assert main(["detect", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "RMSE" in out

    def test_detect_traces_flag_writes_every_fitted_engine(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["detect", "--data-dir", corpus[0], "--out-dir", str(out_dir), "--traces"]) == 0
        manifest = json.loads((out_dir / "monitors" / "manifest.json").read_text())
        assert manifest["units"]
        written = sorted(os.listdir(out_dir / "traces"))
        assert written == [f"unit_{unit:04d}.csv" for unit in manifest["units"]]

    def test_train_epochs_flag_overrides_the_config(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_NET, data_dir=corpus[0], out_dir=str(out_dir), subset=4)))
        assert main(["train", "--config", str(cfg_path), "--epochs", "1"]) == 0
        history = json.loads((out_dir / "history.json").read_text())
        assert len(history["epoch_mse"]) == 1 and history["config"]["epochs"] == 1

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_empty_train_log_exits_2_before_writing(self, tmp_path, capsys, command):
        data_dir, out_dir = tmp_path / "data", tmp_path / "out"
        data_dir.mkdir()
        (data_dir / "train_FD001.txt").write_text("")
        argv = [command, "--data-dir", str(data_dir), "--out-dir", str(out_dir)]
        argv += ["--candidates", "200"] if command == "sweep" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "train_FD001.txt holds no engines" in err
        assert not out_dir.exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["detect", "--dataset", "FD009"]) == 1

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["detect", "--data-dir", str(tmp_path / "nope")]) == 2

    @pytest.fixture
    def life_stream(self, corpus, detect_run, tmp_path):
        """The first fitted unit's outcome plus a stream of its whole life."""
        from changepoint_rul.cmapss import parse_cmapss_file, train_file

        data_dir, _ = corpus
        _, outcomes, _, _ = detect_run
        fitted = [o for o in outcomes if o.monitor is not None][0]
        engines = parse_cmapss_file(open(train_file(data_dir, "FD001")).read())
        series = [e for e in engines if e.unit_id == fitted.unit_id][0]
        records = [
            json.dumps(
                {"unit": series.unit_id, "cycle": int(c), "sensors": series.sensors[i].tolist()}
            )
            for i, c in enumerate(series.cycles)
        ]
        stream_path = tmp_path / "stream.jsonl"
        stream_path.write_text("\n".join(records) + "\n")
        return fitted, str(stream_path)

    def test_monitor_cli_round_trip(self, detect_run, trained_run, life_stream, capsys):
        detect_cfg = detect_run[0]
        fitted, stream_path = life_stream
        checkpoint = os.path.join(trained_run[0].out_dir, "checkpoint.npz")
        code = main(
            [
                "monitor",
                "--monitors",
                os.path.join(detect_cfg.out_dir, "monitors"),
                "--checkpoint",
                checkpoint,
                "--input",
                stream_path,
            ]
        )
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
        cp_events = [e for e in lines if e["type"] == "change_point"]
        assert len(cp_events) == 1
        assert cp_events[0]["k_cp"] == fitted.k_cp  # online agrees with offline
        ruls = [e for e in lines if e["type"] == "status" and "rul" in e]
        assert ruls, "expected RUL estimates after the change point"
        # each estimate is the batched forward of the record's standardized
        # trailing window, clipped at the checkpoint's label cap
        model, kept, pooled = read_checkpoint(checkpoint)
        records = [json.loads(line) for line in open(stream_path)]
        rows = np.array([r["sensors"] for r in records])[:, np.asarray(kept) - 1]
        x = (rows - pooled.mean) / pooled.std
        position = {r["cycle"]: i for i, r in enumerate(records)}
        for e in ruls:
            window = trailing_window(x[: position[e["cycle"]] + 1], model.sequence_length)
            assert e["rul"] == float(predict_batch(model, window[None], model.label_cap)[0])

    def test_monitor_clips_at_the_checkpoint_label_cap(
        self, detect_run, trained_run, life_stream, tmp_path, capsys
    ):
        """The stream's RUL cap is the one the checkpoint was trained with."""
        path = tmp_path / "capped.npz"
        shutil.copy(os.path.join(trained_run[0].out_dir, "checkpoint.npz"), path)
        _rewrite_header(path, lambda h: dict(h, label_cap=5.0))
        monitors_dir = os.path.join(detect_run[0].out_dir, "monitors")
        argv = ["monitor", "--monitors", monitors_dir, "--checkpoint", str(path)]
        assert main(argv + ["--input", life_stream[1]]) == 0
        events = map(json.loads, capsys.readouterr().out.splitlines())
        ruls = [e["rul"] for e in events if "rul" in e]
        assert ruls and max(ruls) == 5.0 and min(ruls) >= 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["monitor", "--monitors", "monitors", "--config", "cfg.json"],
            ["monitor", "--monitors", "monitors", "--dataset", "FD001"],
            ["detect", "--seed", "1"],
            ["evaluate", "--seed", "1"],
        ],
        ids=["monitor_config", "monitor_dataset", "detect_seed", "evaluate_seed"],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.fixture
    def one_record(self, corpus, detect_run, tmp_path):
        """Monitors dir of the detect run plus a one-record stream of a fitted unit."""
        from changepoint_rul.cmapss import parse_cmapss_file, train_file

        data_dir, _ = corpus
        detect_cfg, outcomes, _, _ = detect_run
        unit = [o for o in outcomes if o.monitor is not None][0].unit_id
        series = parse_cmapss_file(open(train_file(data_dir, "FD001")).read())[unit - 1]
        record = {"unit": unit, "cycle": 1, "sensors": series.sensors[0].tolist()}
        stream_path = tmp_path / "stream.jsonl"
        stream_path.write_text(json.dumps(record) + "\n")
        return os.path.join(detect_cfg.out_dir, "monitors"), str(stream_path)

    def test_blank_monitor_input_lines_yield_no_events(self, one_record, tmp_path, capsys):
        monitors_dir, stream_path = one_record
        argv = ["monitor", "--monitors", monitors_dir, "--input"]
        assert main(argv + [stream_path]) == 0
        alone = capsys.readouterr().out
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n  \n\t\n" + open(stream_path).read() + "\n \r\n")
        assert main(argv + [str(padded)]) == 0
        assert capsys.readouterr().out == alone and len(alone.splitlines()) == 1

    @pytest.mark.parametrize(
        "kept,match",
        [
            ([2, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 17, 20, 21], "differ from the monitor"),
            ([30] * 14, "sensor index 30 "),
            (None, "differ from the monitor"),  # a 16-input FD002 checkpoint
        ],
        ids=["other_sensors", "index_above_21", "sixteen_inputs"],
    )
    def test_monitor_rejects_checkpoint_off_manifest(
        self, trained_run, one_record, tmp_path, capsys, kept, match
    ):
        from changepoint_rul.cmapss import select_sensors
        from changepoint_rul.errors import IntegrityError
        from changepoint_rul.lstm import init_regressor, save_checkpoint
        from changepoint_rul.streaming import run_monitor

        _, model, _, meta = trained_run
        meta = dict(meta, kept_indices=kept)
        if kept is None:
            model = init_regressor(16, (4,), (), sequence_length=30)
            meta.update(
                kept_indices=list(select_sensors("FD002").kept_indices),
                pooled_mean=[0.0] * 16,
                pooled_std=[1.0] * 16,
            )
        path = str(tmp_path / "other.npz")
        save_checkpoint(model, path, meta=meta)
        monitors_dir, stream_path = one_record
        lines = iter(open(stream_path).read().splitlines())
        with pytest.raises(IntegrityError, match=match):
            run_monitor(monitors_dir, lines, io.StringIO(), checkpoint_path=path)
        assert next(lines, None) is not None  # raised before the first record
        argv = ["monitor", "--monitors", monitors_dir, "--input", stream_path]
        assert main(argv + ["--checkpoint", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and match in err

    def test_monitor_input_file_with_undecodable_bytes_is_rejected(
        self, one_record, tmp_path, capsys
    ):
        monitors_dir, _ = one_record
        stream_path = tmp_path / "bad.jsonl"
        stream_path.write_bytes(b'\xff\xfe{"unit": 1}\n')
        assert main(["monitor", "--monitors", monitors_dir, "--input", str(stream_path)]) == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [e["type"] for e in events] == ["rejected"]
        assert events[0]["reason"].startswith("invalid JSON")

    def test_closed_stdout_exits_quietly_with_sigpipe_status(self, one_record, tmp_path):
        """A reader that stops after one event (`| head -1`) is not a data error:
        the writer stops with 128 + SIGPIPE and prints nothing."""
        import changepoint_rul

        monitors_dir, _ = one_record
        stream_path = tmp_path / "many.jsonl"  # far more events than a pipe buffers
        stream_path.write_text('{"unit": 1}\n' * 20000)
        src = os.path.dirname(os.path.dirname(changepoint_rul.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["monitor", "--monitors", monitors_dir, "--input", str(stream_path)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "changepoint_rul.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()  # read after the wait: a message or traceback fits the pipe
        proc.stderr.close()
        assert json.loads(first)["type"] == "rejected"
        assert (code, err) == (141, b"")

    @pytest.mark.parametrize("kind", ["train", "test", "RUL"])
    def test_undecodable_data_file_names_row(self, corpus, trained_run, tmp_path, capsys, kind):
        data_dir, _ = corpus
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        path = copy / f"{kind}_FD001.txt"
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff\xfe" + lines[2]
        path.write_bytes(b"\n".join(lines))
        argv = ["--data-dir", str(copy), "--out-dir", str(tmp_path / "out")]
        if kind == "train":
            argv = ["detect"] + argv
        else:
            checkpoint = os.path.join(trained_run[0].out_dir, "checkpoint.npz")
            argv = ["evaluate", "--checkpoint", checkpoint] + argv
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: row 3: non-numeric")

    def test_mixed_dtype_checkpoint_exits_2(self, trained_run, one_record, tmp_path, capsys):
        from changepoint_rul.lstm import save_checkpoint

        cfg, model, _, meta = trained_run
        mixed = replace(model, head_b=model.head_b.astype(np.float64))  # float32 elsewhere
        path = str(tmp_path / "mixed.npz")
        save_checkpoint(mixed, path, meta=meta)
        monitors_dir, stream_path = one_record
        argv = ["evaluate", "--data-dir", cfg.data_dir, "--out-dir", str(tmp_path)]
        assert main(argv + ["--checkpoint", path]) == 2
        argv = ["monitor", "--monitors", monitors_dir, "--input", stream_path]
        assert main(argv + ["--checkpoint", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("checkpoint parameter head.b has dtype float64") == 2

    @pytest.mark.parametrize(
        "patch,match",
        [
            (lambda m: dict(m, kept_indices=[30] * 14), "sensor index 30 "),
            (lambda m: dict(m, kept_indices=list(range(1, 14))), "manifest's 13 sensors"),
            (lambda m: dict(m, units=["1"]), "unit '1' is not an int"),
            # as many units as store rows, one of them twice
            (lambda m: dict(m, units=m["units"][:1] + m["units"][:-1]), "lists unit 1 twice"),
            (lambda m: _without(m, "r"), "holds no valid fleet settings: KeyError: 'r'"),
            (lambda m: dict(m, alpha=float("nan")), "config key 'alpha' must be float, got nan"),
            (lambda m: dict(m, normal_window=20), "normal window >= 33 at p=2, got 20"),
        ],
        ids=[
            "index_above_21", "thirteen_sensors", "text_unit", "unit_twice", "without_r",
            "nan_alpha", "window_below_a_limit",
        ],
    )
    def test_monitor_rejects_bad_manifest(self, one_record, tmp_path, capsys, patch, match):
        monitors_dir, stream_path = one_record
        copy = tmp_path / "monitors"
        shutil.copytree(monitors_dir, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        assert manifest["units"][0] == 1
        (copy / "manifest.json").write_text(json.dumps(patch(manifest)))
        assert main(["monitor", "--monitors", str(copy), "--input", stream_path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and match in err

    @pytest.mark.parametrize(
        "name,corrupt",
        [
            ("manifest.json", lambda path: path.write_text(json.dumps(_without(json.loads(path.read_text()), "units")))),
            ("manifest.json", lambda path: path.write_text(path.read_text()[:40])),
            ("monitors.npz", lambda path: path.write_bytes(path.read_bytes()[:1000])),
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a.pop("cl_q"))),
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a["w"].fill(np.nan))),
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a["cl_q"].fill(np.inf))),
            # FD001 has 14 sensors, so p=2 past vectors have 28 rows
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a.update(w=a["w"][:, :27]))),
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a.update(vr=a["vr"][:, :, :14]))),
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a.update(singular_values=a["singular_values"][:, :14]))),
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a["std"].__setitem__((0, 0), 0.0))),
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a.update((k, v[:-1]) for k, v in a.items()))),
            ("monitors.npz", lambda path: _edit_store(path, lambda a: a.update(w=a["w"].astype(object)))),
            ("monitors.npz", lambda path: _to_unit_files(path)),
        ],
        ids=[
            "manifest_without_units",
            "truncated_manifest",
            "truncated_store",
            "store_without_cl_q",
            "nan_in_w",
            "inf_limit",
            "cva_27_rows",
            "vr_14_columns",
            "14_singular_values",
            "zero_std",
            "one_unit_fewer",
            "pickled_object_array",
            "only_unit_files",
        ],
    )
    def test_monitor_rejects_corrupt_artifact(self, one_record, tmp_path, capsys, name, corrupt):
        monitors_dir, stream_path = one_record
        copy = tmp_path / "monitors"
        shutil.copytree(monitors_dir, copy)
        corrupt(copy / name)
        assert main(["monitor", "--monitors", str(copy), "--input", stream_path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {copy / name} ")

    @pytest.mark.parametrize("length", [None, 0, "50"], ids=["none", "zero", "text"])
    def test_checkpoint_without_a_window_length_exits_2(
        self, trained_run, one_record, tmp_path, capsys, length
    ):
        """A checkpoint of init_regressor's default window length is refused
        by evaluate and monitor before they read a record."""
        from changepoint_rul.lstm import load_checkpoint, save_checkpoint

        cfg, model, _, meta = trained_run
        path = str(tmp_path / "no_length.npz")
        save_checkpoint(replace(model, sequence_length=length), path, meta=meta)
        assert load_checkpoint(path)[0].sequence_length == length  # loads for library use
        monitors_dir, stream_path = one_record
        argv = ["evaluate", "--data-dir", cfg.data_dir, "--out-dir", str(tmp_path)]
        assert main(argv + ["--checkpoint", path]) == 2
        argv = ["monitor", "--monitors", monitors_dir, "--input", stream_path]
        assert main(argv + ["--checkpoint", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count(f"no usable window length: {length!r}") == 2
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda path, _: path.write_text("unit cycle sensors\n"),
            lambda path, data: path.write_bytes(data[: len(data) // 2]),
            lambda path, _: path.write_bytes(b""),
            lambda path, _: _rewrite_header(path, lambda h: _without(h, "input_dim")),
            lambda path, _: _rewrite_header(path, lambda h: dict(h, meta=_without(h["meta"], "pooled_std"))),
            *[
                lambda path, _, cap=cap: _rewrite_header(path, lambda h: dict(h, label_cap=cap))
                for cap in ("130", True, 0, -1, float("nan"), float("inf"))
            ],
        ],
        ids=[
            "text",
            "truncated",
            "empty",
            "header_without_input_dim",
            "meta_without_pooled_std",
            *(f"label_cap_{name}" for name in ("text", "true", "zero", "negative", "nan", "inf")),
        ],
    )
    def test_corrupt_checkpoint_exits_2(self, trained_run, one_record, tmp_path, capsys, corrupt):
        cfg = trained_run[0]
        path = tmp_path / "corrupt.npz"
        shutil.copy(os.path.join(cfg.out_dir, "checkpoint.npz"), path)
        corrupt(path, path.read_bytes())
        monitors_dir, stream_path = one_record
        argv = ["evaluate", "--data-dir", cfg.data_dir, "--out-dir", str(tmp_path)]
        assert main(argv + ["--checkpoint", str(path)]) == 2
        argv = ["monitor", "--monitors", monitors_dir, "--input", stream_path]
        assert main(argv + ["--checkpoint", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count(f"checkpoint {path}") == 2

    def test_missing_checkpoint_exits_2(self, trained_run, tmp_path, capsys):
        cfg = trained_run[0]
        argv = ["evaluate", "--data-dir", cfg.data_dir, "--out-dir", str(tmp_path)]
        assert main(argv + ["--checkpoint", str(tmp_path / "none.npz")]) == 2
        assert capsys.readouterr().err.startswith("error: missing input file")

    @pytest.mark.parametrize("case", ["train_log", "monitor_input", "checkpoint", "out_dir"])
    def test_unusable_path_exits_2(self, corpus, one_record, tmp_path, capsys, case):
        """A directory where a file belongs, or a file where a directory
        belongs, is a data error naming the path, not a traceback."""
        monitors_dir, _ = one_record
        out_dir = str(tmp_path / "out")
        if case == "train_log":
            path = tmp_path / "data" / "train_FD001.txt"
            path.mkdir(parents=True)
            argv = ["detect", "--data-dir", str(path.parent), "--out-dir", out_dir]
        elif case == "monitor_input":
            path = tmp_path
            argv = ["monitor", "--monitors", monitors_dir, "--input", str(path)]
        elif case == "checkpoint":
            path = tmp_path
            argv = ["evaluate", "--data-dir", corpus[0], "--out-dir", out_dir, "--checkpoint", str(path)]
        else:
            path = tmp_path / "file"
            path.write_text("")
            argv = ["detect", "--data-dir", corpus[0], "--out-dir", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [Errno ")
        assert str(path) in err and "Traceback" not in err

    def test_non_integer_sweep_candidate_exits_1(self, corpus, tmp_path, capsys):
        argv = ["sweep", "--data-dir", corpus[0], "--out-dir", str(tmp_path)]
        assert main(argv + ["--candidates", "100,abc"]) == 1
        assert capsys.readouterr().err == "error: sweep candidate 'abc' is not an integer\n"
        assert not os.listdir(tmp_path)

    def test_normal_window_too_short_for_a_limit_exits_1_before_writing(
        self, corpus, tmp_path, capsys
    ):
        """A 20-cycle normal window leaves 17 in-sample statistics at p=2, fewer
        than a control limit needs: a config error, not a fleet of fallbacks."""
        out_dir = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        config = {"data_dir": corpus[0], "out_dir": str(out_dir), "normal_window": 20}
        cfg_path.write_text(json.dumps(config))
        assert main(["detect", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a control limit needs a normal window >= 33 at p=2, got 20\n"
        assert not out_dir.exists()

    def test_sweep_reports_a_candidate_below_any_config_as_na(self, corpus, tmp_path, capsys):
        """Candidate 0 is no valid minimum lifespan, yet it is reported as NA
        beside the candidates that run."""
        config = dict(SMALL_NET, data_dir=corpus[0], out_dir=str(tmp_path), epochs=1, subset=4)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["sweep", "--config", str(tmp_path / "cfg.json"), "--candidates", "0,200"]
        assert main(argv) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if "min_lifespan" in line]
        assert printed[0] == "min_lifespan=0    NA (candidate below first monitorable lifespan 83)"
        assert printed[1].startswith("min_lifespan=200  RMSE=") and len(printed) == 2
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert [(r["min_lifespan"], r["applicable"]) for r in rows] == [(0, False), (200, True)]
        assert not (tmp_path / "sweep_0").exists()

    def test_negative_seed_exits_1(self, corpus, tmp_path, capsys):
        argv = ["train", "--data-dir", corpus[0], "--out-dir", str(tmp_path), "--seed", "-5"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"

    @pytest.mark.parametrize("command", ["detect", "train"])
    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"batch_size": 0}, "epochs must be >= 0 and batch size >= 1"),
            ({"optimizer": "adam"}, "unknown optimizer 'adam'; only 'rmsprop' is supported"),
        ],
        ids=["zero_batch", "adam"],
    )
    def test_bad_training_setting_exits_1_before_writing(
        self, corpus, tmp_path, capsys, command, payload, message
    ):
        out_dir = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(payload, data_dir=corpus[0], out_dir=str(out_dir))))
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()


def test_non_finite_report_value_raises_and_writes_nothing(tmp_path):
    path = tmp_path / "out" / "report.json"
    with pytest.raises(NumericError, match="holds a non-finite value") as excinfo:
        _write_json(str(path), {"rmse": float("nan")})
    assert str(path) in str(excinfo.value)
    assert not path.parent.exists()


def _without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


def _edit_store(path, edit):
    """Re-save a monitor store after ``edit`` changed its arrays by name in place."""
    with np.load(path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    edit(arrays)
    np.savez(path, **arrays)


def _to_unit_files(store):
    """Leave a monitors directory in the per-unit JSON format of older versions."""
    for path in store.parent.iterdir():
        path.unlink()
    (store.parent / "unit_0001.json").write_text(json.dumps({"cl_t2": 1.0, "cl_q": 1.0}))


def _rewrite_header(path, edit):
    """Re-save a checkpoint with its JSON header passed through ``edit``."""
    with np.load(path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    header = edit(json.loads(bytes(arrays["header"]).decode()))
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _assert_stream_matches_trace(data_dir, cfg, outcomes, checkpoint=None):
    """Stream every raw row of a detected train engine through the written
    monitors (and a checkpoint, if given). Cycles 1..p carry no statistics;
    each later cycle k carries exactly the statistic trace of its own rows
    k-p..k, and the whole-life trace to rounding (BLAS rounds a one-column
    product differently from a many-column one). Returns the status events
    and the engine's selected rows."""
    from changepoint_rul.cmapss import (
        apply_selection,
        parse_cmapss_file,
        select_sensors,
        train_file,
    )
    from changepoint_rul.monitoring import statistic_trace
    from changepoint_rul.streaming import run_monitor

    outcome = [o for o in outcomes if o.method == "detected"][0]
    series = parse_cmapss_file(open(train_file(data_dir, "FD001")).read())[outcome.unit_id - 1]
    lines = [
        json.dumps({"unit": series.unit_id, "cycle": int(c), "sensors": series.sensors[i].tolist()})
        for i, c in enumerate(series.cycles)
    ]
    out = io.StringIO()
    run_monitor(os.path.join(cfg.out_dir, "monitors"), lines, out, checkpoint_path=checkpoint)
    status = [e for e in map(json.loads, out.getvalue().splitlines()) if e["type"] != "change_point"]
    assert [e["type"] for e in status] == ["status"] * series.k_max

    p = cfg.p
    sensors = apply_selection(series, select_sensors("FD001")).sensors
    trace = statistic_trace(outcome.monitor, sensors)
    assert trace.start_cycle == p + 1
    assert all(e["t2"] is None and e["q"] is None for e in status[:p])
    for k in range(p + 1, series.k_max + 1):
        own = statistic_trace(outcome.monitor, sensors[k - p - 1 : k])
        assert (status[k - 1]["t2"], status[k - 1]["q"]) == (own.t2[0], own.q[0]), k
    for key, offline in (("t2", trace.t2), ("q", trace.q)):
        np.testing.assert_allclose([e[key] for e in status[p:]], offline, rtol=1e-12, atol=0.0)
    return status, sensors


def test_stream_reproduces_offline_statistic_trace(corpus, detect_run):
    """The stream without a regressor, holding p+1 rows per device."""
    cfg, outcomes, _, _ = detect_run
    _assert_stream_matches_trace(corpus[0], cfg, outcomes)


def test_stream_with_float32_checkpoint_reproduces_offline_statistic_trace(
    corpus, detect_run, trained_run
):
    """The stream with a float32 regressor, holding a whole RUL window of rows;
    each estimate is the regressor's on the last L rows up to its cycle."""
    from changepoint_rul.cva import apply_standardizer
    from changepoint_rul.labeling import trailing_window
    from changepoint_rul.lstm import predict
    from changepoint_rul.pipeline import read_checkpoint

    cfg, outcomes, _, _ = detect_run
    checkpoint = os.path.join(trained_run[0].out_dir, "checkpoint.npz")
    regressor, _, pooled = read_checkpoint(checkpoint)
    length = regressor.sequence_length
    assert regressor.dtype == np.float32 and length > cfg.p + 1
    status, sensors = _assert_stream_matches_trace(corpus[0], cfg, outcomes, checkpoint=checkpoint)
    estimated = [k for k, e in enumerate(status, start=1) if "rul" in e]
    assert estimated
    for k in estimated:
        x = apply_standardizer(pooled, sensors[max(0, k - length) : k].T).T
        assert status[k - 1]["rul"] == predict(regressor, trailing_window(x, length), cap=130.0)
