"""The three benchmark workloads: set-up, one measured pass, output checks.

Each workload object has ``setup()``, which makes its inputs from the seed
and brings the program to the state the measured pass starts from,
``run_pass()``, which runs the measured calls once and returns a ``Pass``
holding their outputs, and ``check(pass)``, which checks those outputs and
returns the number of failed operations; ``operations`` is the number of
operations one pass attempts. The checks run apart from the pass, so a
traced run does not count their calls into the package. The package is
reached only through its public module attributes, so the hook points in
``hook_points()`` see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

from changepoint_rul import cmapss, labeling, lstm, monitoring, pipeline, streaming
from changepoint_rul.config import default_config
from changepoint_rul.cva import Standardizer

import corpus

RUL_CAP = 130.0
# A detected change point may precede the injected one by chance breaches
# that run into the permanent one; as in the acceptance oracle, at least
# WITHIN_SHARE of a fleet's detected engines must sit within their breach
# persistence + CP_SLACK cycles of the injected change point.
CP_SLACK = 5
WITHIN_SHARE = 0.9
# Healthy units of the stream stop this many cycles before their change point.
HEALTHY_MARGIN = 15


@dataclass
class Pass:
    """One measured pass: its wall time, the work it did and what failed."""

    seconds: float
    items: int  # work items the throughput counts
    attempted: int
    failed: int = 0  # set from check()
    detail: dict = field(default_factory=dict)
    outputs: tuple = ()  # what check() looks at


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _final_breach_start(stats, cl_t2: float, cl_q: float, first: int):
    """Earliest cycle >= first from which t2 or q stays at or above its limit."""
    starts = []
    for values, limit in ((stats.t2, cl_t2), (stats.q, cl_q)):
        below = np.flatnonzero(values[first - stats.start_cycle :] < limit)
        tail = first + (below[-1] + 1 if len(below) else 0)
        if tail <= stats.end_cycle:
            starts.append(tail)
    return min(starts) if starts else None


class FleetDetect:
    """FD004-shaped train fleet; timed: parse + ``run_detect(write=True)``."""

    name = "fleet_detect"
    operation = "one engine of a detect pass"
    sizes = {
        "full": dict(n=249, lo=128, hi=543, n_short=46),
        "tiny": dict(n=12, lo=128, hi=300, n_short=3),
    }

    def __init__(self, size: str, seed: int, workdir: str):
        self.size = self.sizes[size]
        self.seed = seed
        self.config = default_config(
            "FD004",
            data_dir=os.path.join(workdir, "data"),
            out_dir=os.path.join(workdir, "out"),
            seed=seed,
        )

    def setup(self):
        s = self.size
        self.engines = corpus.make_fleet(
            self.seed,
            corpus.lifespan_grid(s["n"], s["lo"], s["hi"], s["n_short"]),
            np.linspace(60, 110, s["n"]).round(),
        )
        corpus.write_split(self.config.data_dir, "FD004", "train", corpus.log_text(self.engines))
        self.n_long = sum(e.k_max >= self.config.min_lifespan for e in self.engines)
        self.operations = len(self.engines)

    def run_pass(self) -> Pass:
        start = perf_counter()
        outcomes, summary = pipeline.run_detect(self.config, write=True)
        seconds = perf_counter() - start
        n = len(self.engines)
        return Pass(seconds, n, n, detail=dict(summary), outputs=(outcomes, summary))

    def check(self, p: Pass) -> int:
        """Engines whose detection is off the injected truth or the statistics.

        Per engine: the method follows the lifespan; a detected change point
        is the start of the final all-breach run of the engine's statistic
        trace (flagged exactly when that run starts at the first monitored
        cycle), and is no later than one cycle after the injected change
        point, the first cycle whose past lags hold drifted rows. Per fleet:
        the WITHIN_SHARE rule above; each engine short of it counts as failed.
        """
        outcomes, summary = p.outputs
        c = self.config
        tau = c.normal_window + c.validation_window + c.p
        columns = cmapss.select_sensors(c.dataset_id).column_indices
        by_unit = {o.unit_id: o for o in outcomes}
        failed = within = detected = 0
        for e in self.engines:
            o = by_unit.get(e.unit)
            detect = e.k_max >= c.min_lifespan
            ok = (
                o is not None
                and o.k_max == e.k_max
                and o.method == ("detected" if detect else "fallback_cap")
            )
            if ok and detect:
                stats = monitoring.statistic_trace(o.monitor, e.sensors[:, columns])
                start = _final_breach_start(stats, o.cl_t2, o.cl_q, tau)
                ok = o.k_cp == start and o.flagged == (start == tau) and o.k_cp <= e.k_cp + 1
                detected += 1
                within += abs(o.k_cp - e.k_cp) <= o.persistence + CP_SLACK
            elif ok:
                ok = not o.flagged
            failed += not ok
        failed += max(0, math.ceil(WITHIN_SHARE * detected) - within)
        n_short = len(self.engines) - self.n_long
        if summary["n_detected"] != self.n_long or summary["n_fallback"] != n_short:
            failed = max(failed, 1)
        return failed

    def report(self, passes) -> list:
        p = passes[-1].detail
        return [
            ("detect_engines_per_s", len(self.engines) / _median([x.seconds for x in passes]), "1/s",
             f"median of {len(passes)} passes over {len(self.engines)} engines"),
            ("fallback_share", p["n_fallback"] / p["n_engines"], "ratio",
             f"{p['n_fallback']} fallback / {p['n_engines']} engines; "
             f"{p['n_detected']} detected, {p['n_flagged']} flagged"),
        ]


class TrainPaper:
    """FD001-shaped fleets and the paper's LSTM; timed: build windows, train a
    fixed number of batches, save, then ``run_evaluate`` on every test engine."""

    name = "train_paper"
    operation = "one training batch or one test engine"
    sizes = {
        "full": dict(n_train=100, n_test=100, n_short=45, hi=362, hidden=(256, 128, 32),
                     dropout=(0.2, 0.1), length=50, batch=64, batches=8),
        "tiny": dict(n_train=10, n_test=6, n_short=3, hi=300, hidden=(8, 8, 4),
                     dropout=(0.1, 0.1), length=30, batch=16, batches=2),
    }

    def __init__(self, size: str, seed: int, workdir: str):
        s = self.size = self.sizes[size]
        self.seed = seed
        self.config = default_config(
            "FD001",
            data_dir=os.path.join(workdir, "data"),
            out_dir=os.path.join(workdir, "out"),
            seed=seed,
            hidden_sizes=s["hidden"],
            dropout_ratios=s["dropout"],
            sequence_length=s["length"],
            batch_size=s["batch"],
            epochs=1,
        )
        c = self.config
        self.train_config = lstm.TrainConfig(
            sequence_length=c.sequence_length,
            hidden_sizes=c.hidden_sizes,
            dropout_ratios=c.dropout_ratios,
            learning_rate=c.learning_rate,
            epochs=c.epochs,
            batch_size=c.batch_size,
            optimizer=c.optimizer,
            seed=c.seed,
            grad_clip=c.grad_clip,
            label_cap=float(c.fallback_cap),
        )
        self.checkpoint = os.path.join(c.out_dir, "checkpoint.npz")
        self.first_rmse = None

    def setup(self):
        s, c = self.size, self.config
        offsets = np.linspace(60, 110, s["n_train"]).round()
        train = corpus.make_fleet(
            (self.seed, 0),
            corpus.lifespan_grid(s["n_train"], 128, s["hi"], s["n_short"]),
            offsets,
            flat=corpus.FLAT_SINGLE_CONDITION,
        )
        test = corpus.make_fleet(
            (self.seed, 1),
            corpus.lifespan_grid(
                s["n_test"], 128, s["hi"], s["n_test"] * s["n_short"] // s["n_train"]
            ),
            np.linspace(60, 110, s["n_test"]).round(),
            flat=corpus.FLAT_SINGLE_CONDITION,
        )
        cutoffs = corpus.holdout_cutoffs(
            (self.seed, 2), test, np.linspace(7, 145, s["n_test"]).round()
        )
        path = corpus.write_split(c.data_dir, "FD001", "train", corpus.log_text(train))
        corpus.write_split(c.data_dir, "FD001", "test", corpus.log_text(test, cutoffs))
        corpus.write_split(
            c.data_dir, "FD001", "RUL", "".join(f"{e.k_max - cutoffs[e.unit]}\n" for e in test)
        )
        self.n_test = len(test)
        self.operations = s["batches"] + self.n_test
        os.makedirs(c.out_dir, exist_ok=True)

        with open(path) as fh:
            parsed = cmapss.parse_cmapss_file(fh.read(), "FD001")
        self.selection = cmapss.select_sensors("FD001")
        self.selected = [cmapss.apply_selection(e, self.selection) for e in parsed]
        self.outcomes, _ = pipeline.run_detect(c, engines=self.selected, write=False)

    def run_pass(self) -> Pass:
        c, s = self.config, self.size
        start = perf_counter()
        pooled, windowed = pipeline.build_training_data(c, self.selected, self.outcomes)
        n_pick = min(s["batches"] * s["batch"], len(windowed))
        pick = np.random.default_rng(self.seed).choice(len(windowed), n_pick, replace=False)
        sample = labeling.WindowedDataset(
            windows=windowed.windows[pick],
            targets=windowed.targets[pick],
            units=windowed.units[pick],
            end_cycles=windowed.end_cycles[pick],
        )
        model, history = lstm.train(sample, self.train_config)
        meta = {
            "dataset": c.dataset_id,
            "kept_indices": list(self.selection.kept_indices),
            "pooled_mean": pooled.mean.tolist(),
            "pooled_std": pooled.std.tolist(),
            "n_windows": n_pick,
            "seed": c.seed,
        }
        lstm.save_checkpoint(model, self.checkpoint, meta=meta)
        trained = perf_counter()
        with redirect_stdout(io.StringIO()):  # run_evaluate prints a metrics row
            report = pipeline.run_evaluate(c, checkpoint_path=self.checkpoint, write=True)
        end = perf_counter()

        n_batches = math.ceil(n_pick / s["batch"])
        return Pass(
            seconds=end - start,
            items=n_pick,
            attempted=n_batches + self.n_test,
            detail={
                "windows_built": len(windowed),
                "loss": history[-1],
                "rmse": report.rmse,
                "train_s": trained - start,
                "evaluate_s": end - trained,
            },
            outputs=(history, report, n_batches),
        )

    def check(self, p: Pass) -> int:
        """Failed batches (non-finite loss) and test engines (an estimate that
        is not finite or not in [0, RUL_CAP]; every one when the RMSE is not
        finite or differs from the run's first pass)."""
        history, report, n_batches = p.outputs
        estimates = [row.predicted_rul for row in report.per_engine]
        failed = 0 if all(math.isfinite(v) for v in history) else n_batches
        bad = sum(not (math.isfinite(v) and 0.0 <= v <= RUL_CAP) for v in estimates)
        bad += self.n_test - len(estimates)
        if not math.isfinite(report.rmse):
            bad = self.n_test
        elif self.first_rmse is None:
            self.first_rmse = report.rmse
        elif abs(report.rmse - self.first_rmse) > 1e-9 * self.first_rmse:
            bad = self.n_test  # the same seed must give the same model
        return failed + bad

    def report(self, passes) -> list:
        last = passes[-1].detail
        n = len(passes)
        return [
            ("train_windows_per_s", passes[-1].items / _median([p.detail["train_s"] for p in passes]),
             "1/s", f"median of {n} passes, {passes[-1].items} windows each "
             f"(window build + lstm.train + checkpoint save)"),
            ("evaluate_engines_per_s", self.n_test / _median([p.detail["evaluate_s"] for p in passes]),
             "1/s", f"median of {n} passes over {self.n_test} test engines"),
            ("rmse", last["rmse"], "cycles",
             f"capped test RMSE after {math.ceil(passes[-1].items / self.size['batch'])} batches"),
            ("train_loss", last["loss"], "cycles^2", "mean squared error of the trained batches"),
            ("windows_built", last["windows_built"], "count", "training windows built per pass"),
        ]


def _declare_cycle(stats, monitor):
    """Cycle at which a breach run first outlasts the monitor's persistence,
    the stream's rule for declaring a change point; None if it never does."""
    run_t2 = run_q = 0
    for i, (t2, q) in enumerate(zip(stats.t2, stats.q)):
        run_t2 = run_t2 + 1 if t2 >= monitor.cl_t2 else 0
        run_q = run_q + 1 if q >= monitor.cl_q else 0
        if max(run_t2, run_q) > monitor.persistence:
            return stats.start_cycle + i
    return None


def _strict_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


class StreamReplay:
    """Detect on a fleet and load a paper-shape checkpoint in set-up; timed:
    per-cycle JSON records through ``StreamMonitor.process_line`` plus one
    ``json.dumps`` per event, as ``run_monitor`` does, one record at a time."""

    name = "stream_replay"
    operation = "one stream record"
    sizes = {
        "full": dict(n=12, lo=220, hi=330, degrading=40, hidden=(256, 128, 32),
                     dropout=(0.2, 0.1), length=50),
        "tiny": dict(n=4, lo=200, hi=240, degrading=10, hidden=(8, 8, 4),
                     dropout=(0.1, 0.1), length=30),
    }

    def __init__(self, size: str, seed: int, workdir: str):
        s = self.size = self.sizes[size]
        self.seed = seed
        self.config = default_config(
            "FD001",
            data_dir=os.path.join(workdir, "data"),
            out_dir=os.path.join(workdir, "out"),
            seed=seed,
            hidden_sizes=s["hidden"],
            dropout_ratios=s["dropout"],
            sequence_length=s["length"],
        )
        self.checkpoint = os.path.join(self.config.out_dir, "checkpoint.npz")

    def setup(self):
        s, c = self.size, self.config
        engines = corpus.make_fleet(
            self.seed,
            np.linspace(s["lo"], s["hi"], s["n"]).round(),
            np.linspace(60, 110, s["n"]).round(),
            flat=corpus.FLAT_SINGLE_CONDITION,
        )
        path = corpus.write_split(c.data_dir, "FD001", "train", corpus.log_text(engines))
        with open(path) as fh:
            parsed = cmapss.parse_cmapss_file(fh.read(), "FD001")
        selection = cmapss.select_sensors("FD001")
        selected = [cmapss.apply_selection(e, selection) for e in parsed]
        outcomes, _ = pipeline.run_detect(c, engines=selected, write=True)
        pooled, _ = pipeline.build_training_data(c, selected, outcomes)
        model = lstm.init_regressor(
            selection.m, c.hidden_sizes, c.dropout_ratios, seed=c.seed,
            label_cap=RUL_CAP, sequence_length=c.sequence_length,
        )
        meta = {
            "dataset": c.dataset_id,
            "kept_indices": list(selection.kept_indices),
            "pooled_mean": pooled.mean.tolist(),
            "pooled_std": pooled.std.tolist(),
            "seed": c.seed,
        }
        lstm.save_checkpoint(model, self.checkpoint, meta=meta)

        self.monitors, manifest = streaming.load_monitors(os.path.join(c.out_dir, "monitors"))
        self.kept = manifest["kept_indices"]
        self.regressor, meta = lstm.load_checkpoint(self.checkpoint)
        self.pooled = Standardizer(
            mean=np.asarray(meta["pooled_mean"], dtype=float),
            std=np.asarray(meta["pooled_std"], dtype=float),
        )

        # Every other unit runs until it has sent `degrading` records after
        # the cycle the stream will declare its change point at; the rest stop
        # before their injected or detected change point, so they stay healthy.
        columns = np.asarray(self.kept, dtype=int) - 1
        detected = {o.unit_id: o.k_cp or o.k_max for o in outcomes}
        last = {}
        for i, e in enumerate(engines):
            if i % 2:
                last[e.unit] = min(e.k_cp, detected[e.unit]) - HEALTHY_MARGIN
            else:
                monitor = self.monitors[e.unit]
                stats = monitoring.statistic_trace(monitor, e.sensors[:, columns])
                declared = _declare_cycle(stats, monitor)
                stop = e.k_max if declared is None else declared + s["degrading"] - 1
                last[e.unit] = min(e.k_max, stop)
        self.records = corpus.stream_records(engines, last)
        self.operations = len(self.records)
        sampled = engines[int(np.random.default_rng((self.seed, 3)).integers(len(engines)))]
        self.sampled = sampled.unit
        self.reference = monitoring.statistic_trace(
            self.monitors[sampled.unit], sampled.sensors[: last[sampled.unit], columns]
        )

    def run_pass(self) -> Pass:
        stream = streaming.StreamMonitor(
            self.monitors, self.kept, regressor=self.regressor, pooled=self.pooled, rul_cap=RUL_CAP
        )
        n = len(self.records)
        latency_ns = np.empty(n, dtype=np.int64)
        results = [None] * n
        start = perf_counter()
        for i, (_, _, line) in enumerate(self.records):
            t0 = perf_counter_ns()
            events = stream.process_line(line)
            lines = [json.dumps(event, sort_keys=True) for event in events]
            latency_ns[i] = perf_counter_ns() - t0
            results[i] = (events, lines)
        seconds = perf_counter() - start

        degrading = np.array([bool(events) and "rul" in events[0] for events, _ in results])
        return Pass(
            seconds=seconds,
            items=n,
            attempted=n,
            detail={"healthy_ns": latency_ns[~degrading], "degrading_ns": latency_ns[degrading]},
            outputs=results,
        )

    def check(self, p: Pass) -> int:
        """Records without a leading status event, with a rejected event or a
        non-strict JSON line, with an estimate outside [0, RUL_CAP], or, for
        the sampled unit, with t2/q off the offline statistic trace."""
        failed = 0
        for (unit, cycle, _), (events, lines) in zip(self.records, p.outputs):
            rejected = any(e.get("type") == "rejected" for e in events)
            ok = bool(events) and not rejected and events[0].get("type") == "status"
            try:
                for text in lines:
                    json.loads(text, parse_constant=_strict_constant)
            except ValueError:
                ok = False
            if ok and "rul" in events[0]:
                ok = math.isfinite(events[0]["rul"]) and 0.0 <= events[0]["rul"] <= RUL_CAP
            if ok and unit == self.sampled:
                ok = self._matches_trace(events[0], cycle - self.reference.start_cycle)
            failed += not ok
        return failed

    def _matches_trace(self, status: dict, k: int) -> bool:
        """The streamed t2/q of one cycle equal the offline statistic trace."""
        if k < 0:
            return status.get("t2") is None and status.get("q") is None
        for key, values in (("t2", self.reference.t2), ("q", self.reference.q)):
            got, want = status.get(key), float(values[k])
            if got is None or abs(got - want) > 1e-9 * max(1.0, abs(want)):
                return False
        return True

    def report(self, passes) -> list:
        healthy = np.concatenate([p.detail["healthy_ns"] for p in passes]) / 1e3
        degrading = np.concatenate([p.detail["degrading_ns"] for p in passes]) / 1e6
        n = passes[-1].items
        share = len(passes[-1].detail["degrading_ns"]) / n
        return [
            ("stream_records_per_s", n / _median([p.seconds for p in passes]), "1/s",
             f"median of {len(passes)} passes, {n} records each"),
            ("stream_healthy_p50_us", _percentile(healthy, 50), "us", f"n={len(healthy)} records"),
            ("stream_healthy_p99_us", _percentile(healthy, 99), "us", f"n={len(healthy)} records"),
            ("stream_degrading_p50_ms", _percentile(degrading, 50), "ms", f"n={len(degrading)} records"),
            ("stream_degrading_p99_ms", _percentile(degrading, 99), "ms", f"n={len(degrading)} records"),
            ("degrading_share", share, "ratio",
             f"{len(passes[-1].detail['degrading_ns'])} of {n} records make an LSTM call"),
        ]


WORKLOADS = {w.name: w for w in (FleetDetect, TrainPaper, StreamReplay)}


# ---- traced run ------------------------------------------------------------


def _detect_info(args, result):
    summary = result[1]
    return {k: summary[k] for k in ("n_engines", "n_detected", "n_fallback", "n_flagged")}


def _parse_info(args, result):
    return {"bytes": len(args[0]), "rows": sum(len(e.cycles) for e in result)}


def _windows_info(args, result):
    return {"windows": len(result), "bytes": result.windows.nbytes}


def _batch_info(args, result):
    return {"windows": int(np.shape(args[1])[0])}


def _record_info(args, result):
    return {
        "degrading": bool(result) and "rul" in result[0],
        "events": len(result),
        "rejected": sum(e.get("type") == "rejected" for e in result),
    }


def hook_points():
    """(owner, attribute, span name, info) for every traced call site."""
    return [
        (pipeline, "run_detect", "pipeline.run_detect", _detect_info),
        (pipeline, "build_training_data", "pipeline.build_training_data", None),
        (pipeline, "run_evaluate", "pipeline.run_evaluate", None),
        (pipeline, "fit_device_monitor", "monitoring.fit_device_monitor", None),
        (pipeline, "sliding_windows", "labeling.sliding_windows", _windows_info),
        (pipeline, "predict", "lstm.predict", None),
        (pipeline, "load_checkpoint", "lstm.load_checkpoint", None),
        (cmapss, "parse_cmapss_file", "cmapss.parse_cmapss_file", _parse_info),
        (monitoring, "fit_cva", "cva.fit_cva", None),
        (monitoring, "project", "cva.project", None),
        (monitoring, "kde_control_limit", "monitoring.kde_control_limit", None),
        (monitoring, "kde_cdf", "monitoring.kde_cdf", None),
        (monitoring, "detect_change_point", "monitoring.detect_change_point", None),
        (lstm, "train", "lstm.train", None),
        (lstm, "loss_and_gradients", "lstm.loss_and_gradients", _batch_info),
        (lstm, "clip_gradients", "lstm.clip_gradients", None),
        (lstm, "rmsprop_step", "lstm.rmsprop_step", None),
        (lstm, "save_checkpoint", "lstm.save_checkpoint", None),
        (lstm, "load_checkpoint", "lstm.load_checkpoint", None),
        (streaming, "project", "cva.project", None),
        (streaming, "predict", "lstm.predict", None),
        (streaming, "load_monitors", "streaming.load_monitors", None),
        (streaming.StreamMonitor, "process_line", "streaming.process_line", _record_info),
    ]


def gemm_flops_per_window(wl) -> float:
    """Computed GEMM flops of one window's LSTM forward + backward pass.

    Per layer of input d and hidden h over L steps: the input and recurrent
    products forward (2*4h*(d+h) per step) and, backward, the weight, input
    and recurrent gradients (2 * 2*4h*(d+h) per step): 24*L*h*(d+h) in all.
    Zero for workloads that do not train.
    """
    if not isinstance(wl, TrainPaper):
        return 0.0
    c = wl.config
    d, total = len(cmapss.select_sensors(c.dataset_id).kept_indices), 0
    for h in c.hidden_sizes:
        total += 24 * c.sequence_length * h * (d + h)
        d = h
    return float(total)


def info(key):
    return lambda s: (s.info or {}).get(key, 0)


def seconds(s):
    return s.seconds


def layer_metrics(tracer, flops_per_window: float) -> dict:
    """Per-layer numbers from the spans of a traced run (without the overhead)."""
    t = tracer
    t.settle()
    parse_s = t.per_segment("cmapss.parse_cmapss_file", seconds)
    records = t.per_segment("streaming.process_line")
    degrading = t.per_segment("streaming.process_line", info("degrading"))
    return {
        "cmapss.parse_s": parse_s,
        "cmapss.parse_mb_per_s": (
            t.per_segment("cmapss.parse_cmapss_file", info("bytes")) / 1e6 / parse_s
            if parse_s
            else 0.0
        ),
        "cmapss.rows": t.per_segment("cmapss.parse_cmapss_file", info("rows")),
        "cva.fit_s": t.per_segment("cva.fit_cva", seconds),
        "cva.fit_calls": t.per_segment("cva.fit_cva"),
        "cva.project_s": t.per_segment("cva.project", seconds),
        "cva.project_calls": t.per_segment("cva.project"),
        "monitoring.fit_device_monitor_s": t.per_segment("monitoring.fit_device_monitor", seconds),
        "monitoring.kde_limit_s": t.per_segment("monitoring.kde_control_limit", seconds),
        "monitoring.kde_cdf_evals": t.per_segment("monitoring.kde_cdf"),
        "monitoring.detect_scan_s": t.per_segment("monitoring.detect_change_point", seconds),
        "monitoring.engines_detected": t.per_segment("pipeline.run_detect", info("n_detected")),
        "monitoring.engines_fallback": t.per_segment("pipeline.run_detect", info("n_fallback")),
        "monitoring.engines_flagged": t.per_segment("pipeline.run_detect", info("n_flagged")),
        "pipeline.run_detect_self_s": t.per_segment("pipeline.run_detect", lambda s: s.self_s),
        "pipeline.build_training_data_s": t.per_segment("pipeline.build_training_data", seconds),
        "pipeline.run_evaluate_self_s": t.per_segment("pipeline.run_evaluate", lambda s: s.self_s),
        "labeling.sliding_windows_s": t.per_segment("labeling.sliding_windows", seconds),
        "labeling.windows": t.per_segment("labeling.sliding_windows", info("windows")),
        "labeling.window_mb": t.per_segment("labeling.sliding_windows", info("bytes")) / 1e6,
        "lstm.loss_and_gradients_ms": 1e3 * t.call_median("lstm.loss_and_gradients"),
        "lstm.clip_ms": 1e3 * t.call_median("lstm.clip_gradients"),
        "lstm.optimizer_ms": 1e3 * t.call_median("lstm.rmsprop_step"),
        "lstm.train_gflops": t.call_median(
            "lstm.loss_and_gradients",
            value=lambda s: flops_per_window * info("windows")(s) / s.seconds / 1e9,
        ),
        "lstm.predict_ms": 1e3 * t.call_median("lstm.predict"),
        "lstm.predict_calls": t.per_segment("lstm.predict"),
        "lstm.checkpoint_load_s": t.per_segment("lstm.load_checkpoint", seconds),
        "streaming.process_line_healthy_us": 1e6 * t.call_median(
            "streaming.process_line", keep=lambda i: not i["degrading"]
        ),
        "streaming.process_line_degrading_ms": 1e3 * t.call_median(
            "streaming.process_line", keep=lambda i: i["degrading"]
        ),
        "streaming.records": records,
        "streaming.events": t.per_segment("streaming.process_line", info("events")),
        "streaming.rejected": t.per_segment("streaming.process_line", info("rejected")),
        "streaming.degrading_share": degrading / records if records else 0.0,
        "streaming.load_monitors_s": t.per_segment("streaming.load_monitors", seconds),
    }
