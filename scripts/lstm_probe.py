"""Time the LSTM's batched forward and backward and its batch-1 predict; trace their memory.

    python3 scripts/lstm_probe.py [--src DIR ...] [--reps N] [--warmup W] [--out FILE]

Shapes:

* ``paper``: 14 inputs, LSTM 256/128/32, dropout 0.2/0.1, L=50, batch 64,
  float32 (a ``train_paper`` training batch);
* ``desk``: 14 inputs, LSTM 32/16/8, dropout 0.1/0.1, L=30, batch 64, float32
  (the desk acceptance model's training batch);
* ``predict_float64``: ``predict`` on one (50, 14) window of the paper-shape
  model in float64, the batch-1 forward that the stream runs per degrading
  record (one sample is the mean of 20 calls);
* ``predict_batch``: ``predict_batch`` on 100 (50, 14) windows of the
  paper-shape model in float32, as ``evaluate`` scores a fleet (not timed).

Each repetition of a training shape runs one training-mode forward and then
the backward over its cache, each timed on its own; ``fwd_bwd`` is their sum.
The first ``--warmup`` repetitions are dropped; the median and quartiles of the
rest are reported in ms. ``loss`` (the first batch's mean squared error),
``grads_sha256`` (a digest of the first batch's gradients, name and bytes of
each) and ``estimate`` show that two checkouts compute the same thing.
Memory is traced in extra, untimed calls: ``train_step_peak_mb`` is the
tracemalloc peak of one ``loss_and_gradients`` on a training shape's first
batch, and ``predict_batch_peak_mb`` that of the ``predict_batch`` call, whose
estimates are digested in ``sha256``.

``--src`` names a checkout's ``src`` directory (default: this checkout's). Given
more than once, every checkout's package is loaded into this one process and
each repetition runs them in turn, the order reversed every other repetition,
so that a drift in host speed hits all of them alike; ``ratio_to_first`` is
then the median over repetitions of each checkout's time over the first's,
and each ``same_as_first`` tells whether a digest equals the first checkout's.
BLAS is held to one thread before numpy loads. The JSON result goes to stdout,
and to ``--out`` if given.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (imported once the thread count is set)

ROOT = Path(__file__).resolve().parent.parent

TRAINING_SHAPES = {
    "paper": {"hidden": (256, 128, 32), "dropout": (0.2, 0.1), "steps": 50},
    "desk": {"hidden": (32, 16, 8), "dropout": (0.1, 0.1), "steps": 30},
}
INPUTS, BATCH, PREDICT_CALLS, SCORED_WINDOWS = 14, 64, 20, 100


def load_lstm(src: str, index: int):
    """The lstm module of the package under src, imported under a name of its own."""
    package_dir = Path(src) / "changepoint_rul"
    name = f"_probed_{index}"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.lstm")


def summary(samples_ms: list) -> dict:
    if len(samples_ms) > 1:
        q1, median, q3 = statistics.quantiles(samples_ms, n=4)
    else:
        q1 = median = q3 = samples_ms[0]
    return {"median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3)}


def interleaved(steps: list, reps: int, warmup: int) -> list:
    """Each checkout's kept samples: every repetition runs each step once, in
    an order reversed every other repetition; the first warmup are dropped."""
    samples = [[] for _ in steps]
    for rep in range(warmup + reps):
        order = range(len(steps)) if rep % 2 == 0 else reversed(range(len(steps)))
        for i in order:
            sample = steps[i]()
            if rep >= warmup:
                samples[i].append(sample)
    return samples


def float32_model(lstm, shape: dict):
    model = lstm.init_regressor(INPUTS, shape["hidden"], shape["dropout"], seed=0)
    return lstm._with_parameters(
        model, {name: value.astype(np.float32) for name, value in lstm.iter_parameters(model)}
    )


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    finally:
        tracemalloc.stop()


def sha256(arrays: dict) -> str:
    digest = hashlib.sha256()
    for name, array in arrays.items():
        digest.update(name.encode() + array.tobytes())
    return digest.hexdigest()


def training_step(lstm, shape: dict):
    model = float32_model(lstm, shape)
    data = np.random.default_rng(1)
    windows = data.normal(size=(BATCH, shape["steps"], INPUTS)).astype(np.float32)
    targets = (130.0 * data.random(BATCH)).astype(np.float32)
    rng = np.random.default_rng(2)
    losses, digests = [], []

    def step():
        t0 = time.perf_counter()
        yhat, cache = lstm._forward_batch(model, windows, training=True, rng=rng)
        t1 = time.perf_counter()
        grads = lstm._backward_batch(model, cache, 2.0 * (yhat - targets) / BATCH)
        t2 = time.perf_counter()
        del cache  # freed before the next forward, as at the end of loss_and_gradients
        losses.append(float(np.mean(np.square(yhat - targets, dtype=float))))
        digests.append(sha256(grads))
        return {"forward": 1e3 * (t1 - t0), "backward": 1e3 * (t2 - t1), "fwd_bwd": 1e3 * (t2 - t0)}

    def peak_mb():  # the first batch again, with its dropout masks
        return traced_peak_mb(
            lambda: lstm.loss_and_gradients(model, windows, targets, rng=np.random.default_rng(2))
        )

    return step, losses, digests, peak_mb


def scored_batch(lstm) -> dict:
    model = float32_model(lstm, TRAINING_SHAPES["paper"])
    model.head_b[0] = 65.0  # lands the estimates inside the clamp, so they show the arithmetic
    windows = np.random.default_rng(4).normal(size=(SCORED_WINDOWS, 50, INPUTS))
    estimates = []
    peak = traced_peak_mb(lambda: estimates.append(lstm.predict_batch(model, windows)))
    return {
        "shape": f"{SCORED_WINDOWS} (50, {INPUTS}) windows, LSTM 256/128/32, float32",
        "predict_batch_peak_mb": peak,
        "sha256": sha256({"estimates": estimates[0]}),
    }


def predict_step(lstm):
    shape = TRAINING_SHAPES["paper"]
    model = lstm.init_regressor(INPUTS, shape["hidden"], shape["dropout"], seed=0)
    model.head_b[0] = 65.0  # lands the estimate inside the clamp, so it shows the arithmetic
    window = np.random.default_rng(3).normal(size=(shape["steps"], INPUTS))
    estimates = []

    def step():
        t0 = time.perf_counter()
        for _ in range(PREDICT_CALLS):
            estimate = lstm.predict(model, window)
        estimates.append(estimate)
        return {"predict": 1e3 * (time.perf_counter() - t0) / PREDICT_CALLS}

    return step, estimates


def ratio_to_first(kept: list, first: list, key: str) -> float:
    return round(statistics.median(s[key] / f[key] for s, f in zip(kept, first)), 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", help="a checkout's src directory; repeatable")
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.warmup < 0:
        parser.error("--reps must be >= 1 and --warmup >= 0")
    sources = [str(Path(src).resolve()) for src in args.src or [ROOT / "src"]]
    modules = [load_lstm(src, i) for i, src in enumerate(sources)]
    results = {src: {} for src in sources}
    for name, shape in TRAINING_SHAPES.items():
        built = [training_step(lstm, shape) for lstm in modules]
        samples = interleaved([step for step, *_ in built], args.reps, args.warmup)
        first_digest = built[0][2][0]
        for src, kept, (_, losses, digests, peak_mb) in zip(sources, samples, built):
            keys = ("fwd_bwd", "forward", "backward")
            results[src][name] = {
                "shape": f"{INPUTS} inputs, LSTM {'/'.join(map(str, shape['hidden']))}, "
                f"dropout {'/'.join(map(str, shape['dropout']))}, L={shape['steps']}, "
                f"batch {BATCH}, float32",
                **{key: summary([s[key] for s in kept]) for key in keys},
                "loss": losses[0],
                "grads_sha256": digests[0],
                "train_step_peak_mb": peak_mb(),
            }
            if len(sources) > 1:
                results[src][name]["ratio_to_first"] = {
                    key: ratio_to_first(kept, samples[0], key) for key in keys
                }
                results[src][name]["same_as_first"] = digests[0] == first_digest
    built = [predict_step(lstm) for lstm in modules]
    samples = interleaved([step for step, _ in built], args.reps, args.warmup)
    for src, kept, (_, estimates) in zip(sources, samples, built):
        results[src]["predict_float64"] = {
            "shape": f"one (50, {INPUTS}) window, LSTM 256/128/32, float64",
            "predict": summary([s["predict"] for s in kept]),
            "estimate": estimates[0],
        }
        if len(sources) > 1:
            results[src]["predict_float64"]["ratio_to_first"] = ratio_to_first(
                kept, samples[0], "predict"
            )
    scored = [scored_batch(lstm) for lstm in modules]
    for src, batch in zip(sources, scored):
        results[src]["predict_batch"] = batch
        if len(sources) > 1:
            batch["same_as_first"] = batch["sha256"] == scored[0]["sha256"]
    result = {
        "threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
        "reps": args.reps,
        "warmup": args.warmup,
        "results": results,
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
