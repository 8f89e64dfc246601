"""Time change-point detection over one fleet, and check that checkouts agree.

    python3 scripts/detect_probe.py [--src DIR ...] [--reps N] [--warmup W] [--out FILE]

The fleet is FD004-shaped: 249 engines whose lifespans run evenly over
128..543 cycles, each with the 16 selected channels of
``tests/synthetic.py``'s ``make_engine_series`` and a change point injected
60..110 cycles before the end. The readings are not rounded as a log's are,
so sums taken in another order show in the last bits. The config is
``default_config("FD004")`` (p=2, r=21, a 60-cycle normal window), so
engines under 200 cycles take the fallback and the rest are fitted.

Each repetition runs ``run_detect(write=False)`` once per checkout and times
it whole (``run_detect``) and in four sub-steps, each the summed time of the
calls of one function that ``monitoring`` looks up: ``fit`` (``fit_cva``),
``limits`` (``kde_control_limit``) and ``scan`` (``detect_change_point``), or
that ``cva`` looks up: ``whiten`` (``_whitener``, the fit's two whitenings, so
that the whitening and the rest of ``fit`` show apart).
It also times ``read``: ``pipeline._load_split(config, "train")`` over the same
fleet, written once to a temporary directory as a C-MAPSS log (the selected
channels at their raw positions, the dropped channels and the settings 0;
settings to 6 decimals and sensors to 4, as the logs have them), and reports
the read's tracemalloc peak (``read_peak_mb``, one extra untimed call per
checkout). The first ``--warmup`` repetitions are dropped; the median and
quartiles of the rest are reported in ms.

``--src`` names a checkout's ``src`` directory (default: this checkout's). Given
more than once, every checkout's package is loaded into this one process and
each repetition runs them in turn, the order reversed every other repetition,
so that a drift in host speed hits all of them alike; ``ratio_to_first`` is
then the median over repetitions of each checkout's time over the first's,
``same_as_first`` tells whether its outcome records and monitor arrays
(``w``, ``vr``, ``singular_values``, ``j``, ``j_res``, ``mean``, ``std``)
equal the first checkout's exactly, and ``read_same_as_first`` whether its
parsed engines (unit ids, cycles, settings, sensors) do, byte for byte.

A change of the whitening basis makes ``same_as_first`` false even when every
statistic agrees to rounding, so three more keys say what such a change may and
may not move: ``records_same_as_first`` tells whether every outcome record
equals the first checkout's in every column but the two control limits
(change points, method, persistence, flag); ``limits_max_rel_diff`` is the
largest relative difference of a fitted engine's ``cl_t2`` or ``cl_q`` from
the first checkout's; and ``statistics_max_rel_diff`` that of any value of a
fitted engine's ``statistic_trace`` (T2 and Q over its whole life). Both are
null when the two checkouts fit different engines. BLAS
is held to one thread before numpy loads. The JSON result goes to stdout, and
to ``--out`` if given.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (imported once the thread count is set)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(1, str(ROOT / "src"))  # synthetic.py imports the package by name

from synthetic import make_engine_series  # noqa: E402

N_ENGINES, SHORTEST, LONGEST, SEED = 249, 128, 543, 0
SUB_STEPS = {  # step: (module, the function it looks up)
    "fit": ("monitoring", "fit_cva"),
    "whiten": ("cva", "_whitener"),
    "limits": ("monitoring", "kde_control_limit"),
    "scan": ("monitoring", "detect_change_point"),
}
ARRAYS = ("w", "vr", "singular_values", "j", "j_res")


def load_package(src: str, index: int):
    """The package under src, imported under a name of its own."""
    package_dir = Path(src) / "changepoint_rul"
    name = f"_probed_{index}"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def fleet_rows() -> list:
    """(unit, k_max, (k_max, 16) selected channels) of every engine."""
    rng = np.random.default_rng(SEED)
    rows = []
    for unit, k_max in enumerate(np.linspace(SHORTEST, LONGEST, N_ENGINES).round().astype(int), 1):
        k_max = int(k_max)
        k_cp = k_max - int(rng.integers(60, 111))
        series = make_engine_series(unit, k_max, k_cp, seed=SEED + unit, n_channels=16)
        rows.append((unit, k_max, series.sensors))
    return rows


def write_log(rows, data_dir: str, kept_indices) -> None:
    """The fleet as ``train_FD004.txt``: unit, cycle, 3 settings, 21 sensors."""
    line = "%d %d" + " %.6f" * 3 + " %.4f" * 21 + " \n"
    columns = np.asarray(kept_indices) + 4  # after unit, cycle and the settings
    with open(os.path.join(data_dir, "train_FD004.txt"), "w") as fh:
        for unit, k_max, sensors in rows:
            table = np.zeros((k_max, 26))
            table[:, 0], table[:, 1] = unit, np.arange(1, k_max + 1)
            table[:, columns] = sensors
            fh.write((line * k_max) % tuple(table.ravel()))


def summary(samples_ms: list) -> dict:
    if len(samples_ms) > 1:
        q1, median, q3 = statistics.quantiles(samples_ms, n=4)
    else:
        q1 = median = q3 = samples_ms[0]
    return {"median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3)}


def detect_step(package, rows):
    """A step that runs one package's detection over the fleet and returns its
    times in ms, plus the list the step leaves its last outcomes in."""
    pipeline = package.pipeline
    engines = [
        package.cmapss.EngineSeries("FD004", unit, np.arange(1, k_max + 1), np.zeros((k_max, 3)), sensors)
        for unit, k_max, sensors in rows
    ]
    config = package.config.default_config("FD004")
    spent = dict.fromkeys(SUB_STEPS, 0.0)
    for step, (module_name, attr) in SUB_STEPS.items():  # time every call the module makes
        module = getattr(package, module_name)
        original = getattr(module, attr)

        def timed(*args, _original=original, _step=step, **kwargs):
            t0 = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                spent[_step] += time.perf_counter() - t0

        setattr(module, attr, timed)
    last = []

    def step():
        for key in spent:
            spent[key] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the clamped change points of the fleet
            t0 = time.perf_counter()
            outcomes, _ = pipeline.run_detect(config, engines=engines, write=False)
            total = time.perf_counter() - t0
        last[:] = outcomes
        return {"run_detect": 1e3 * total, **{key: 1e3 * value for key, value in spent.items()}}

    return step, last


def read_step(package, data_dir: str):
    """A step that loads the written log through one package's ``_load_split``
    and returns its time in ms, plus the list it leaves its last engines in."""
    config = package.config.default_config("FD004", data_dir=data_dir)
    last = []

    def step():
        last[:] = []  # the previous read's arrays are freed before this one
        t0 = time.perf_counter()
        engines, _ = package.pipeline._load_split(config, "train")
        total = time.perf_counter() - t0
        last[:] = engines
        return {"read": 1e3 * total}

    return step, last


def read_peak_mb(step) -> float:
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def engine_bytes(engines) -> list:
    return [
        (e.unit_id, e.cycles.tobytes(), e.op_settings.tobytes(), e.sensors.tobytes())
        for e in engines
    ]


def fingerprint(outcomes) -> list:
    """Each outcome's record plus its monitor arrays, as plain values; the
    standardizer is the monitor's, or its CVA model's in older sources."""
    prints = []
    for o in outcomes:
        arrays = None
        if o.monitor is not None:
            cva = o.monitor.cva
            standardizer = getattr(o.monitor, "standardizer", None) or cva.standardizer
            arrays = {name: getattr(cva, name) for name in ARRAYS}
            arrays.update(mean=standardizer.mean, std=standardizer.std)
        prints.append((o.record("FD004"), arrays))
    return prints


def records_same(a: list, b: list) -> bool:
    """Every outcome record equal, the two control limits aside."""
    drop = ("cl_t2", "cl_q")
    return [{k: v for k, v in r.items() if k not in drop} for r, _ in a] == [
        {k: v for k, v in r.items() if k not in drop} for r, _ in b
    ]


def rel_diff(a, b) -> float:
    """Largest |a - b| / |b| over two equal-shape arrays; equal entries count 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(a == b, 0.0, np.abs(a - b) / np.abs(b)), initial=0.0))


def traces(package, outcomes, rows) -> list:
    """(t2, q) of each fitted engine over its whole life, None for the rest."""
    trace = package.monitoring.statistic_trace
    stats = [
        None if o.monitor is None else trace(o.monitor, sensors)
        for o, (_, _, sensors) in zip(outcomes, rows)
    ]
    return [None if st is None else (st.t2, st.q) for st in stats]


def limits(outcomes) -> list:
    """(cl_t2, cl_q) of each fitted engine, None for the rest."""
    return [None if o.monitor is None else (o.cl_t2, o.cl_q) for o in outcomes]


def max_rel_diff(pairs_a: list, pairs_b: list):
    """Largest rel_diff over matched entries; None when one side lacks an entry."""
    if [x is None for x in pairs_a] != [x is None for x in pairs_b]:
        return None
    return max(
        (rel_diff(x, y) for a, b in zip(pairs_a, pairs_b) if a is not None for x, y in zip(a, b)),
        default=0.0,
    )


def same(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for (record_a, arrays_a), (record_b, arrays_b) in zip(a, b):
        if record_a != record_b or (arrays_a is None) != (arrays_b is None):
            return False
        if arrays_a is not None and not all(  # bit for bit: -0.0 is not 0.0 here
            arrays_a[name].shape == arrays_b[name].shape
            and arrays_a[name].tobytes() == arrays_b[name].tobytes()
            for name in arrays_a
        ):
            return False
    return True


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
    rows = fleet_rows()
    packages = [load_package(src, i) for i, src in enumerate(sources)]
    with tempfile.TemporaryDirectory() as data_dir:
        write_log(rows, data_dir, packages[0].cmapss.select_sensors("FD004").column_indices)
        built = [detect_step(package, rows) for package in packages]
        reads = [read_step(package, data_dir) for package in packages]
        samples = [[] for _ in built]
        for rep in range(args.warmup + args.reps):
            order = range(len(built)) if rep % 2 == 0 else reversed(range(len(built)))
            for i in order:
                sample = {**built[i][0](), **reads[i][0]()}
                if rep >= args.warmup:
                    samples[i].append(sample)
        peaks = [read_peak_mb(step) for step, _ in reads]
    first = fingerprint(built[0][1])
    first_limits = limits(built[0][1])
    first_traces = traces(packages[0], built[0][1], rows)
    first_read = engine_bytes(reads[0][1])
    results = {}
    for src, package, kept, (_, outcomes), (_, engines), peak in zip(
        sources, packages, samples, built, reads, peaks
    ):
        keys = ("run_detect", *SUB_STEPS, "read")
        results[src] = {
            **{key: summary([s[key] for s in kept]) for key in keys},
            "read_peak_mb": round(peak, 2),
            "engines": len(outcomes),
            "fitted": sum(o.monitor is not None for o in outcomes),
            "detected": sum(o.k_cp is not None for o in outcomes),
        }
        if len(sources) > 1:
            results[src]["ratio_to_first"] = {
                key: round(statistics.median(s[key] / f[key] for s, f in zip(kept, samples[0])), 4)
                for key in keys
            }
            prints = fingerprint(outcomes)
            results[src]["same_as_first"] = same(prints, first)
            results[src]["records_same_as_first"] = records_same(prints, first)
            results[src]["limits_max_rel_diff"] = max_rel_diff(limits(outcomes), first_limits)
            results[src]["statistics_max_rel_diff"] = max_rel_diff(
                traces(package, outcomes, rows), first_traces
            )
            results[src]["read_same_as_first"] = engine_bytes(engines) == first_read
    result = {
        "fleet": f"{N_ENGINES} FD004-shaped engines, lifespans {SHORTEST}..{LONGEST}, "
        f"seed {SEED}; default_config('FD004'), run_detect(write=False); "
        "read: _load_split(config, 'train') of the fleet written as a log",
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
