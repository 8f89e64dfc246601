"""Benchmark of the change-point + RUL pipeline, one workload per run.

    python3 bench/run.py --workload fleet_detect --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy. The run makes
its inputs from the seed and repeats the workload's measured pass until
``--seconds`` have passed, and checks the outputs of every pass. It sets the workload up SETUP_REPS times, spread
over the run. Every pass and set-up is bracketed by the fixed job in
``reference.py``, and the end-to-end times are scaled by it to a machine of
fixed speed, so that the host's drift does not show; they are then reduced
to their interquartile mean.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes, prints the per-layer metrics from the
spans of the traced ones plus the tracing overhead, and writes the span file
and a self-time table under ``bench/out/<workload>/``. The last line of
standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Workloads, metrics and the reasons for them are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "changepoint_rul"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPS = 11
# One BLAS thread: on a few shared cores a spinning BLAS pool measures the
# scheduler, and under outside load it slowed passes by up to 4x.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def interquartile_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    if not values:
        return 0.0
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def set_blas_threads() -> int:
    """Fix the BLAS thread count; must run before numpy loads."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_package():
    """Import changepoint_rul from this checkout's src/, or exit non-zero."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {PACKAGE}; run from a source checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import changepoint_rul

    if Path(changepoint_rul.__file__).resolve().parent != PACKAGE:
        sys.exit(f"bench: imported changepoint_rul from {changepoint_rul.__file__}, not {PACKAGE}")
    return changepoint_rul


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("fleet_detect", "train_paper", "stream_replay")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the smoke test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = set_blas_threads()
    import_package()
    import reference
    import workloads
    from tracing import Tracer

    warnings.simplefilter("ignore")  # the package warns on clamped change points; checks count them
    workdir = BENCH / "out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(blas_threads)
    wl = workloads.WORKLOADS[args.workload](args.size, args.seed, str(workdir))
    run_id = f"{args.workload}-seed{args.seed}"
    tracer = Tracer(run_id, workloads.hook_points()) if args.trace else None

    # units[k] is a measured set-up or pass, bracketed by the reference jobs
    # refs[k] and refs[k + 1].
    units = []  # (kind, seconds)
    refs = [reference.seconds()]

    def done(kind, seconds):
        units.append((kind, seconds))
        refs.append(reference.seconds())

    def scaled(kind):
        """Times of one kind of unit on a machine that runs the reference job in NOMINAL_S."""
        return [reference.NOMINAL_S * s * 2 / (refs[k] + refs[k + 1])
                for k, (kd, s) in enumerate(units) if kd == kind]

    setup_times = []

    def set_up():
        with tracer.segment(f"setup-{len(setup_times)}", "setup") if tracer else nullcontext():
            start = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - start)
        done("setup", setup_times[-1])

    passes = []  # (traced, Pass)

    def measure(traced):
        """One pass, its outputs checked outside the traced segment; None if it raised."""
        try:
            with tracer.segment(f"pass-{len(passes)}", "run") if traced else nullcontext():
                result = wl.run_pass()
            result.failed = wl.check(result)
            result.outputs = ()  # keep memory flat over the run
            done("traced" if traced else "pass", result.seconds)
            return result
        except Exception:  # a failing program is a measured outcome: every operation failed
            traceback.print_exc()
            return None

    # The set-ups are spread evenly over the run, one before the first pass
    # and one after the last, so that setup_s samples the same stretch of
    # machine time as the passes do.
    set_up()
    start = perf_counter()
    deadline = start + args.seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        result = measure(traced)
        if result is None:
            crashed = workloads.Pass(0.0, 0, wl.operations, wl.operations)
            break
        passes.append((traced, result))
        if perf_counter() >= deadline and (tracer is None or len(passes) >= 2):
            crashed = None
            break
        while (len(setup_times) < SETUP_REPS - 1
               and perf_counter() - start >= len(setup_times) * args.seconds / (SETUP_REPS - 1)):
            set_up()
    while len(setup_times) < SETUP_REPS:
        set_up()

    plain = [p for traced, p in passes if not traced]
    counted = [p for _, p in passes] + ([crashed] if crashed else [])
    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# {run_id} env {json.dumps(env, sort_keys=True)}")
    print(f"# {len(passes)} passes ({len(plain)} untraced), setups {[round(s, 4) for s in setup_times]} s")
    print(f"# reference job median {median(refs):.4f} s over {len(refs)} runs "
          f"(nominal {reference.NOMINAL_S} s); raw median pass {median([p.seconds for p in plain]):.4f} s, "
          f"raw median set-up {median(setup_times):.4f} s")
    print(f"# error_rate = {failed / max(attempted, 1):.6g} ({failed} failed / {attempted} attempted "
          f"operations; one operation is {wl.operation})")

    if not args.trace:
        named = wl.report(plain) if plain else []
        for name, value, unit, note in named:
            print(f"{args.workload} {name} = {value:.6g} {unit} ({note})")
        pass_s = interquartile_mean(scaled("pass"))
        metrics = {
            "throughput_per_s": (plain[-1].items / pass_s if pass_s else 0.0, "1/s"),
            "setup_s": (interquartile_mean(scaled("setup")), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_rate": ((attempted - failed) / max(attempted, 1), "ratio"),
        }
        summary = {"workload_metrics": {n: {"value": v, "unit": u, "note": s} for n, v, u, s in named}}
    else:
        traced_s = median([p.seconds for t, p in passes if t])
        plain_s = median([p.seconds for p in plain])
        overhead = 100.0 * (traced_s / plain_s - 1.0) if traced_s and plain_s else 0.0
        layers = workloads.layer_metrics(tracer, workloads.gemm_flops_per_window(wl))
        layers["trace.overhead_pct"] = overhead
        per_layer = json.loads(SPEC.read_text())["per_layer"]
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in per_layer}
        table = tracer.write(str(workdir / "spans.jsonl"), str(workdir / "self_time.tsv"))
        print(f"# {len(tracer.spans)} spans -> {workdir / 'spans.jsonl'}")
        print(f"# tracing overhead {overhead:+.2f}% (median traced pass {traced_s:.4f} s "
              f"vs untraced {plain_s:.4f} s)")
        print("# phase  span                              calls      total_s       self_s")
        for r in table:
            print(f"# {r['phase']:6} {r['name']:33} {r['calls']:6d} {r['total_s']:12.6f} {r['self_s']:12.6f}")
        summary = {"self_time": table}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(workdir / f"result-trace{args.trace}.json", "w") as fh:
        passes_s = [[p.seconds, traced] for traced, p in passes]
        record = dict(result, run=run_id, env=env, setup_s=setup_times, passes_s=passes_s,
                      units=units, reference_s=refs, **summary)
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
