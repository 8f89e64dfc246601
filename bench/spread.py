"""Run the benchmark over several seeds; report medians and quartile spreads.

    python3 bench/spread.py --seeds 1-10 --workload fleet_detect --workload stream_replay

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json unless ``--seconds`` is given. For every
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median, next to the metric's bound, using
``statistics.quantiles(values, n=4)``. The summary, with the environment and
the workload-specific numbers each run printed (``workload_metrics``), is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(BENCH / "out" / "spread.json"))
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads((BENCH / "out" / workload / "result-trace0.json").read_text())
            runs.append({"seed": seed, **result, "workload_metrics": detail["workload_metrics"],
                         "env": detail["env"], "passes_s": detail["passes_s"], "setups_s": detail["setup_s"],
                         "units": detail["units"], "reference_s": detail["reference_s"]})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)

        table = {}
        for name in runs[0]["metrics"]:
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "bound": bounds.get(name)}
            print(f"  {name:18} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {rel:7.4f}  bound {bounds.get(name)}")
        named = {}
        for name in runs[0]["workload_metrics"]:
            med, q1, q3, rel = spread([r["workload_metrics"][name]["value"] for r in runs])
            named[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                           "unit": runs[0]["workload_metrics"][name]["unit"]}
            print(f"  ({name:24} median {med:12.6g}  spread {rel:7.4f})")
        summary["env"] = runs[0]["env"]
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": table,
            "workload_metrics": named,
            "runs": runs,
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"summary -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
