"""Run every benchmark workload and print its metrics by name with their units.

    python3 seqbench/suite.py [--seeds 10] [--first-seed 1] [--workloads a,b] [--no-trace]

For each workload of ``BENCHMARK.json`` this runs ``run.py`` untraced once per
seed and prints, per end-to-end metric, the median, the quartiles and their
distance as a share of the median next to the metric's bound. It then makes
one traced run, prints the per-layer metrics and the tracing overhead (traced
``pipeline_s`` minus the untraced median). Each run checks its own outputs;
the suite exits 1 if any run reports a failed step or a failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print("   ", line)
    if out.returncode != 0 or not lines:
        print(out.stderr, file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values):
    """Median, quartiles, and the quartile distance as a share of the median."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    all_ok = True
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run(name, seed, seconds, False)
            ok = result is not None and result["correct"] and not result["failed"]
            all_ok &= ok
            if result is not None:
                results.append(result)
            print(f"{name} seed={seed} " + (" ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if v["value"] is not None) if result else "no result"), flush=True)
        print(f"\n== {name}: {len(results)} runs")
        print(f"{'metric':16s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}")
        medians = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            values = [v for v in values if v is not None]
            if not values:
                print(f"{metric['name']:16s} {metric['unit']:6s} no successful sample")
                continue
            med, q1, q3, share = spread(values)
            medians[metric["name"]] = med
            flag = "over" if share > metric["bound"] else (
                "" if metric["name"] == "setup_s" or share < metric["bound"] / 3 else "wide")
            print(f"{metric['name']:16s} {metric['unit']:6s} {med:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {share:7.3f} {metric['bound']:6.2f} {flag}")
        if args.no_trace:
            continue
        traced = run(name, args.first_seed, seconds, True)
        if traced is None or not traced["correct"]:
            all_ok = False
            print(f"{name}: traced run failed")
            continue
        print(f"-- {name} per layer (traced, seed {args.first_seed})")
        for metric, value in traced["metrics"].items():
            print(f"{metric:34s} {value['value']:14.6g} {value['unit']}")
        if "pipeline_s" in medians:
            overhead = traced["metrics"]["trace.pipeline_s"]["value"] - medians["pipeline_s"]
            print(f"{'trace.overhead_s':34s} {overhead:14.6g} s")
        print(flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
