#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload mc_ensemble --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, from the repository
root, and prints for each end-to-end metric the median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound in BENCHMARK.json.  A run that is not correct, or whose
metric names differ from BENCHMARK.json, stops the script with exit code 1.
The values are also written to .perfbench_out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    gates = {}
    for seed in args.seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        elapsed = time.perf_counter() - started
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"] or set(result["metrics"]) != set(bounds):
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            print(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
        gates[seed] = [g["detail"] for g in report["gates"]]
        print(f"seed {seed}: {elapsed:5.1f} s, failed {result['failed']}/{result['attempted']}, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{'metric':12s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "ok" if spread < bounds[name] / 3 else ("wide" if spread < bounds[name] else "FAIL")
        print(f"{name:12s} {median:12.5g} {spread:8.2%} {bounds[name]:6.2f}  {flag}")
    out = ROOT / ".perfbench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": seconds, "values": values,
                               "gates": gates}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
