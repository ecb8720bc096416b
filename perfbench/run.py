#!/usr/bin/env python3
"""Benchmark of the poledspdc library: one workload per invocation.

    python3 perfbench/run.py --workload mc_ensemble --seed 1 --seconds 28 --trace 0

Run from the repository root.  The library is imported from ./src, never
from an installed copy; without ./src the run fails with exit code 2.

--trace 0 times the workload with nothing installed and prints the
end-to-end metrics.  --trace 1 alternates untraced passes with passes in
which the library's public functions are wrapped (perfbench/spans.py), and
prints the per-layer metrics.  The last line of standard output
is the result object; the lines before it are a human-readable report and
a JSON report with provenance, sample counts and gate details.  Traced runs
also write their spans to .perfbench_out/.

Exit codes: 0 when every correctness gate passes, 1 when a gate fails (the
result is still printed, with "correct": false), 2 when the library cannot
be found or the arguments are wrong.
"""

from __future__ import annotations

import os

# Two cores: the ensemble uses two worker threads, so BLAS gets one.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
WORKLOAD_NAMES = ("mc_ensemble", "equivalence_map", "dip_traces", "figures_quick")


def import_library():
    """Import poledspdc from ./src and refuse any other copy."""
    if not (SRC / "poledspdc" / "__init__.py").is_file():
        raise ImportError(f"no library sources at {SRC}/poledspdc")
    sys.path.insert(0, str(SRC))
    import poledspdc
    if Path(poledspdc.__file__).resolve().parent != (SRC / "poledspdc").resolve():
        raise ImportError(f"poledspdc imported from {poledspdc.__file__}, not from {SRC}")
    return poledspdc


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND samples that percentile would not lie above the
    median, so the maximum is reported instead.  Returns (value, percentile).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND                   # k-th smallest has n - k samples beyond it
    return ordered[k - 1], 100.0 * k / n


def kind_median(samples_by_kind):
    """Median latency of each op kind, averaged over the kinds.

    A pass holds ops of several kinds whose latencies differ by up to 3x
    (a HOM dip and a sum-frequency trace, fig2 and fig1).  The median of
    the pooled latencies falls at a low quantile of the slowest kind, or
    between two kinds, and jumps with the number of passes; the median of
    each kind is taken from the middle of its own cluster.
    """
    return statistics.fmean(statistics.median(v) for v in samples_by_kind.values())


class Measurement:
    def __init__(self):
        self.pass_walls = []
        self.samples = []
        self.samples_by_kind = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    @property
    def busy(self):
        return sum(self.pass_walls)


def run_pass(workload, m, tracer=None):
    """Run one pass of timed steps into Measurement m."""
    wall = 0.0
    for step in workload.next_pass():
        m.attempted += step.n_ops
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.step") if tracer else nullcontext():
                result = step.run()
        except workload.failures as exc:
            wall += time.perf_counter() - t0
            m.failed += step.n_ops
            m.errors.append(f"{step.label}: {exc}")
            print(f"failed op: {step.label}: {exc}", file=sys.stderr)
            continue
        dt = time.perf_counter() - t0
        wall += dt
        m.samples.append(dt)
        m.samples_by_kind[step.label].append(dt)
        if step.check is not None:
            step.check(result)
    workload.end_pass()
    m.pass_walls.append(wall)


def measure(workload, seconds, tracer=None):
    """Run whole rounds for about `seconds`, and at least min_passes passes.

    A round is one untraced pass, or with a tracer an untraced and a traced
    pass, so drift of the machine affects both alike.  Once min_passes are
    done, a round starts only if it is expected to end nearer to `seconds`
    than stopping now would, so a run's length stays within half a round
    of `seconds` however long a pass takes.
    """
    plain, traced = Measurement(), Measurement()
    rounds = []
    start = time.perf_counter()
    while True:
        done = len(plain.pass_walls) + len(traced.pass_walls)
        elapsed = time.perf_counter() - start
        if done >= workload.min_passes and elapsed + statistics.median(rounds) / 2 > seconds:
            break
        t0 = time.perf_counter()
        run_pass(workload, plain)
        if tracer is not None:
            with tracer.installed():
                run_pass(workload, traced, tracer)
        rounds.append(time.perf_counter() - t0)
    return plain, traced


def provenance(seed, workload):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "poledspdc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "n_workers": 2,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload.name,
        "sizes": workload.sizes,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description="poledspdc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import numpy as np
    import spans
    import workloads
    from poledspdc import cli, ensemble, interference, output, phasematch, spectra, structure

    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed)
    workload = workloads.WORKLOADS[args.workload](rng, OUT)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        tracer = None
        if args.trace:
            tracer = spans.Tracer({"phasematch": phasematch, "spectra": spectra,
                                   "interference": interference, "ensemble": ensemble,
                                   "structure": structure, "output": output, "cli": cli})
            with tracer.installed():
                workload.setup()
            tracer.phase = "run"
        untraced, traced = measure(workload, args.seconds, tracer)
        runs = (untraced, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gates = workload.gates()
    finally:
        workload.close()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    p_tail, percentile = tail(untraced.samples)
    report = {
        "provenance": provenance(args.seed, workload),
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "passes": len(untraced.pass_walls),
        "op_samples": len(untraced.samples),
        "op_p50_ms_by_kind": {k: 1e3 * statistics.median(v)
                              for k, v in untraced.samples_by_kind.items()},
        "op_tail_percentile": percentile,
        "setup_samples_s": setup_times,
        "failed_share": failed / attempted,
        "failed_ops": [e for r in runs for e in r.errors],
        "gates": [vars(g) for g in gates],
    }

    if args.trace:
        width_worst = max((workloads.width_mismatch(a, sigma)
                           for a, sigma in tracer.samples["spectra.sigma_for_zeta"]), default=0.0)
        oracle = max((workloads.oracle_residual(a["stack"], a["mismatch"])
                      for a in tracer.samples["phasematch.f_exact"]), default=0.0)
        values, blocking = spans.layer_metrics(
            tracer, untraced_wall=untraced.busy, traced_wall=traced.busy,
            width_mismatch_max=width_worst, oracle_residual=oracle,
            parallel_efficiency=workload.parallel_efficiency)
        units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
        metrics = {name: metric(values[name], units[name]) for name in units}
        report["untraced_wall_s"] = untraced.busy
        report["traced_wall_s"] = traced.busy
        report["blocking_path_s"] = blocking
        report["layer_table"] = {name: {"should_move": move, "on": where}
                                 for name, _, _, move, where in spans.LAYER_METRICS}
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        print(f"{'layer metric':48s} {'value':>14s}  unit    should move")
        for name, unit, _, move, where in spans.LAYER_METRICS:
            print(f"{name:48s} {values[name]:14.6g}  {unit:6s}  {move} ({where})")
        print(f"blocking path over {traced.busy:.3f} s traced "
              f"({untraced.busy:.3f} s untraced):")
        for name, seconds in blocking.items():
            print(f"  {name:40s} {seconds:10.4f} s  {seconds / traced.busy:7.2%}")
    else:
        ok = attempted - failed
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(statistics.median(untraced.pass_walls), "s"),
            "ops_per_s": metric(ok / untraced.busy, "1/s"),
            "op_p50_ms": metric(1e3 * kind_median(untraced.samples_by_kind), "ms"),
            "op_tail_ms": metric(1e3 * p_tail, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "ok_share": metric(ok / attempted, "share"),
        }
        for name, m in metrics.items():
            print(f"{name:12s} {m['value']:14.6g} {m['unit']}")
        print(f"op_tail_ms is p{percentile:.1f} of {len(untraced.samples)} samples")

    correct = all(g.passed for g in gates)
    for g in gates:
        print(f"gate {'PASS' if g.passed else 'FAIL'} {g.name}: {g.detail}")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
