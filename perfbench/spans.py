"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module-level public functions of the library with
wrappers for the duration of the traced run and restores them afterwards.
Every call records one span: name, thread, phase, start and end (wall and
process CPU time) and the span that caused it.  A call on a worker thread
with no open span of its own is parented to the innermost open span of the
thread that installed the tracer, which makes realizations children of the
``run_ensemble`` call that scheduled them.

Self time is a span's duration minus the part of it that its child spans
cover (children may overlap when they run on worker threads).  The blocking
path splits wall time between the innermost spans open at each instant, so
its shares add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# Module-level public functions wrapped in the traced run, by module.
WRAPPED = {
    "phasematch": ("f_exact", "f_boundary_sum", "f_avg_sq", "f_chirped", "f_chirped_envelope"),
    "spectra": ("symmetric_grid", "coupling_g", "mismatch_on_grid", "mean_abs_f_sq",
                "spectral_density", "signal_spectrum", "fwhm", "pair_rate", "calibrate",
                "sigma_for_zeta", "rate_ratio"),
    "interference": ("hom_trace", "two_photon_amplitude", "compensate_phase",
                     "sum_frequency_trace"),
    "ensemble": ("run_ensemble",),
    "structure": ("build_periodic", "build_random", "build_chirped"),
    "output": ("write_csv", "write_json"),
    "cli": ("main",),
}

# The dispersion-and-grid layer: evaluated on every spectral density and
# width evaluation, although the functions live in `spectra`.
DISPERSION_SPANS = ("spectra.symmetric_grid", "spectra.coupling_g", "spectra.mismatch_on_grid")

BENCH_STEP = "bench.step"

# Per-layer metric table: (name, unit, better, end-to-end metric it should
# move, workload where it should move).  BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("phasematch.f_exact.calls", "count", "lower", "ops_per_s", "mc_ensemble"),
    ("phasematch.f_exact.self_s", "s", "lower", "ops_per_s",
     "mc_ensemble; wall_s on figures_quick; setup_s only on dip_traces; none on equivalence_map"),
    ("phasematch.f_exact.exp_evals", "count", "lower", "ops_per_s", "mc_ensemble"),
    ("phasematch.f_exact.bytes_computed", "bytes", "lower", "ops_per_s", "mc_ensemble"),
    ("phasematch.f_exact.oracle_residual", "ratio", "lower", "none (correctness)", "mc_ensemble"),
    ("phasematch.f_avg_sq.calls", "count", "lower", "ops_per_s", "equivalence_map"),
    ("phasematch.f_avg_sq.self_s", "s", "lower", "ops_per_s", "equivalence_map"),
    ("phasematch.f_chirped_envelope.calls", "count", "lower", "ops_per_s", "equivalence_map"),
    ("phasematch.f_chirped_envelope.self_s", "s", "lower", "ops_per_s", "equivalence_map"),
    ("spectra.sigma_for_zeta.calls", "count", "lower", "ops_per_s", "equivalence_map"),
    ("spectra.sigma_for_zeta.self_s", "s", "lower", "ops_per_s, op_tail_ms", "equivalence_map"),
    ("spectra.sigma_for_zeta.width_evals_per_solve", "count", "lower", "ops_per_s, op_tail_ms",
     "equivalence_map"),
    ("spectra.sigma_for_zeta.width_mismatch_max", "ratio", "lower", "none (correctness)",
     "equivalence_map"),
    ("spectra.fwhm.self_s", "s", "lower", "ops_per_s, op_tail_ms", "equivalence_map"),
    ("spectra.spectral_density.self_s", "s", "lower", "ops_per_s, op_tail_ms", "equivalence_map"),
    ("dispersion.calls", "count", "lower", "ops_per_s", "equivalence_map"),
    ("dispersion.self_s", "s", "lower", "ops_per_s", "equivalence_map"),
    ("interference.hom_trace.calls", "count", "lower", "ops_per_s, peak_rss_mb", "dip_traces"),
    ("interference.hom_trace.self_s", "s", "lower", "ops_per_s, peak_rss_mb",
     "dip_traces; small share of figures_quick"),
    ("interference.hom_trace.matrix_bytes", "bytes", "lower", "ops_per_s, peak_rss_mb",
     "dip_traces"),
    ("interference.sum_frequency_trace.calls", "count", "lower", "ops_per_s, peak_rss_mb",
     "dip_traces"),
    ("interference.sum_frequency_trace.self_s", "s", "lower", "ops_per_s, peak_rss_mb",
     "dip_traces; small share of figures_quick"),
    ("interference.sum_frequency_trace.matrix_bytes", "bytes", "lower", "ops_per_s, peak_rss_mb",
     "dip_traces"),
    ("interference.compensate_phase.self_s", "s", "lower", "ops_per_s", "dip_traces"),
    ("ensemble.run_ensemble.self_s", "s", "lower", "ops_per_s", "mc_ensemble"),
    ("ensemble.worker_busy_share", "share", "higher", "ops_per_s", "mc_ensemble"),
    ("ensemble.cpu_per_wall", "ratio", "higher", "ops_per_s", "mc_ensemble"),
    ("ensemble.parallel_efficiency", "ratio", "higher", "ops_per_s", "mc_ensemble"),
    ("structure.build_random.calls", "count", "lower", "nothing expected", "mc_ensemble"),
    ("structure.build_random.self_s", "s", "lower", "nothing expected", "mc_ensemble"),
    ("structure.rejected_draw_ratio", "ratio", "lower", "nothing expected", "mc_ensemble"),
    ("spectra.calibrate.calls", "count", "lower", "wall_s", "figures_quick"),
    ("spectra.calibrate.self_s", "s", "lower", "wall_s", "figures_quick"),
    ("output.write_csv.self_s", "s", "lower", "wall_s", "figures_quick"),
    ("output.write_json.self_s", "s", "lower", "wall_s", "figures_quick"),
    ("output.bytes_written", "bytes", "lower", "wall_s", "figures_quick"),
    ("cli.self_s", "s", "lower", "wall_s", "figures_quick"),
    ("bench.self_s", "s", "lower", "none (benchmark glue)", "all"),
    ("trace.library_share", "share", "higher", "none (trace coverage)", "all"),
    ("trace.overhead_share", "share", "lower", "none (trace cost)", "all"),
)


class Span:
    __slots__ = ("id", "parent", "name", "thread", "phase", "t0", "t1", "cpu0", "cpu1", "info")

    def __init__(self, sid, parent, name, thread, phase):
        self.id, self.parent, self.name, self.thread, self.phase = sid, parent, name, thread, phase
        self.info = None
        self.t1 = self.cpu1 = 0.0
        self.cpu0 = time.process_time()
        self.t0 = time.perf_counter()

    def close(self):
        self.t1 = time.perf_counter()
        self.cpu1 = time.process_time()

    @property
    def duration(self):
        return self.t1 - self.t0

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "thread": self.thread, "phase": self.phase, "t0": self.t0, "t1": self.t1,
                "cpu_s": self.cpu1 - self.cpu0}


class Tracer:
    """Wraps the library's public functions and keeps every span in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.counters = Counter()
        self.samples = defaultdict(list)   # name -> bound arguments kept for post-hoc checks
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home_stack = None
        self._originals = []

    # -- installation ---------------------------------------------------
    def install(self):
        self._home_stack = self._stack()
        for module_name, names in WRAPPED.items():
            module = self.modules[module_name]
            for name in names:
                fn = getattr(module, name)
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{module_name}.{name}", fn))

    def uninstall(self):
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._home_stack[-1].id
            except IndexError:
                parent = None
        span = Span(next(self._ids), parent, name, threading.get_ident(), self.phase)
        self.spans.append(span)
        stack.append(span)
        return span, stack

    @contextlib.contextmanager
    def span(self, name):
        span, stack = self._open(name)
        try:
            yield span
        finally:
            span.close()
            stack.pop()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.close()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    observe(self, span, bound.arguments, result)
            return result

        return wrapper

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s.as_dict() for s in self.spans]) + "\n")


# -- counters recorded at the layer boundaries --------------------------

def _observe_f_exact(tracer, span, args, result):
    n = args["stack"].boundaries.size * np.size(args["mismatch"].delta_k)
    tracer.counters["phasematch.f_exact.exp_evals"] += n
    # complex128 phase matrix of the boundary sum, computed from array sizes
    tracer.counters["phasematch.f_exact.bytes_computed"] += 16 * n
    if not tracer.samples["phasematch.f_exact"]:
        tracer.samples["phasematch.f_exact"].append(args)


def _observe_hom(tracer, span, args, result):
    # float64 cosine matrix, delays x grid, computed from array sizes
    tracer.counters["interference.hom_trace.matrix_bytes"] += 8 * result.delays.size * args["grid"].omega.size


def _observe_sum_frequency(tracer, span, args, result):
    n = args["amplitude"].values.size
    if args["delays"] is None:
        cells = n * args["pad_factor"]            # padded FFT buffer
    else:
        cells = n * result.delays.size            # complex kernel, delays x grid
    tracer.counters["interference.sum_frequency_trace.matrix_bytes"] += 16 * cells


def _observe_build_random(tracer, span, args, result):
    tracer.counters["structure.rejected_draws"] += result.rejected_draws
    tracer.counters["structure.draws"] += result.n_domains + result.rejected_draws


def _observe_written(tracer, span, args, result):
    tracer.counters["output.bytes_written"] += Path(result).stat().st_size


def _observe_run_ensemble(tracer, span, args, result):
    span.info = args["n_workers"]


def _observe_sigma_for_zeta(tracer, span, args, result):
    tracer.samples["spectra.sigma_for_zeta"].append((args, result))


OBSERVERS = {
    "phasematch.f_exact": _observe_f_exact,
    "interference.hom_trace": _observe_hom,
    "interference.sum_frequency_trace": _observe_sum_frequency,
    "structure.build_random": _observe_build_random,
    "output.write_csv": _observe_written,
    "output.write_json": _observe_written,
    "ensemble.run_ensemble": _observe_run_ensemble,
    "spectra.sigma_for_zeta": _observe_sigma_for_zeta,
}


# -- analysis -------------------------------------------------------------

def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.id: s.duration - _covered(s.t0, s.t1, [(c.t0, c.t1) for c in children[s.id]])
            for s in spans}, children


def blocking_path(spans):
    """Wall time of the spans split between the innermost open spans."""
    by_id = {s.id: s for s in spans}
    # At equal times ends come first; parents open before and close after children.
    events = sorted([(s.t0, 1, s.id) for s in spans] + [(s.t1, 0, -s.id) for s in spans])
    open_children = Counter()
    leaves = set()
    share = Counter()
    last = None
    for t, starting, key in events:
        if leaves and t > last:
            dt = (t - last) / len(leaves)
            for leaf in leaves:
                share[by_id[leaf].name] += dt
        last = t
        span = by_id[abs(key)]
        parent = span.parent if span.parent in by_id else None
        if starting:
            leaves.add(span.id)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(span.id)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return share


def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float,
                  width_mismatch_max: float, oracle_residual: float,
                  parallel_efficiency: float):
    """Per-layer metrics of the traced run, keyed as in LAYER_METRICS."""
    spans = [s for s in tracer.spans if s.t1 > 0.0]
    selfs, children = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def self_s(*names):
        return sum(selfs[s.id] for n in names for s in by_name[n])

    def under(span, ancestor):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    solves = calls("spectra.sigma_for_zeta")
    width_evals = sum(under(s, "spectra.sigma_for_zeta") for s in by_name["phasematch.f_avg_sq"])
    runs = by_name["ensemble.run_ensemble"]
    run_wall = sum(s.duration for s in runs)
    capacity = sum(s.duration * s.info for s in runs)
    busy = sum(c.duration for s in runs for c in children[s.id])
    draws = tracer.counters["structure.draws"]

    run_spans = [s for s in spans if s.phase == "run"]
    blocking = blocking_path(run_spans)
    blocked_total = sum(blocking.values())
    c = tracer.counters
    metrics = {
        "phasematch.f_exact.calls": calls("phasematch.f_exact"),
        "phasematch.f_exact.self_s": self_s("phasematch.f_exact"),
        "phasematch.f_exact.exp_evals": c["phasematch.f_exact.exp_evals"],
        "phasematch.f_exact.bytes_computed": c["phasematch.f_exact.bytes_computed"],
        "phasematch.f_exact.oracle_residual": oracle_residual,
        "phasematch.f_avg_sq.calls": calls("phasematch.f_avg_sq"),
        "phasematch.f_avg_sq.self_s": self_s("phasematch.f_avg_sq"),
        "phasematch.f_chirped_envelope.calls": calls("phasematch.f_chirped_envelope"),
        "phasematch.f_chirped_envelope.self_s": self_s("phasematch.f_chirped_envelope"),
        "spectra.sigma_for_zeta.calls": solves,
        "spectra.sigma_for_zeta.self_s": self_s("spectra.sigma_for_zeta"),
        "spectra.sigma_for_zeta.width_evals_per_solve": width_evals / solves if solves else 0.0,
        "spectra.sigma_for_zeta.width_mismatch_max": width_mismatch_max,
        "spectra.fwhm.self_s": self_s("spectra.fwhm"),
        "spectra.spectral_density.self_s": self_s("spectra.spectral_density"),
        "dispersion.calls": sum(calls(n) for n in DISPERSION_SPANS),
        "dispersion.self_s": self_s(*DISPERSION_SPANS),
        "interference.hom_trace.calls": calls("interference.hom_trace"),
        "interference.hom_trace.self_s": self_s("interference.hom_trace"),
        "interference.hom_trace.matrix_bytes": c["interference.hom_trace.matrix_bytes"],
        "interference.sum_frequency_trace.calls": calls("interference.sum_frequency_trace"),
        "interference.sum_frequency_trace.self_s": self_s("interference.sum_frequency_trace"),
        "interference.sum_frequency_trace.matrix_bytes":
            c["interference.sum_frequency_trace.matrix_bytes"],
        "interference.compensate_phase.self_s": self_s("interference.compensate_phase"),
        "ensemble.run_ensemble.self_s": self_s("ensemble.run_ensemble"),
        "ensemble.worker_busy_share": busy / capacity if capacity else 0.0,
        "ensemble.cpu_per_wall":
            sum(s.cpu1 - s.cpu0 for s in runs) / run_wall if run_wall else 0.0,
        "ensemble.parallel_efficiency": parallel_efficiency,
        "structure.build_random.calls": calls("structure.build_random"),
        "structure.build_random.self_s": self_s("structure.build_random"),
        "structure.rejected_draw_ratio": c["structure.rejected_draws"] / draws if draws else 0.0,
        "spectra.calibrate.calls": calls("spectra.calibrate"),
        "spectra.calibrate.self_s": self_s("spectra.calibrate"),
        "output.write_csv.self_s": self_s("output.write_csv"),
        "output.write_json.self_s": self_s("output.write_json"),
        "output.bytes_written": c["output.bytes_written"],
        "cli.self_s": self_s("cli.main"),
        "bench.self_s": self_s(BENCH_STEP),
        "trace.library_share":
            1.0 - blocking[BENCH_STEP] / blocked_total if blocked_total else 0.0,
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
    }
    table = {name: seconds for name, seconds in blocking.most_common()}
    return metrics, table
