"""In-memory span tracer for the benchmark.

Spans are recorded around calls into annealab's layers. The wrappers live
here, in the benchmark, and are installed into every annealab namespace that
binds the wrapped object: `dynamics` imports `driver_apply` by name and
`experiments` imports `run_chain` by name, so patching only the defining
module would miss those callers.

Hot leaf calls (`driver_apply`, `Schedule.a`/`b`, `validate`) are too frequent
for one span each. They are aggregated on the enclosing span as
[calls, seconds, computed bytes] per name.

A span's self time is its duration minus the time covered by its child spans
and by the hot calls aggregated on it. Calls run on one thread, so children
never overlap and the covered time is a plain sum.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    hot: dict = field(default_factory=dict)  # name -> [calls, seconds, bytes]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - sum(h[1] for h in self.hot.values())


class Tracer:
    """Span stack plus the list of finished spans, in completion order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(next(self._ids), name, parent, self.clock())
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        if self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} ended out of order")
        span.end = self.clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration
        self.spans.append(span)

    def hot(self, name: str, seconds: float, nbytes: int = 0) -> None:
        if not self._stack:
            raise RuntimeError(f"hot call {name!r} outside any span")
        hot = self._stack[-1].hot
        agg = hot.get(name)
        if agg is None:
            agg = hot[name] = [0, 0.0, 0]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += nbytes

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start,
             "end": s.end, "self_s": s.self_s, "attrs": s.attrs, "hot": s.hot}
            for s in self.spans
        ]


class Patcher:
    """Replaces an object in every annealab namespace that binds it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> int:
        owners = [m for name, m in list(sys.modules.items())
                  if name == "annealab" or name.startswith("annealab.")]
        n = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
                    n += 1
        if n == 0:
            raise RuntimeError(f"{original!r} is bound in no annealab namespace")
        return n

    def replace_attr(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _driver_bytes(state) -> int:
    """Bytes computed by one driver_apply: n passes, each reading the input,
    reading and writing the accumulator (n * 2^n * itemsize * 3)."""
    return 3 * (state.shape[0].bit_length() - 1) * state.nbytes


def _evolve_key(bound: inspect.BoundArguments) -> str:
    """Digest of everything evolve's result depends on: diagonal, path,
    schedule, time_scale, accuracy and input amplitudes."""
    a = bound.arguments
    h = hashlib.sha1()
    for arr in (a["diag"].values, a["path"].times, a["path"].svals,
                a["sched"].s_grid, a["sched"].a_vals, a["sched"].b_vals,
                a["state"].amplitudes):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((a["time_scale"], a["accuracy"])).encode())
    return h.hexdigest()


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced annealab call; returns the patcher that undoes it."""
    from annealab import (cli, coloring_qubo, dynamics, experiments, graphs,
                          heuristic, schedules, spectrum, svmc)

    patcher = Patcher()

    def spanned(fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after:
                after(span, extra, result)
            return result
        return wrapper

    clock = tracer.clock

    def hot(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            tracer.hot(name, clock() - t0)
            return result
        return wrapper

    # --- spans ---
    for mod, attr, name in (
        (graphs, "generate_er", "graphs.generate_er"),
        (coloring_qubo, "build_coloring_qubo", "coloring_qubo.build_coloring_qubo"),
        (schedules, "resolve_schedule", "schedules.resolve_schedule"),
        (spectrum, "build_problem_diagonal", "spectrum.build_problem_diagonal"),
        (spectrum, "spectrum_sweep", "spectrum.spectrum_sweep"),
        (spectrum, "min_gap", "spectrum.min_gap"),
        (heuristic, "run_chain", "heuristic.run_chain"),
        (heuristic, "assisted_reverse_anneal", "heuristic.assisted_reverse_anneal"),
        (experiments, "instance", "experiments.instance"),
        (experiments, "sweep_reverse_distance", "experiments.protocol"),
        (experiments, "baseline_run", "experiments.protocol"),
        (cli, "cli_entry", "cli.cli_entry"),
    ):
        fn = getattr(mod, attr)
        patcher.replace(fn, spanned(fn, name))

    def eig_after(span, _extra, _result):
        # classified by behaviour, not by the program's size limit: the
        # iterative path applies the driver matrix-free, the dense one never does
        span.name = ("spectrum.eigensolve_iterative" if "driver_apply.float64" in span.hot
                     else "spectrum.eigensolve_dense")

    fn = spectrum.lowest_eigenvalues
    patcher.replace(fn, spanned(fn, "spectrum.eigensolve", after=eig_after))

    sig_evolve = inspect.signature(dynamics.evolve)

    def evolve_before(args, kwargs):
        bound = sig_evolve.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound

    def evolve_after(span, bound, result):
        span.attrs["key"] = _evolve_key(bound)
        span.attrs["norm_drift"] = float(result.norm_drift)

    fn = dynamics.evolve
    patcher.replace(fn, spanned(fn, "dynamics.evolve", evolve_before, evolve_after))
    fn = dynamics.sample
    patcher.replace(fn, spanned(fn, "dynamics.sample"))

    sig_svmc = inspect.signature(svmc.svmc_run)

    def svmc_before(args, kwargs):
        bound = sig_svmc.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return a["sweeps_per_waypoint"] * len(a["path"].times) * a["ising"].n_spins

    def svmc_after(span, updates, _result):
        span.attrs["spin_updates"] = updates

    fn = svmc.svmc_run
    patcher.replace(fn, spanned(fn, "svmc.svmc_run", svmc_before, svmc_after))

    def samples_after(span, _extra, result):
        span.attrs["samples"] = len(result)
        span.attrs["valid"] = sum(bool(s.valid) for s in result)

    for cls in (heuristic.StatevectorBackend, heuristic.SvmcBackend):
        for attr in ("forward", "reverse"):
            fn = vars(cls)[attr]
            patcher.replace_attr(cls, attr, spanned(fn, f"heuristic.{attr}", after=samples_after))

    # --- hot leaf calls ---
    def driver(fn):
        names = {}

        @functools.wraps(fn)
        def wrapper(state):
            # split by dtype: complex128 from dynamics, float64 from the eigensolver
            t0 = clock()
            result = fn(state)
            t1 = clock()
            name = names.get(state.dtype)
            if name is None:
                name = names[state.dtype] = f"driver_apply.{state.dtype}"
            tracer.hot(name, t1 - t0, _driver_bytes(state))
            return result
        return wrapper

    patcher.replace(spectrum.driver_apply, driver(spectrum.driver_apply))
    for attr in ("a", "b"):
        patcher.replace_attr(schedules.Schedule, attr,
                             hot(vars(schedules.Schedule)[attr], "schedules.envelope"))
    fn = coloring_qubo.validate
    patcher.replace(fn, hot(fn, "coloring_qubo.validate"))
    return patcher


def _quantile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q) * 1e3) if durations else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one traced workload run, as name -> (value, unit).

    Layers a workload never calls read 0.
    """
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by.get(name, ()))

    def self_s(name):
        return sum(s.self_s for s in by.get(name, ()))

    def pct(name, q):
        return _quantile_ms([s.duration for s in by.get(name, ())], q)

    def hot(name, on=None):
        tot = [0, 0.0, 0.0]
        for s in (by.get(on, ()) if on else spans):
            for i, v in enumerate(s.hot.get(name, (0, 0.0, 0.0))):
                tot[i] += v
        return tot

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    ev = by.get("dynamics.evolve", [])
    m["dynamics.evolve.calls"] = (len(ev), "count")
    m["dynamics.evolve.self_s"] = (self_s("dynamics.evolve"), "s")
    m["dynamics.evolve.p50_ms"] = (pct("dynamics.evolve", 50), "ms")
    m["dynamics.evolve.p90_ms"] = (pct("dynamics.evolve", 90), "ms")
    keys = [s.attrs["key"] for s in ev]
    m["dynamics.evolve.repeat_ratio"] = (ratio(len(keys) - len(set(keys)), len(keys)), "ratio")
    m["dynamics.matvecs_per_evolve"] = (
        ratio(hot("driver_apply.complex128", "dynamics.evolve")[0], len(ev)), "count")
    m["dynamics.norm_drift_max"] = (max((s.attrs["norm_drift"] for s in ev), default=0.0), "1")
    m["dynamics.sample.calls"] = (calls("dynamics.sample"), "count")
    m["dynamics.sample.self_s"] = (self_s("dynamics.sample"), "s")

    for dtype in ("complex128", "float64"):
        n, sec, nbytes = hot(f"driver_apply.{dtype}")
        m[f"spectrum.driver_apply.{dtype}.calls"] = (n, "count")
        m[f"spectrum.driver_apply.{dtype}.mean_us"] = (ratio(sec, n) * 1e6, "us")
        m[f"spectrum.driver_apply.{dtype}.self_s"] = (sec, "s")
        m[f"spectrum.driver_apply.{dtype}.computed_mb"] = (nbytes / 1e6, "MB")
    for kind in ("dense", "iterative"):
        name = f"spectrum.eigensolve_{kind}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.p50_ms"] = (pct(name, 50), "ms")
    m["spectrum.iterative.matvecs_per_solve"] = (
        ratio(hot("driver_apply.float64", "spectrum.eigensolve_iterative")[0],
              calls("spectrum.eigensolve_iterative")), "count")
    m["spectrum.build_problem_diagonal.calls"] = (calls("spectrum.build_problem_diagonal"), "count")
    m["spectrum.build_problem_diagonal.self_s"] = (self_s("spectrum.build_problem_diagonal"), "s")

    m["svmc.svmc_run.calls"] = (calls("svmc.svmc_run"), "count")
    m["svmc.svmc_run.self_s"] = (self_s("svmc.svmc_run"), "s")
    m["svmc.svmc_run.p50_ms"] = (pct("svmc.svmc_run", 50), "ms")
    m["svmc.svmc_run.p95_ms"] = (pct("svmc.svmc_run", 95), "ms")
    updates = sum(s.attrs["spin_updates"] for s in by.get("svmc.svmc_run", ()))
    m["svmc.spin_update_us"] = (ratio(self_s("svmc.svmc_run"), updates) * 1e6, "us")

    m["heuristic.run_chain.calls"] = (calls("heuristic.run_chain"), "count")
    m["heuristic.run_chain.self_s"] = (self_s("heuristic.run_chain"), "s")
    m["heuristic.run_chain.p50_ms"] = (pct("heuristic.run_chain", 50), "ms")
    m["heuristic.run_chain.p90_ms"] = (pct("heuristic.run_chain", 90), "ms")
    for stage in ("reverse", "forward"):
        m[f"heuristic.{stage}.calls"] = (calls(f"heuristic.{stage}"), "count")
        m[f"heuristic.{stage}.self_s"] = (self_s(f"heuristic.{stage}"), "s")
    rev = by.get("heuristic.reverse", [])
    m["heuristic.valid_ratio"] = (
        ratio(sum(s.attrs["valid"] for s in rev), sum(s.attrs["samples"] for s in rev)), "ratio")
    m["heuristic.assisted_reverse_anneal.self_s"] = (
        self_s("heuristic.assisted_reverse_anneal"), "s")

    n, sec, _ = hot("coloring_qubo.validate")
    m["coloring_qubo.validate.calls"] = (n, "count")
    m["coloring_qubo.validate.self_s"] = (sec, "s")
    m["coloring_qubo.build_coloring_qubo.self_s"] = (self_s("coloring_qubo.build_coloring_qubo"), "s")
    m["graphs.generate_er.self_s"] = (self_s("graphs.generate_er"), "s")

    m["schedules.resolve_schedule.calls"] = (calls("schedules.resolve_schedule"), "count")
    m["schedules.resolve_schedule.self_s"] = (self_s("schedules.resolve_schedule"), "s")
    n, sec, _ = hot("schedules.envelope")
    m["schedules.envelope.calls"] = (n, "count")
    m["schedules.envelope.self_s"] = (sec, "s")

    m["experiments.instance.self_s"] = (self_s("experiments.instance"), "s")
    m["experiments.protocol.self_s"] = (self_s("experiments.protocol"), "s")
    m["cli.cli_entry.self_s"] = (self_s("cli.cli_entry"), "s")
    return m
