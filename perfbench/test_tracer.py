"""Tests of the benchmark's tracer: self-time arithmetic, the derived layer
metrics, and wrapper installation; and of the reference sampler.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as T  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_child_spans_and_hot_calls():
    clock = FakeClock()
    tr = T.Tracer(clock)
    root = tr.begin("root")               # [0, 10]
    clock.t = 1.0
    a = tr.begin("a")                     # [1, 5]
    clock.t = 2.0
    b = tr.begin("b")                     # [2, 3.5], a leaf span
    clock.t = 3.5
    tr.end(b)
    tr.hot("leaf", 0.25)
    tr.hot("leaf", 0.25, nbytes=8)        # both aggregated on a
    clock.t = 5.0
    tr.end(a)
    tr.hot("leaf", 1.0)                   # aggregated on root
    clock.t = 10.0
    tr.end(root)

    assert b.self_s == pytest.approx(1.5)
    assert a.self_s == pytest.approx(4.0 - 1.5 - 0.5)
    assert root.self_s == pytest.approx(10.0 - 4.0 - 1.0)
    assert a.hot["leaf"] == [2, 0.5, 8]
    assert [s.parent for s in (b, a, root)] == [a.id, root.id, None]
    # self times plus hot time partition the root interval exactly
    hot = sum(h[1] for s in tr.spans for h in s.hot.values())
    assert sum(s.self_s for s in tr.spans) + hot == pytest.approx(root.duration)


def test_spans_must_nest_and_hot_calls_need_a_span():
    tr = T.Tracer(FakeClock())
    with pytest.raises(RuntimeError):
        tr.hot("leaf", 1.0)
    outer = tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def _span(tr, clock, name, start, end, **attrs):
    clock.t = start
    s = tr.begin(name)
    clock.t = end
    tr.end(s)
    s.attrs.update(attrs)
    return s


def test_layer_metrics_counts_ratios_and_percentiles():
    clock = FakeClock()
    tr = T.Tracer(clock)
    root = tr.begin("bench.rep")
    for i, key in enumerate(("x", "y", "x", "x")):
        clock.t = float(i)
        ev = tr.begin("dynamics.evolve")
        for _ in range(10):
            tr.hot("driver_apply.complex128", 0.01, nbytes=1000)
        clock.t = i + 0.5
        tr.end(ev)
        ev.attrs.update(key=key, norm_drift=1e-9 * i)
    _span(tr, clock, "svmc.svmc_run", 5.0, 6.0, spin_updates=1000)
    clock.t = 7.0
    tr.end(root)

    m = T.layer_metrics(tr.spans)
    assert m["dynamics.evolve.calls"] == (4, "count")
    assert m["dynamics.evolve.repeat_ratio"][0] == pytest.approx(0.5)
    assert m["dynamics.matvecs_per_evolve"][0] == pytest.approx(10)
    assert m["dynamics.evolve.self_s"][0] == pytest.approx(4 * (0.5 - 0.1))
    assert m["dynamics.evolve.p50_ms"][0] == pytest.approx(500.0)
    assert m["dynamics.norm_drift_max"][0] == pytest.approx(3e-9)
    assert m["spectrum.driver_apply.complex128.calls"][0] == 40
    assert m["spectrum.driver_apply.complex128.mean_us"][0] == pytest.approx(1e4)
    assert m["spectrum.driver_apply.complex128.computed_mb"][0] == pytest.approx(0.04)
    assert m["spectrum.driver_apply.float64.calls"][0] == 0
    assert m["svmc.spin_update_us"][0] == pytest.approx(1000.0)
    assert m["heuristic.valid_ratio"][0] == 0.0  # idle layers read 0


def test_sampler_times_slices_during_the_call_and_restores_the_handler():
    import signal
    import time

    import reference

    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler("mixed") as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * reference.PERIOD_S:
            pass
    # one slice before the call, then one per elapsed period
    assert len(s.slices) >= 3
    assert 0.0 < sum(s.slices[1:]) <= s.spent
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_install_wraps_every_binding_and_restore_undoes_it():
    from annealab import dynamics, experiments, heuristic, spectrum

    originals = (spectrum.driver_apply, dynamics.driver_apply, heuristic.run_chain,
                 experiments.run_chain)
    tr = T.Tracer()
    patcher = T.install(tr)
    try:
        assert dynamics.driver_apply is spectrum.driver_apply
        assert dynamics.driver_apply is not originals[0]
        assert experiments.run_chain is heuristic.run_chain is not originals[2]
        root = tr.begin("root")
        dynamics.driver_apply(np.ones(8))
        tr.end(root)
        assert root.hot["driver_apply.float64"][0] == 1
        assert root.hot["driver_apply.float64"][2] == 3 * 3 * 8 * 8
    finally:
        patcher.restore()
    assert (spectrum.driver_apply, dynamics.driver_apply, heuristic.run_chain,
            experiments.run_chain) == originals


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = set(T.layer_metrics([])) | {"experiments.output_bytes", "bench.trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    import run
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["unit"] for m in spec["end_to_end"]} == {run.UNITS[k] for k in run.END_TO_END}


def test_output_check_flags_wrong_energy_valid_flag_and_broken_chain():
    import workloads
    from annealab import build_coloring_qubo, path_graph

    q = build_coloring_qubo(path_graph(2), 2)
    good = {"problem_id": "p", "initial_bits": "1010", "cycles": [
        {"input_bits": "1010", "output_bits": "1001", "energy": 0.0, "valid": True},
        {"input_bits": "1001", "output_bits": "1010", "energy": 1.0, "valid": False},
    ]}
    errors = []
    workloads.check_chain(q, good, errors)
    assert errors == []

    bad = json.loads(json.dumps(good))
    bad["cycles"][0]["energy"] = 0.5
    bad["cycles"][1]["valid"] = True
    bad["cycles"][1]["input_bits"] = "0000"
    workloads.check_chain(q, bad, errors)
    assert len(errors) == 3
