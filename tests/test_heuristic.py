"""Orchestration-layer tests: selection rules, chaining policies, records."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from annealab.coloring_qubo import Sample, build_coloring_qubo, index_to_bits, validate
from annealab import dynamics, svmc
from annealab.dynamics import REVERSE_TIME_SCALE, SLOW_TIME_SCALE
from annealab.graphs import Graph, path_graph
from annealab.heuristic import (
    FEED_LAST,
    KEEP_BEST,
    OUTCOME_EXHAUSTED,
    OUTCOME_FORWARD,
    OUTCOME_RA,
    CycleRecord,
    RunRecord,
    StatevectorBackend,
    SvmcBackend,
    assisted_reverse_anneal,
    problem_id,
    run_chain,
    select_initial,
)
from annealab.schedules import make_reverse_path, resolve_schedule
from oracles import all_bitstrings, complete_graph


P5 = build_coloring_qubo(path_graph(5), 2)


def bits_at_energy(problem, energy):
    """Deterministic pick: lexicographically first bitstring at that energy."""
    hits = np.nonzero(problem.energies(all_bitstrings(problem.n_vars)) == energy)[0]
    assert hits.size, f"no bitstring at energy {energy}"
    return min(index_to_bits(int(i), problem.n_vars) for i in hits)


class ScriptedBackend:
    """Replays canned outputs; records the inputs it was fed."""

    kind = "scripted"

    def __init__(self, problem, script):
        self.problem = problem
        self.script = list(script)
        self.calls = 0
        self.inputs = []

    def reverse(self, problem, sched, path, initial, shots=1, seed=0, **kw):
        self.inputs.append(initial)
        batch = self.script[self.calls]
        self.calls += 1
        assert len(batch) == shots
        return [
            Sample(bits=b, energy=problem.energy(b))
            for b in batch
        ]


def test_select_initial_returns_the_only_valid():
    samples = [Sample("0" * 10, 3.0)] * 9 + [Sample("1001100110", 0.0)]
    assert select_initial(samples, seed=0) == "1001100110"


def test_select_initial_takes_lowest_energy_when_none_valid():
    samples = [
        Sample("1100000000", 3.0),
        Sample("0011000000", 1.0),
        Sample("0000110000", 2.0),
    ]
    assert select_initial(samples, seed=0) == "0011000000"


def test_select_initial_breaks_energy_ties_lexicographically():
    samples = [Sample("10", 1.0), Sample("01", 1.0)]
    assert select_initial(samples, seed=0) == "01"


def test_select_initial_uniform_over_valids_is_seeded():
    samples = [Sample(f"{i:04b}", 0.0) for i in range(8)]
    picks = {select_initial(samples, seed=s) for s in range(30)}
    assert len(picks) > 1  # actually random
    assert select_initial(samples, seed=4) == select_initial(samples, seed=4)
    assert all(p in {s.bits for s in samples} for p in picks)


def test_select_initial_rejects_empty():
    with pytest.raises(ValueError):
        select_initial([], seed=0)


def test_feed_last_chains_outputs():
    e1 = bits_at_energy(P5, 1.0)
    e2 = bits_at_energy(P5, 2.0)
    e3 = bits_at_energy(P5, 3.0)
    backend = ScriptedBackend(P5, [[e3], [e1], [e2]])
    path = make_reverse_path(0.5, 1.0)
    cycles = run_chain(P5, backend, resolve_schedule("steep"), path, e2, 3, seed=0,
                       policy=FEED_LAST, halt_on_valid=False)
    assert backend.inputs == [e2, e3, e1]
    assert [c.input_bits for c in cycles] == [e2, e3, e1]
    assert [c.output_bits for c in cycles] == [e3, e1, e2]


def test_keep_best_refeeds_best_seen():
    e1 = bits_at_energy(P5, 1.0)
    e2 = bits_at_energy(P5, 2.0)
    e3 = bits_at_energy(P5, 3.0)
    backend = ScriptedBackend(P5, [[e3], [e1], [e3]])
    path = make_reverse_path(0.5, 1.0)
    run_chain(P5, backend, resolve_schedule("steep"), path, e2, 3, seed=0,
              policy=KEEP_BEST, halt_on_valid=False)
    # seed e2 beats the first output e3; the e1 output then takes over
    assert backend.inputs == [e2, e2, e1]


def test_within_cycle_selection_keeps_lowest_energy():
    e1 = bits_at_energy(P5, 1.0)
    e3 = bits_at_energy(P5, 3.0)
    backend = ScriptedBackend(P5, [[e3, e1]])
    path = make_reverse_path(0.5, 1.0)
    cycles = run_chain(P5, backend, resolve_schedule("steep"), path, e3, 1, seed=0,
                       shots_per_cycle=2, halt_on_valid=False)
    assert cycles[0].output_bits == e1


def test_chain_halts_on_first_valid():
    ground = bits_at_energy(P5, 0.0)
    e1 = bits_at_energy(P5, 1.0)
    backend = ScriptedBackend(P5, [[e1], [ground], [e1]])
    path = make_reverse_path(0.5, 1.0)
    cycles = run_chain(P5, backend, resolve_schedule("steep"), path, e1, 3, seed=0)
    assert len(cycles) == 2
    assert cycles[-1].valid


def test_solved_by_forward_has_no_cycles():
    rec = assisted_reverse_anneal(
        P5, StatevectorBackend(), resolve_schedule("linear"), s_prime=0.5,
        forward_shots=20, max_cycles=10, seed=1,
    )
    assert rec.outcome == OUTCOME_FORWARD
    assert rec.cycles == ()
    assert rec.initial_bits is None
    assert rec.forward["valid_count"] >= 1
    assert rec.forward["count"] == 20


def test_zero_cycle_budget_reports_exhausted_with_seed():
    # starved forward: fast ramp leaves an essentially uniform distribution
    rec = assisted_reverse_anneal(
        P5, StatevectorBackend(), resolve_schedule("steep"), s_prime=0.44,
        forward_shots=5, max_cycles=0, seed=0, forward_time_scale=0.02,
    )
    assert rec.forward["valid_count"] == 0
    assert rec.outcome == OUTCOME_EXHAUSTED
    assert rec.cycles == ()
    assert rec.initial_bits is not None
    assert len(rec.initial_bits) == 10


def test_statevector_cap_is_enforced():
    big = build_coloring_qubo(path_graph(5), 5)  # 25 vars
    with pytest.raises(ValueError, match="capped at 20 qubits"):
        StatevectorBackend().forward(big, resolve_schedule("linear"), total_time=100.0, shots=1,
                                     seed=0)


def test_oversize_problem_falls_back_to_rotor_backend():
    big = build_coloring_qubo(path_graph(5), 5)
    rec = assisted_reverse_anneal(
        big, StatevectorBackend(), resolve_schedule("linear"), s_prime=0.5,
        forward_shots=2, max_cycles=1, seed=0,
    )
    assert rec.backend_kind == "svmc"
    assert rec.backend_substituted


def test_statevector_time_scale_none_means_the_defaults():
    q = build_coloring_qubo(path_graph(2), 2)
    backend, sched = StatevectorBackend(), resolve_schedule("steep")
    assert backend.forward(q, sched, total_time=100.0, shots=20, seed=3, time_scale=None) == \
        backend.forward(q, sched, total_time=100.0, shots=20, seed=3, time_scale=SLOW_TIME_SCALE)
    path = make_reverse_path(0.5, 100.0)
    assert backend.reverse(q, sched, path, "0110", shots=20, seed=4, time_scale=None) == \
        backend.reverse(q, sched, path, "0110", shots=20, seed=4,
                        time_scale=REVERSE_TIME_SCALE)


def test_backends_hold_only_their_settings():
    assert vars(StatevectorBackend()) == {"fallback": SvmcBackend()}
    assert vars(SvmcBackend(7, 3.0)) == {"sweeps_per_waypoint": 7, "beta": 3.0}
    for backend in (StatevectorBackend(), SvmcBackend(7, 3.0)):
        for name in vars(backend):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(backend, name, None)


@pytest.mark.parametrize("make", [StatevectorBackend, lambda: SvmcBackend(20)],
                         ids=["statevector", "svmc"])
def test_one_backend_reused_across_problems_samples_as_fresh_ones(make):
    problems = [build_coloring_qubo(path_graph(n), 2) for n in (2, 3)]
    sched, path = resolve_schedule("steep"), make_reverse_path(0.44, 100.0)

    def calls(backend, q, seed):
        initial = index_to_bits(5, q.n_vars)
        return (backend.forward(q, sched, total_time=100.0, shots=5, seed=[seed, 0],
                                time_scale=0.05),
                backend.reverse(q, sched, path, initial, shots=3, seed=[seed, 2, 1]))

    shared = make()
    for seed in (0, 1):
        for q in problems:  # alternating problems on the one backend
            assert calls(shared, q, seed) == calls(make(), q, seed)


def test_backend_validity_flags_match_oracle():
    out = SvmcBackend(sweeps_per_waypoint=50).forward(
        P5, resolve_schedule("linear"), total_time=100.0, shots=10, seed=3
    )
    for s in out:
        assert s.valid == validate(P5, s.bits)


def test_svmc_backend_runs_match_statevector_schema():
    rec = assisted_reverse_anneal(
        P5, SvmcBackend(sweeps_per_waypoint=50), resolve_schedule("steep"), s_prime=0.44,
        forward_shots=4, max_cycles=2, seed=9,
    )
    assert rec.backend_kind == "svmc"
    assert set(rec.to_dict()) == set(
        assisted_reverse_anneal(
            P5, StatevectorBackend(), resolve_schedule("linear"), s_prime=0.5,
            forward_shots=4, max_cycles=0, seed=9,
        ).to_dict()
    )


def test_chain_integrity_in_real_records():
    rec = assisted_reverse_anneal(
        P5, SvmcBackend(sweeps_per_waypoint=30), resolve_schedule("steep"), s_prime=0.44,
        forward_shots=3, max_cycles=4, seed=2, forward_time_scale=None,
    )
    if rec.cycles:
        assert rec.cycles[0].input_bits == rec.initial_bits
        for prev, nxt in zip(rec.cycles, rec.cycles[1:]):
            assert nxt.input_bits == prev.output_bits


def test_record_outcome_invariants():
    cyc = CycleRecord("00", "11", 2.0, False)
    kwargs = dict(
        problem_id="abc", k=1, n_vars=2, backend_kind="scripted",
        backend_substituted=False, forward=None, initial_bits="00",
        seeds={}, schedule_name="linear", path_info={},
    )
    with pytest.raises(ValueError):
        RunRecord(cycles=(cyc,), outcome=OUTCOME_FORWARD, **kwargs)
    with pytest.raises(ValueError):
        RunRecord(cycles=(cyc,), outcome=OUTCOME_RA, **kwargs)


def test_record_serializes_to_jsonl():
    rec = assisted_reverse_anneal(
        P5, StatevectorBackend(), resolve_schedule("linear"), s_prime=0.5,
        forward_shots=10, max_cycles=0, seed=1,
    )
    loaded = json.loads(rec.to_jsonl())
    assert loaded["problem_id"] == problem_id(P5)
    assert loaded["k"] == 2
    assert loaded["n_vars"] == 10
    assert loaded["schedule_name"] == "linear"
    assert loaded["seeds"]["master"] == 1


def test_problem_id_is_stable_and_content_addressed():
    other = build_coloring_qubo(complete_graph(3), 3)
    assert problem_id(P5) == problem_id(build_coloring_qubo(path_graph(5), 2))
    assert problem_id(P5) != problem_id(other)


def test_readme_tour_runs_verbatim(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(tour, {})
    assert capsys.readouterr().out == "solved-by-forward None 0\n"


def _guard_run_chain(backend=SvmcBackend(5), initial="0" * P5.n_vars, **kw):
    sched, path = resolve_schedule("steep"), make_reverse_path(0.44, 100.0)
    args = dict(n_cycles=1, seed=0) | kw
    return run_chain(P5, backend, sched, path, initial, **args)


def _guard_assisted(**kw):
    args = dict(forward_shots=1000, max_cycles=50) | kw
    return assisted_reverse_anneal(P5, SvmcBackend(5), resolve_schedule("steep"), 0.44, **args)


@pytest.mark.parametrize("call, match", [
    (lambda: _guard_assisted(policy="bogus"), "unknown feeding policy 'bogus'"),
    (lambda: _guard_assisted(shots_per_cycle=0), "need shots_per_cycle >= 1, got 0"),
    (lambda: _guard_run_chain(seed=-1), "seed entries must be non-negative"),
    (lambda: _guard_run_chain(seed=1.5), "seed must be an int or sequence of ints"),
    (lambda: _guard_assisted(forward_shots=0), "need shots >= 1, got 0"),
    (lambda: _guard_assisted(max_cycles=-1), "need max_cycles >= 0, got -1"),
    (lambda: SvmcBackend(5).forward(P5, resolve_schedule("steep"), total_time=100.0, shots=1,
                                    seed=0, time_scale=0.0),
     "time_scale must be positive and finite, got 0.0"),
    (lambda: SvmcBackend(5).reverse(P5, resolve_schedule("steep"), make_reverse_path(0.44, 1.0),
                                    "0" * P5.n_vars, shots=1, seed=0, time_scale=float("nan")),
     "time_scale must be positive and finite, got nan"),
    (lambda: SvmcBackend(1000).forward(P5, resolve_schedule("steep"), total_time=100.0,
                                       shots=1, seed=0, time_scale=1e306),
     r"time_scale must be positive and finite, got 1e\+306 \(times 1000\)"),
    (lambda: _guard_run_chain(initial="2020" + "0" * 6),
     "initial must be a string of 0s and 1s, got '2020000000'"),
    (lambda: _guard_run_chain(backend=StatevectorBackend(), initial="2020" + "0" * 6),
     "initial must be a string of 0s and 1s, got '2020000000'"),
    (lambda: SvmcBackend(5).forward(P5, resolve_schedule("steep"), total_time=100.0, shots=0,
                                    seed=0),
     "need shots >= 1, got 0"),
    (lambda: SvmcBackend(5).reverse(P5, resolve_schedule("steep"), make_reverse_path(0.44, 1.0),
                                    "0" * P5.n_vars, shots=-1, seed=0),
     "need shots >= 1, got -1"),
], ids=["policy", "shots-per-cycle", "negative-seed", "float-seed", "forward-shots",
        "max-cycles", "svmc-time-scale", "svmc-time-scale-nan", "svmc-sweeps-overflow",
        "start-bits-svmc", "start-bits-statevector", "svmc-shots-zero", "svmc-shots-negative"])
def test_heuristic_refuses_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# P6 plus the chord (0, 2) has no 2-coloring, so its forward stage cannot
# solve it; P3's forward stage does solve it
P6_CHORD = build_coloring_qubo(Graph(6, path_graph(6).edges + ((0, 2),)), 2)
P3 = build_coloring_qubo(path_graph(3), 2)
ASSISTED = dict(s_prime=0.44, forward_shots=5, max_cycles=2, seed=0)


def test_p3_forward_stage_solves_it():
    rec = assisted_reverse_anneal(P3, StatevectorBackend(), resolve_schedule("steep"), **ASSISTED)
    assert rec.outcome == OUTCOME_FORWARD


@pytest.mark.parametrize("problem", [P6_CHORD, P3], ids=["p6-chord", "p3-solved-by-forward"])
@pytest.mark.parametrize("setting, match", [
    (dict(policy="bogus"), "unknown feeding policy 'bogus'"),
    (dict(shots_per_cycle=0), "need shots_per_cycle >= 1, got 0"),
    (dict(ra_time_scale=0.0), "time_scale must be positive and finite, got 0.0"),
    (dict(forward_time_scale=math.nan), "time_scale must be positive and finite, got nan"),
    # finite, but times total_time it overflows
    (dict(forward_time_scale=1e308), r"got 1e\+308 \(times 100\)"),
    (dict(ra_time_scale=1e308), r"got 1e\+308 \(times 100\)"),
], ids=["policy", "shots-per-cycle", "ra-time-scale", "forward-time-scale-nan",
        "forward-time-scale-overflow", "ra-time-scale-overflow"])
def test_assisted_refuses_bad_settings_before_the_forward_stage(monkeypatch, problem, setting,
                                                                 match):
    calls = []
    forward = StatevectorBackend.forward

    def spy(self, *args, **kwargs):
        calls.append(args)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(StatevectorBackend, "forward", spy)
    with pytest.raises(ValueError, match=match):
        assisted_reverse_anneal(problem, StatevectorBackend(), resolve_schedule("steep"),
                                **ASSISTED | setting)
    assert calls == []


@pytest.mark.parametrize("backend", [StatevectorBackend(), SvmcBackend(5)],
                         ids=["statevector", "svmc"])
@pytest.mark.parametrize("stage", ["forward_time_scale", "ra_time_scale"])
def test_time_scale_that_overflows_its_span_is_a_value_error(backend, stage):
    with pytest.raises(ValueError, match=r"time_scale must be positive and finite, got 1e\+308"):
        assisted_reverse_anneal(P3, backend, resolve_schedule("steep"), **ASSISTED | {stage: 1e308})


@pytest.mark.parametrize("shots", [0, -1])
def test_statevector_backend_refuses_shots_before_evolving(monkeypatch, shots):
    def unreachable(*args, **kwargs):
        raise AssertionError("evolved before refusing the shot count")

    monkeypatch.setattr(dynamics, "evolve", unreachable)
    sched = resolve_schedule("steep")
    with pytest.raises(ValueError, match=f"need shots >= 1, got {shots}"):
        StatevectorBackend().forward(P5, sched, total_time=100.0, shots=shots, seed=0)
    with pytest.raises(ValueError, match=f"need shots >= 1, got {shots}"):
        StatevectorBackend().reverse(P5, sched, make_reverse_path(0.44, 1.0), "0" * P5.n_vars,
                                     shots=shots, seed=0)


@pytest.mark.parametrize("stage", ["forward", "reverse"])
@pytest.mark.parametrize("backend, time_scale, named", [
    (SvmcBackend(), 1e9, r"time_scale \(1e\+09\) or sweeps_per_waypoint \(1000\)"),
    (SvmcBackend(10**12), None, r"sweeps_per_waypoint \(1000000000000\)"),
], ids=["stretched", "sweeps"])
def test_svmc_backend_refuses_a_trajectory_before_any_draw(monkeypatch, stage, backend,
                                                          time_scale, named):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran a trajectory before refusing it")

    monkeypatch.setattr(svmc, "svmc_run", unreachable)
    sched = resolve_schedule("steep")
    with pytest.raises(ValueError, match="^SVMC trajectory would need over 3e\\+11 spin "
                                         f"updates: lower {named}$"):
        if stage == "forward":
            backend.forward(P3, sched, total_time=100.0, shots=1, seed=0, time_scale=time_scale)
        else:
            backend.reverse(P3, sched, make_reverse_path(0.44, 100.0), "100110", shots=1, seed=0,
                            time_scale=time_scale)
