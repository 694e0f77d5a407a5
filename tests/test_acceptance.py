"""Acceptance gate: eleven numbered end-to-end checks.

Each test emits a single "[criterion N] PASS/FAIL" line: immediately when
capture is off (-s), and in any case via the scoreboard section conftest.py
appends to the terminal summary. Expected values come from independent
enumeration oracles or from frozen calibration runs; tolerances are inline.
"""

import json
import sys
import time

import numpy as np

from annealab.cli import cli_entry
from annealab.coloring_qubo import build_coloring_qubo, index_to_bits, qubo_to_ising, validate
from annealab.dynamics import (
    QuantumState,
    anneal,
    driver_ground,
    evolve,
    sample,
)
from annealab.experiments import ExperimentConfig, baseline_run, sweep_reverse_distance
from annealab.graphs import Graph, generate_er, greedy_color_largest_first
from annealab.heuristic import (
    OUTCOME_RA,
    StatevectorBackend,
    SvmcBackend,
    assisted_reverse_anneal,
)
from annealab.schedules import (
    AnnealPath,
    make_forward_path,
    make_reverse_path,
    resolve_schedule,
    reverse_distance_grid,
)
from annealab.spectrum import build_problem_diagonal, lowest_eigenvalues, min_gap, spectrum_sweep
from oracles import all_bitstrings, energy_expectation, proper_onehot_encodings, reversed_path

P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])


SCOREBOARD: list = []


def report(n: int, ok: bool, detail: str):
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    SCOREBOARD.append(line)
    if not sys.stdout.closed and sys.stdout is sys.__stdout__:
        print(line, flush=True)
    assert ok, f"criterion {n}: {detail}"


def small_instances(count: int, max_vars: int = 12):
    shapes = [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)]
    made = []
    i = 0
    while len(made) < count:
        n, k = shapes[i % len(shapes)]
        if n * k <= max_vars:
            g = generate_er(n, 0.5, [97, i])
            made.append((g, k, build_coloring_qubo(g, k)))
        i += 1
    return made


def test_criterion_01_validity_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    for g, k, q in small_instances(50):
        n_vars = g.n_vertices * k
        bits_all = all_bitstrings(n_vars)
        energies = q.energies(bits_all)
        zero_energy = {index_to_bits(int(i), n_vars)
                       for i in np.nonzero(np.abs(energies) <= 1e-9)[0]}
        validated = {index_to_bits(i, n_vars) for i in range(2 ** n_vars)
                     if validate(q, index_to_bits(i, n_vars))}
        oracle = proper_onehot_encodings(g, k)
        if not (zero_energy == validated == oracle):
            mismatches += 1
    dt = time.time() - t0
    report(1, mismatches == 0 and dt < 10.0,
           f"50 instances exhaustively enumerated, {mismatches} mismatches, {dt:.1f}s")


def test_criterion_02_qubo_ising_consistency():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(1234)
    for g, k, q in small_instances(20):
        ising = qubo_to_ising(q)
        n_vars = g.n_vertices * k
        batch = rng.integers(0, 2, size=(1000, n_vars), dtype=np.uint8)
        qubo_e = q.energies(batch)
        spins = 1 - 2 * batch.astype(np.int64)
        ising_e = np.array([ising.energy(row) for row in spins])
        worst = max(worst, float(np.max(np.abs(qubo_e - ising_e))))
    dt = time.time() - t0
    report(2, worst <= 1e-9 and dt < 5.0,
           f"20 instances x 1000 bitstrings, max |dE| = {worst:.2e}, {dt:.1f}s")


def test_criterion_03_spectrum_endpoints():
    t0 = time.time()
    sched = resolve_schedule("linear")
    diag = build_problem_diagonal(build_coloring_qubo(P5, 2))
    lo_start = lowest_eigenvalues(0.0, sched, diag, m=3)
    lo_end = lowest_eigenvalues(1.0, sched, diag, m=3)
    dt = time.time() - t0
    ok = (abs(lo_start[0] - (-10.0)) <= 1e-8
          and abs(lo_end[0]) <= 1e-7 and abs(lo_end[1]) <= 1e-7
          and lo_end[2] >= 1.0 - 1e-7
          and dt < 30.0)
    report(3, ok,
           f"s=0 ground {lo_start[0]:+.9f}, s=1 levels "
           f"({lo_end[0]:.1e}, {lo_end[1]:.1e}, {lo_end[2]:.6f}), {dt:.1f}s")


def test_criterion_04_spectrum_shape_and_min_gap_location():
    diag = build_problem_diagonal(build_coloring_qubo(P5, 2))
    grid = np.linspace(0.0, 1.0, 100)
    results = {}
    for name in ("linear", "steep"):
        table = spectrum_sweep(resolve_schedule(name), diag, grid=grid, m=4)
        end = table.levels[-1]
        results[name] = (min_gap(table), abs(end[1] - end[0]))
    (s_lin, gap_lin), end_split_lin = results["linear"]
    (s_steep, gap_steep), end_split_steep = results["steep"]
    ok = (end_split_lin <= 1e-7 and end_split_steep <= 1e-7
          and gap_lin > 0.0 and gap_steep > 0.0
          and 0.5 < s_lin < 0.95
          and s_steep < s_lin)
    report(4, ok,
           f"min gap at s={s_lin:.4f} (linear, gap {gap_lin:.2e}) vs "
           f"s={s_steep:.4f} (steep, gap {gap_steep:.2e}); ground degenerate at s=1")


def test_criterion_05_dynamics_invariants():
    sched = resolve_schedule("steep")
    diag = build_problem_diagonal(build_coloring_qubo(P5, 2))

    forward = evolve(driver_ground(10), make_forward_path(100.0), sched, diag,
                     time_scale=0.5)
    drift_ok = forward.norm_drift <= 1e-6

    pause = AnnealPath(times=(0.0, 40.0), svals=(0.44, 0.44))
    before = energy_expectation(0.44, sched, diag, forward)
    after_state = evolve(forward, pause, sched, diag)
    after = energy_expectation(0.44, sched, diag, after_state)
    pause_ok = abs(after - before) <= 1e-8

    # unitarity probe: conj(U psi) evolved along the mirrored path is conj(psi)
    diag6 = build_problem_diagonal(build_coloring_qubo(K3, 2))
    path6 = make_forward_path(60.0)
    start = driver_ground(6)
    mid = evolve(start, path6, resolve_schedule("linear"), diag6)
    back = evolve(QuantumState(6, np.conj(mid.amplitudes)), reversed_path(path6),
                  resolve_schedule("linear"), diag6)
    reversal_err = float(np.max(np.abs(np.conj(back.amplitudes) - start.amplitudes)))
    reversal_ok = reversal_err <= 1e-5

    report(5, drift_ok and pause_ok and reversal_ok,
           f"norm drift {forward.norm_drift:.1e}, pause dE {abs(after - before):.1e}, "
           f"round-trip error {reversal_err:.1e}")


def test_criterion_06_adiabatic_limit_forward():
    sched = resolve_schedule("linear")
    q = build_coloring_qubo(P5, 2)
    diag = build_problem_diagonal(q)
    state = evolve(driver_ground(10), make_forward_path(100.0), sched, diag,
                   time_scale=8.0)
    probs = np.abs(state.amplitudes) ** 2
    mass = float(probs[409] + probs[614])
    shots = sample(state, 1000, seed=20)
    n_valid = sum(validate(q, b) for b in shots)
    report(6, mass >= 0.8 and n_valid >= 750,
           f"valid-state mass {mass:.4f}, {n_valid}/1000 sampled bitstrings valid")


def test_criterion_07_shallow_reverse_returns_seed():
    sched = resolve_schedule("steep")
    q = build_coloring_qubo(P5, 2)
    diag = build_problem_diagonal(q)
    seed_bits = "1001100110"
    samples = anneal(diag, sched, make_reverse_path(0.93, 100.0),
                     seed_bits, shots=1000, seed=7)
    returned = sum(s.bits == seed_bits for s in samples)
    unique_valid = {s.bits for s in samples if s.valid}
    report(7, returned >= 990 and len(unique_valid) == 1,
           f"seed returned {returned}/1000, unique valid outputs {len(unique_valid)}")


def test_criterion_08_starved_forward_rescued_by_reverse():
    t0 = time.time()
    q = build_coloring_qubo(P5, 2)
    record = assisted_reverse_anneal(
        q, StatevectorBackend(), resolve_schedule("steep"), s_prime=0.44,
        forward_shots=5, max_cycles=50, seed=0,
        forward_time_scale=0.02, ra_time_scale=0.25, shots_per_cycle=5)
    dt = time.time() - t0
    ok = (record.forward["valid_count"] == 0
          and record.outcome == OUTCOME_RA
          and len(record.cycles) <= 50
          and dt < 60.0)
    report(8, ok,
           f"forward 0/{record.forward['count']} valid, outcome {record.outcome} "
           f"after {len(record.cycles)} cycles, {dt:.1f}s")


def test_criterion_09_assisted_beats_random_seeding(tmp_path):
    config = ExperimentConfig(
        n_vertices=5, p=0.5, count=20, seed=0, backend="svmc", schedule="steep",
        s_grid=tuple(reverse_distance_grid()), forward_shots=8, ra_samples=3,
        svmc_sweeps=150, svmc_beta=30.0, out_dir=str(tmp_path))
    rows = baseline_run(config, tmp_path)
    assisted = {r["s_prime"]: r["avg_valid"] for r in rows
                if r["series"] == "best_bitstring"}
    random_arm = {r["s_prime"]: r["avg_valid"] for r in rows
                  if r["series"] == "random_bitstring"}
    contested = {sp for sp in assisted if assisted[sp] > 0 or random_arm[sp] > 0}
    violations = [sp for sp in contested if assisted[sp] < random_arm[sp]]
    report(9, len(contested) > 0 and not violations,
           f"20 instances, {len(contested)}/{len(assisted)} grid points contested, "
           f"assisted >= random at all of them (violations: {violations})")


def schema_shape(obj):
    if isinstance(obj, dict):
        return {k: schema_shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [schema_shape(obj[0])] if obj else []
    return type(obj).__name__


def test_criterion_10_svmc_substitutes_at_scale(tmp_path):
    big = generate_er(15, 0.5, [55, 0])
    k = greedy_color_largest_first(big)[0]
    assert big.n_vertices * k >= 30
    config = ExperimentConfig(
        n_vertices=15, p=0.5, count=1, seed=55, backend="svmc", schedule="steep",
        s_grid=(0.44, 0.72), forward_shots=5, ra_samples=2, svmc_sweeps=100,
        out_dir=str(tmp_path / "big"))
    rows = sweep_reverse_distance(config, tmp_path / "big")
    big_recs = [json.loads(line) for line in
                (tmp_path / "big" / "sweep_records.jsonl").read_text().splitlines()]

    small_cfg = ExperimentConfig(
        n_vertices=4, p=0.5, count=1, seed=3, backend="statevector",
        schedule="steep", s_grid=(0.44, 0.72), forward_shots=5, ra_samples=2,
        out_dir=str(tmp_path / "small"))
    sweep_reverse_distance(small_cfg, tmp_path / "small")
    small_recs = [json.loads(line) for line in
                  (tmp_path / "small" / "sweep_records.jsonl").read_text().splitlines()]
    schema_ok = all(schema_shape(r) == schema_shape(small_recs[0]) for r in big_recs)
    n_vars_ok = all(r["n_vars"] >= 30 and r["backend_kind"] == "svmc" for r in big_recs)

    q = build_coloring_qubo(P5, 2)
    backend = SvmcBackend(sweeps_per_waypoint=500, beta=10.0)
    shots = backend.forward(q, resolve_schedule("linear"), total_time=100.0, shots=100, seed=11)
    n_valid = sum(s.valid for s in shots)
    report(10, schema_ok and n_vars_ok and len(rows) == 2 and n_valid >= 50,
           f"{big_recs[0]['n_vars']}-variable sweep matches small-run record schema; "
           f"planar-rotor forward validity {n_valid}/100")


def test_criterion_11_manifest_replay_is_bit_exact(tmp_path):
    first = tmp_path / "first"
    argv = ["sweep", "--n-vertices", "4", "--count", "2", "--seed", "21",
            "--backend", "svmc", "--schedule", "steep", "--s-grid", "0.44",
            "--forward-shots", "4", "--ra-samples", "2", "--svmc-sweeps", "30",
            "--out", str(first)]
    assert cli_entry(argv) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    replay = tmp_path / "replay"
    assert cli_entry(["sweep", "--config", str(first / "manifest.json"),
                      "--out", str(replay)]) == 0
    differing = [name for name in manifest["outputs"]
                 if (first / name).read_bytes() != (replay / name).read_bytes()]
    report(11, manifest["outputs"] and not differing,
           f"{len(manifest['outputs'])} output files byte-identical on replay "
           f"(mismatches: {differing})")
