"""Statevector propagation checks: exact invariants first, statistics second."""

import math

import numpy as np
import pytest

from annealab.coloring_qubo import bits_to_index, build_coloring_qubo
from annealab.dynamics import (
    DRIFT_BOUND,
    SLOW_TIME_SCALE,
    IntegratorError,
    QuantumState,
    anneal,
    basis_state,
    driver_ground,
    energy_expectation,
    evolve,
    sample,
)
from annealab.graphs import Graph, complete_graph, path_graph
from annealab.schedules import (
    AnnealPath,
    linear_schedule,
    make_forward_path,
    make_reverse_path,
    steep_schedule,
)
from annealab.spectrum import apply_hamiltonian, build_problem_diagonal


def p5_diag(k=2):
    return build_problem_diagonal(build_coloring_qubo(path_graph(5), k))


def test_driver_ground_single_qubit():
    st = driver_ground(1)
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(st.amplitudes, [r, -r])


def test_driver_ground_signs_follow_bit_parity():
    st = driver_ground(3)
    assert np.isclose(np.linalg.norm(st.amplitudes), 1.0)
    for idx in range(8):
        expect = (-1) ** bin(idx).count("1") / math.sqrt(8)
        assert np.isclose(st.amplitudes[idx], expect)


def test_driver_ground_is_eigenstate_at_s_zero():
    # at s=0 the Hamiltonian is the bare driver; eigenvalue is -n
    diag = p5_diag()
    sched = linear_schedule()
    st = driver_ground(10)
    hpsi = apply_hamiltonian(0.0, sched, diag, st.amplitudes)
    assert np.allclose(hpsi, -10.0 * st.amplitudes, atol=1e-12)
    assert np.isclose(energy_expectation(0.0, sched, diag, st), -10.0)


def test_basis_state_energy_matches_diagonal():
    diag = p5_diag()
    sched = linear_schedule()
    bits = "0110100101"
    st = basis_state(bits)
    assert st.amplitudes[bits_to_index(bits)] == 1.0
    assert np.isclose(
        energy_expectation(1.0, sched, diag, st), diag.values[bits_to_index(bits)]
    )


def test_state_norm_is_validated():
    with pytest.raises(ValueError):
        QuantumState(1, np.array([1.0, 1.0]))


def test_sample_is_deterministic_and_unbiased():
    st = driver_ground(2)
    draws = sample(st, 100, seed=5)
    assert draws == sample(st, 100, seed=5)
    # all four outcomes carry probability 1/4; 5 sigma band on 10^5 shots
    big = sample(st, 100_000, seed=7)
    sigma = math.sqrt(0.25 * 0.75 / 100_000)
    for bits in ("00", "10", "01", "11"):
        freq = big.count(bits) / 100_000
        assert abs(freq - 0.25) < 5 * sigma


def test_pause_leaves_driver_ground_alone():
    diag = p5_diag()
    sched = linear_schedule()
    st = driver_ground(10)
    hold = AnnealPath(np.array([0.0, 30.0]), np.array([0.0, 0.0]))
    out = evolve(st, hold, sched, diag)
    e0 = energy_expectation(0.0, sched, diag, st)
    e1 = energy_expectation(0.0, sched, diag, out)
    assert abs(e1 - e0) < 1e-8
    # eigenstate picks up only a global phase
    assert np.isclose(abs(np.vdot(st.amplitudes, out.amplitudes)), 1.0, atol=1e-10)


def test_pause_conserves_energy_mid_spectrum():
    # a superposition held at fixed s keeps <H> to rounding precision
    diag = p5_diag()
    sched = steep_schedule()
    mix = (driver_ground(10).amplitudes + basis_state("0110011000").amplitudes) / math.sqrt(2.0)
    st = QuantumState(10, mix / np.linalg.norm(mix))
    hold = AnnealPath(np.array([0.0, 25.0]), np.array([0.44, 0.44]))
    out = evolve(st, hold, sched, diag)
    assert abs(
        energy_expectation(0.44, sched, diag, out)
        - energy_expectation(0.44, sched, diag, st)
    ) < 1e-8


def test_vanishing_duration_is_identity():
    diag = p5_diag()
    sched = linear_schedule()
    st = driver_ground(10)
    out = evolve(st, make_forward_path(1e-9), sched, diag)
    assert np.allclose(out.amplitudes, st.amplitudes, atol=1e-9)


def test_norm_drift_stays_within_bound():
    diag = p5_diag()
    sched = linear_schedule()
    out = evolve(driver_ground(10), make_forward_path(50.0), sched, diag)
    assert out.norm_drift <= DRIFT_BOUND


def test_reversed_path_undoes_evolution_up_to_conjugation():
    # evolving conj(psi1) along the mirrored path and conjugating recovers psi0
    diag = build_problem_diagonal(build_coloring_qubo(complete_graph(3), 2))
    sched = linear_schedule()
    path = make_forward_path(20.0)
    psi0 = driver_ground(6)
    psi1 = evolve(psi0, path, sched, diag)
    back = evolve(QuantumState(6, np.conj(psi1.amplitudes)), path.reversed(), sched, diag)
    assert np.max(np.abs(np.conj(back.amplitudes) - psi0.amplitudes)) < 1e-6


def test_forward_anneal_solves_single_vertex():
    g = Graph(1, ())
    diag = build_problem_diagonal(build_coloring_qubo(g, 1))
    out = anneal(diag, linear_schedule(), make_forward_path(20.0), shots=50, seed=3,
                 time_scale=SLOW_TIME_SCALE)
    assert sum(s.bits == "1" for s in out) == 50
    assert all(s.valid and s.energy == 0.0 for s in out)


def test_slow_forward_anneal_lands_on_proper_colorings():
    diag = p5_diag()
    out = anneal(
        diag, linear_schedule(), make_forward_path(100.0), shots=100, seed=11,
        time_scale=SLOW_TIME_SCALE,
    )
    assert sum(s.valid for s in out) >= 80


def test_shallow_reverse_anneal_returns_the_seed():
    diag = p5_diag()
    sched = steep_schedule()
    path = make_reverse_path(0.97, 1.0)
    out = anneal(diag, sched, path, "0101101010", shots=50, seed=2, time_scale=0.1)
    assert all(s.bits == "0101101010" for s in out)


def test_reverse_anneal_rejects_forward_path():
    diag = p5_diag()
    with pytest.raises(ValueError, match="forward path takes no initial"):
        anneal(diag, steep_schedule(), make_forward_path(10.0), "0" * 10)


def test_evolve_guards():
    diag = p5_diag()
    sched = linear_schedule()
    with pytest.raises(ValueError):
        evolve(driver_ground(4), make_forward_path(1.0), sched, diag)
    with pytest.raises(ValueError):
        evolve(driver_ground(10), make_forward_path(1.0), sched, diag, accuracy=0.0)
