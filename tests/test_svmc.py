"""Rotor-sampler checks. Thresholds here are calibration artifacts, not
physics claims; they were fixed once against the brute-force oracle."""

import numpy as np
import pytest

from annealab.coloring_qubo import IsingProblem, brute_force_solve, build_coloring_qubo, qubo_to_ising
from annealab.dynamics import anneal
from annealab.graphs import path_graph
from annealab.schedules import AnnealPath, linear_schedule, make_forward_path, make_reverse_path, steep_schedule
from annealab.spectrum import build_problem_diagonal
from annealab.svmc import svmc_run


def p5_ising():
    return qubo_to_ising(build_coloring_qubo(path_graph(5), 2))


def test_single_spin_ground_state_from_field_sign():
    one = IsingProblem(1, (-1.0,), (), 0.0)
    out = svmc_run(one, linear_schedule(), make_forward_path(1.0),
                   sweeps_per_waypoint=200, beta=50.0, seed=1)
    assert out.bits == "0"
    assert out.energy == -1.0


def test_deterministic_per_seed():
    ising = p5_ising()
    a = svmc_run(ising, linear_schedule(), make_forward_path(1.0),
                 sweeps_per_waypoint=50, beta=10.0, seed=42)
    b = svmc_run(ising, linear_schedule(), make_forward_path(1.0),
                 sweeps_per_waypoint=50, beta=10.0, seed=42)
    assert a == b


def test_forward_validity_calibrated():
    # calibration artifact: >= 60% valid on P5/k=2 at these settings
    ising = p5_ising()
    path = make_forward_path(1.0)
    sched = linear_schedule()
    ok = sum(
        svmc_run(ising, sched, path, sweeps_per_waypoint=500, beta=10.0, seed=k).valid
        for k in range(50)
    )
    assert ok >= 30


def test_shallow_reverse_keeps_ground_bits_calibrated():
    # calibration artifact: driver weight at s' = 0.95 is (0.05)^4, far below
    # the thermal scale, so a cold chain should hold its seed
    q = build_coloring_qubo(path_graph(5), 2)
    ising = qubo_to_ising(q)
    _, grounds = brute_force_solve(q)
    seedbits = grounds[0]
    path = make_reverse_path(0.95, 1.0)
    stay = sum(
        svmc_run(ising, steep_schedule(), path, initial=seedbits,
                 sweeps_per_waypoint=300, beta=15.0, seed=k).bits == seedbits
        for k in range(40)
    )
    assert stay >= 38


def test_cold_chain_never_climbs_at_end_of_schedule():
    # with the driver off and beta huge, accepted moves cannot raise the
    # projected energy; final energy must not exceed the seed's
    q = build_coloring_qubo(path_graph(5), 2)
    ising = qubo_to_ising(q)
    start = "1111111111"
    e0 = q.energy(start)
    hold = AnnealPath(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    for seed in range(5):
        out = svmc_run(ising, linear_schedule(), hold, initial=start,
                       sweeps_per_waypoint=100, beta=1e3, seed=seed)
        assert out.energy <= e0


@pytest.mark.parametrize("sampler", ["svmc_run", "anneal"])
def test_initial_bitstring_guards(sampler):
    # both samplers apply AnnealPath.check_start, with the same messages
    q = build_coloring_qubo(path_graph(5), 2)
    problem = qubo_to_ising(q) if sampler == "svmc_run" else build_problem_diagonal(q)
    run = svmc_run if sampler == "svmc_run" else anneal
    with pytest.raises(ValueError, match="reverse path needs an initial bitstring"):
        run(problem, linear_schedule(), make_reverse_path(0.5, 1.0))
    with pytest.raises(ValueError, match="forward path takes no initial bitstring"):
        run(problem, linear_schedule(), make_forward_path(1.0), initial="0" * 10)
    with pytest.raises(ValueError, match="initial has 2 bits, problem has 10 variables"):
        run(problem, linear_schedule(), make_reverse_path(0.5, 1.0), initial="01")
