"""Rotor-sampler checks. Thresholds here are calibration artifacts, not
physics claims; they were fixed once against the brute-force oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealab.coloring_qubo import (
    IsingProblem,
    Sample,
    build_coloring_qubo,
    qubo_to_ising,
)
from annealab.dynamics import anneal
from annealab.graphs import path_graph
from annealab.schedules import AnnealPath, make_forward_path, make_reverse_path, resolve_schedule
from annealab.spectrum import build_problem_diagonal
from annealab.svmc import _SWEEP_BLOCK, DEFAULT_BETA, DEFAULT_SWEEPS_PER_WAYPOINT, svmc_run
from oracles import brute_force_solve


def p5_ising():
    return qubo_to_ising(build_coloring_qubo(path_graph(5), 2))


def test_single_spin_ground_state_from_field_sign():
    one = IsingProblem(1, (-1.0,), (), 0.0)
    out = svmc_run(one, resolve_schedule("linear"), make_forward_path(1.0),
                   sweeps_per_waypoint=200, beta=50.0, seed=1)
    assert out.bits == "0"
    assert out.energy == -1.0


def test_deterministic_per_seed():
    ising = p5_ising()
    a = svmc_run(ising, resolve_schedule("linear"), make_forward_path(1.0),
                 sweeps_per_waypoint=50, beta=10.0, seed=42)
    b = svmc_run(ising, resolve_schedule("linear"), make_forward_path(1.0),
                 sweeps_per_waypoint=50, beta=10.0, seed=42)
    assert a == b


def test_forward_validity_calibrated():
    # calibration artifact: >= 60% valid on P5/k=2 at these settings
    ising = p5_ising()
    path = make_forward_path(1.0)
    sched = resolve_schedule("linear")
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
        svmc_run(ising, resolve_schedule("steep"), path, initial=seedbits,
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
        out = svmc_run(ising, resolve_schedule("linear"), hold, initial=start,
                       sweeps_per_waypoint=100, beta=1e3, seed=seed)
        assert out.energy <= e0


@pytest.mark.parametrize("sampler", ["svmc_run", "anneal"])
def test_initial_bitstring_guards(sampler):
    # both samplers apply AnnealPath.check_start, with the same messages
    q = build_coloring_qubo(path_graph(5), 2)
    problem = qubo_to_ising(q) if sampler == "svmc_run" else build_problem_diagonal(q)
    run = svmc_run if sampler == "svmc_run" else anneal
    with pytest.raises(ValueError, match="reverse path needs an initial bitstring"):
        run(problem, resolve_schedule("linear"), make_reverse_path(0.5, 1.0))
    with pytest.raises(ValueError, match="forward path takes no initial bitstring"):
        run(problem, resolve_schedule("linear"), make_forward_path(1.0), initial="0" * 10)
    with pytest.raises(ValueError, match="initial has 2 bits, problem has 10 variables"):
        run(problem, resolve_schedule("linear"), make_reverse_path(0.5, 1.0), initial="01")
    with pytest.raises(ValueError, match="initial must be a string of 0s and 1s, got 'ab01"):
        run(problem, resolve_schedule("linear"), make_reverse_path(0.5, 1.0),
            initial="ab01" + "0" * 6)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
def test_non_positive_beta_is_rejected(beta):
    # NaN would make every Metropolis test accept, an infinite-temperature chain
    with pytest.raises(ValueError, match="need beta > 0"):
        svmc_run(p5_ising(), resolve_schedule("linear"), make_forward_path(1.0), beta=beta)


def _svmc_run_reference(
    ising,
    sched,
    path,
    initial=None,
    sweeps_per_waypoint=DEFAULT_SWEEPS_PER_WAYPOINT,
    beta=DEFAULT_BETA,
    seed=0,
) -> Sample:
    """The numpy-array sweep loop svmc_run replaced, kept as its oracle:
    one uniform(0, pi) proposal draw and one acceptance draw of n doubles
    per sweep, and a fancy-indexed local-field update per accepted move."""
    if sweeps_per_waypoint < 1:
        raise ValueError(f"need sweeps_per_waypoint >= 1, got {sweeps_per_waypoint}")
    if beta <= 0:
        raise ValueError(f"need beta > 0, got {beta}")
    n = ising.n_spins
    path.check_start(initial, n)
    if initial is None:
        theta = np.full(n, math.pi / 2.0)
    else:
        theta = np.array([0.0 if ch == "0" else math.pi for ch in initial])
    rng = np.random.default_rng(seed)

    h = np.asarray(ising.h, dtype=np.float64)
    nbr_idx: list[list[int]] = [[] for _ in range(n)]
    nbr_val: list[list[float]] = [[] for _ in range(n)]
    for i, j, v in ising.j:
        nbr_idx[i].append(j)
        nbr_val[i].append(v)
        nbr_idx[j].append(i)
        nbr_val[j].append(v)
    adj = [(np.array(ix, dtype=np.intp), np.array(vx)) for ix, vx in zip(nbr_idx, nbr_val)]

    m = np.cos(theta)  # z-components; their signs are the readout
    sin_t = np.sin(theta)
    z = h.copy()  # local fields h_i + sum_j J_ij m_j, kept incrementally
    for i, (ix, vx) in enumerate(adj):
        if ix.size:
            z[i] += float(np.dot(vx, m[ix]))

    total_sweeps = sweeps_per_waypoint * len(path.times)
    mids = (np.arange(total_sweeps) + 0.5) * (path.total_time / total_sweeps)
    s_ladder = path.s_of_t(mids)
    a_ladder = sched.a(s_ladder)
    b_ladder = sched.b(s_ladder)

    for sweep in range(total_sweeps):
        a_s = float(a_ladder[sweep])
        b_s = float(b_ladder[sweep])
        prop = rng.uniform(0.0, math.pi, n)
        accept_u = rng.random(n)
        cos_p = np.cos(prop)
        sin_p = np.sin(prop)
        for i in range(n):
            dm = cos_p[i] - m[i]
            d_e = a_s * z[i] * dm - b_s * (sin_p[i] - sin_t[i])
            if d_e > 0.0 and accept_u[i] >= math.exp(-beta * d_e):
                continue
            m[i] = cos_p[i]
            sin_t[i] = sin_p[i]
            ix, vx = adj[i]
            if ix.size:
                z[ix] += vx * dm

    # bit 0 (spin +1) iff cos(theta) >= 0
    spins = np.where(m >= 0.0, 1.0, -1.0)
    bits = "".join("0" if sp > 0 else "1" for sp in spins)
    return Sample(bits, float(ising.energy(spins)))


# fields and couplings include exact zeros; a spin with no coupling is isolated
_weights = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@st.composite
def _isings(draw):
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          unique=True)) if n > 1 else []
    return IsingProblem(n, tuple(draw(_weights) for _ in range(n)),
                        tuple((i, j, draw(_weights)) for i, j in sorted(pairs)),
                        draw(st.floats(-2.0, 2.0)))


@st.composite
def _path_and_initial(draw, n):
    """A forward, reverse or custom path with the initial it must take."""
    bits = st.text("01", min_size=n, max_size=n)
    total_time = draw(st.floats(0.1, 100.0))
    kind = draw(st.sampled_from(["forward", "reverse", "custom"]))
    if kind == "forward":
        return make_forward_path(total_time), None
    if kind == "reverse":
        return make_reverse_path(draw(st.floats(0.01, 0.99)), total_time), draw(bits)
    steps = draw(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5))
    svals = draw(st.lists(st.floats(0.0, 1.0), min_size=len(steps) + 1,
                          max_size=len(steps) + 1))
    path = AnnealPath(np.concatenate([[0.0], np.cumsum(steps)]), np.array(svals))
    return path, draw(st.one_of(st.none(), bits))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ising=_isings(),
       sched=st.sampled_from([resolve_schedule("linear"), resolve_schedule("steep")]),
       sweeps=st.sampled_from([1, 2, 3, 4, 5, _SWEEP_BLOCK + 1]),
       beta=st.floats(0.01, 1e3), seed=st.integers(0, 2**32 - 1))
def test_svmc_run_matches_array_loop_reference(data, ising, sched, sweeps, beta, seed):
    # the float loop must reproduce the array loop's Sample exactly, bits and energy
    path, initial = data.draw(_path_and_initial(ising.n_spins))
    kwargs = dict(initial=initial, sweeps_per_waypoint=sweeps, beta=beta, seed=seed)
    assert svmc_run(ising, sched, path, **kwargs) == \
        _svmc_run_reference(ising, sched, path, **kwargs)


def test_svmc_run_refuses_zero_sweeps():
    ising = qubo_to_ising(build_coloring_qubo(path_graph(2), 2))
    with pytest.raises(ValueError, match="need sweeps_per_waypoint >= 1, got 0"):
        svmc_run(ising, resolve_schedule("linear"), make_forward_path(1.0), sweeps_per_waypoint=0)
