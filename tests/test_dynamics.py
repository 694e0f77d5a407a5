"""Statevector propagation checks: exact invariants first, statistics second."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from annealab import dynamics
from annealab.coloring_qubo import bits_to_index, build_coloring_qubo, index_to_bits, validate
from annealab.dynamics import (
    BESSEL_TAIL,
    DRIFT_BOUND,
    SLOW_TIME_SCALE,
    IntegratorError,
    QuantumState,
    _bessel_series,
    _chebyshev_exp,
    anneal,
    basis_state,
    driver_ground,
    evolve,
    sample,
)
from annealab.experiments import ExperimentConfig, instance
from annealab.graphs import Graph, path_graph
from annealab.schedules import (
    AnnealPath,
    make_forward_path,
    make_reverse_path,
    resolve_schedule,
    reverse_distance_grid,
)
from annealab.spectrum import build_problem_diagonal, driver_apply
from oracles import (
    SPECIAL_ENTRIES,
    _driver_apply_loop,
    _state,
    apply_hamiltonian,
    assert_same_bytes,
    complete_graph,
    energy_expectation,
    evolve_midpoint,
    evolve_reference,
    reversed_path,
)


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
    sched = resolve_schedule("linear")
    st = driver_ground(10)
    hpsi = apply_hamiltonian(0.0, sched, diag, st.amplitudes)
    assert np.allclose(hpsi, -10.0 * st.amplitudes, atol=1e-12)
    assert np.isclose(energy_expectation(0.0, sched, diag, st), -10.0)


def test_basis_state_energy_matches_diagonal():
    diag = p5_diag()
    sched = resolve_schedule("linear")
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
    sched = resolve_schedule("linear")
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
    sched = resolve_schedule("steep")
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
    sched = resolve_schedule("linear")
    st = driver_ground(10)
    out = evolve(st, make_forward_path(1e-9), sched, diag)
    assert np.allclose(out.amplitudes, st.amplitudes, atol=1e-9)


def test_norm_drift_stays_within_bound():
    diag = p5_diag()
    sched = resolve_schedule("linear")
    out = evolve(driver_ground(10), make_forward_path(50.0), sched, diag)
    assert out.norm_drift <= DRIFT_BOUND


def test_reversed_path_undoes_evolution_up_to_conjugation():
    # evolving conj(psi1) along the mirrored path and conjugating recovers psi0
    diag = build_problem_diagonal(build_coloring_qubo(complete_graph(3), 2))
    sched = resolve_schedule("linear")
    path = make_forward_path(20.0)
    psi0 = driver_ground(6)
    psi1 = evolve(psi0, path, sched, diag)
    back = evolve(QuantumState(6, np.conj(psi1.amplitudes)), reversed_path(path), sched, diag)
    assert np.max(np.abs(np.conj(back.amplitudes) - psi0.amplitudes)) < 1e-6


def test_forward_anneal_solves_single_vertex():
    g = Graph(1, ())
    diag = build_problem_diagonal(build_coloring_qubo(g, 1))
    out = anneal(diag, resolve_schedule("linear"), make_forward_path(20.0), shots=50, seed=3,
                 time_scale=SLOW_TIME_SCALE)
    assert sum(s.bits == "1" for s in out) == 50
    assert all(s.valid and s.energy == 0.0 for s in out)


def test_slow_forward_anneal_lands_on_proper_colorings():
    diag = p5_diag()
    out = anneal(
        diag, resolve_schedule("linear"), make_forward_path(100.0), shots=100, seed=11,
        time_scale=SLOW_TIME_SCALE,
    )
    assert sum(s.valid for s in out) >= 80


def test_shallow_reverse_anneal_returns_the_seed():
    diag = p5_diag()
    sched = resolve_schedule("steep")
    path = make_reverse_path(0.97, 1.0)
    out = anneal(diag, sched, path, "0101101010", shots=50, seed=2, time_scale=0.1)
    assert all(s.bits == "0101101010" for s in out)


def test_reverse_anneal_rejects_forward_path():
    diag = p5_diag()
    with pytest.raises(ValueError, match="forward path takes no initial"):
        anneal(diag, resolve_schedule("steep"), make_forward_path(10.0), "0" * 10)


def test_evolve_guards():
    diag = p5_diag()
    sched = resolve_schedule("linear")
    with pytest.raises(ValueError):
        evolve(driver_ground(4), make_forward_path(1.0), sched, diag)
    with pytest.raises(ValueError):
        evolve(driver_ground(10), make_forward_path(1.0), sched, diag, accuracy=0.0)


def _chebyshev_exp_reference(diag_vals, a, b, lo, hi, psi, dt):
    """exp(-i H dt) psi for H = a*diag + b*sum_j sigma^x_j with spectrum in [lo, hi]."""
    center = 0.5 * (hi + lo)
    radius = 0.5 * (hi - lo) + 1e-12
    alpha = radius * dt
    n_terms = int(alpha + 4.0 * (alpha + 1.0) ** (1.0 / 3.0) + 24.0)
    while abs(jv(n_terms, alpha)) > 1e-15 or abs(jv(n_terms - 1, alpha)) > 1e-15:
        n_terms += 16
    ks = np.arange(n_terms + 1)
    coefs = 2.0 * (-1j) ** ks * jv(ks, alpha)
    coefs[0] *= 0.5
    shifted = (a * diag_vals - center) / radius
    scale = b / radius

    def hmv(x):
        out = shifted * x
        if b != 0.0:
            out += scale * driver_apply(x)
        return out

    t_prev = psi.astype(np.complex128, copy=True)
    acc = coefs[0] * t_prev
    t_cur = hmv(t_prev)
    acc += coefs[1] * t_cur
    for k in range(2, n_terms + 1):
        t_next = 2.0 * hmv(t_cur) - t_prev
        acc += coefs[k] * t_next
        t_prev, t_cur = t_cur, t_next
    return np.exp(-1j * center * dt) * acc


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), a=st.floats(0.0, 2.0),
       b=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       dt=st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-3, 40.0)))
def test_chebyshev_series_matches_reference_term_rule(data, n, a, b, dt):
    # the Bessel-tail term count drops only terms below 1e-15 from the
    # reference's longer series, on random diagonals, weights, steps and states
    vals = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=1 << n,
                                       max_size=1 << n)))
    re, im = (np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1 << n,
                                          max_size=1 << n))) for _ in range(2))
    psi = re + 1j * im
    norm = np.linalg.norm(psi)
    psi = psi / norm if norm > 0 else basis_state("0" * n).amplitudes
    lo, hi = a * vals.min() - b * n, a * vals.max() + b * n
    got = _chebyshev_exp(vals, a, b, lo, hi, psi, dt)
    want = _chebyshev_exp_reference(vals, a, b, lo, hi, psi, dt)
    assert np.max(np.abs(got - want)) <= 1e-13


def _dropped_tail(alpha, m):
    """2 sum_{k>m} |J_k(alpha)| from scipy's jv, summed exactly, until the
    orders are past alpha (where they decrease) and below 1e-40."""
    terms, k = [], m + 1
    while True:
        block = np.abs(jv(np.arange(k, k + 64), alpha))
        terms += block.tolist()
        k += 64
        if k > alpha + 1 and block[-1] < 1e-40:
            return 2.0 * math.fsum(terms)


@settings(max_examples=200, deadline=None)
@given(alpha=st.one_of(st.just(0.0), st.floats(0.0, 1e-300, allow_subnormal=True),
                       st.floats(1e-300, 1e-3), st.integers(1, 500).map(float),
                       st.floats(0.0, 500.0)))
def test_bessel_series_stops_at_the_first_order_whose_dropped_tail_is_within_bound(alpha):
    # each kept order is scipy's J_k; the dropped tail bounds the 2-norm
    # error of the exponential, since every |T_k(H')psi| <= 1
    series = _bessel_series(alpha)
    m, floor = series.size - 1, max(1, int(alpha))
    assert m >= floor
    assert np.array_equal(series, jv(np.arange(m + 1), alpha))
    assert _dropped_tail(alpha, m) <= BESSEL_TAIL
    if m > floor:
        assert _dropped_tail(alpha, m - 1) > BESSEL_TAIL


def _chebyshev_exp_unbuffered(diag_vals, a, b, lo, hi, psi, dt):
    """The allocating recurrence _chebyshev_exp replaced, copied verbatim, on
    the loop driver."""
    driver_apply = _driver_apply_loop
    center = 0.5 * (hi + lo)
    radius = 0.5 * (hi - lo) + 1e-12
    alpha = radius * dt
    bessel = _bessel_series(alpha)
    n_terms = bessel.size - 1
    ks = np.arange(n_terms + 1)
    coefs = 2.0 * (-1j) ** ks * bessel
    coefs[0] *= 0.5
    shifted = (a * diag_vals - center) / radius
    scale = b / radius

    def hmv(x):
        out = shifted * x
        if b != 0.0:
            out += scale * driver_apply(x)
        return out

    t_prev = psi.astype(np.complex128, copy=True)
    acc = coefs[0] * t_prev
    t_cur = hmv(t_prev)
    acc += coefs[1] * t_cur
    for k in range(2, n_terms + 1):
        t_next = 2.0 * hmv(t_cur) - t_prev
        acc += coefs[k] * t_next
        t_prev, t_cur = t_cur, t_next
    return np.exp(-1j * center * dt) * acc


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), a=st.floats(0.0, 2.0, allow_subnormal=True),
       b=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       dt=st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-3, 40.0)))
def test_chebyshev_series_matches_unbuffered_recurrence_byte_for_byte(data, n, a, b, dt):
    # the in-place recurrence on the gather driver against the allocating one
    # on the loop driver; diagonal and amplitudes include signed zeros and
    # subnormals
    def entries(bound):
        return st.lists(st.one_of(st.sampled_from([v for v in SPECIAL_ENTRIES if abs(v) <= bound]),
                                  st.floats(-bound, bound, allow_subnormal=True)),
                        min_size=1 << n, max_size=1 << n)

    vals = np.array(data.draw(entries(5.0)))
    psi = _state(data.draw(entries(1.0)), data.draw(entries(1.0)))
    lo, hi = a * vals.min() - b * n, a * vals.max() + b * n
    got = _chebyshev_exp(vals, a, b, lo, hi, psi, dt)
    assert_same_bytes(got, _chebyshev_exp_unbuffered(vals, a, b, lo, hi, psi, dt))


def test_evolve_matches_reference_series_on_sweep_problem(monkeypatch):
    # the benchmark's 6-qubit sweep problem: forward, then reverse at each s'
    # of its grid, against evolve run on the reference series
    diag = build_problem_diagonal(instance(ExperimentConfig(n_vertices=3, count=1, k=2), 0))
    sched = resolve_schedule("steep")
    fwd = evolve(driver_ground(6), make_forward_path(100.0), sched, diag,
                 time_scale=SLOW_TIME_SCALE)
    seed = basis_state(index_to_bits(int(np.argmax(fwd.probabilities())), 6))
    runs = [(driver_ground(6), make_forward_path(100.0), SLOW_TIME_SCALE)]
    runs += [(seed, make_reverse_path(sp, 100.0), 1.0) for sp in (0.44, 0.72, 0.93)]
    got = [evolve(start, path, sched, diag, time_scale=ts) for start, path, ts in runs]
    monkeypatch.setattr(dynamics, "_MEMO", dynamics._Memo())
    monkeypatch.setattr(dynamics, "_chebyshev_exp", _chebyshev_exp_reference)
    for out, (start, path, ts) in zip(got, runs):
        want = evolve(start, path, sched, diag, time_scale=ts)
        assert np.max(np.abs(out.probabilities() - want.probabilities())) <= 1e-12
        assert out.norm_drift <= 1e-13


@pytest.fixture
def memo(monkeypatch):
    fresh = dynamics._Memo()
    monkeypatch.setattr(dynamics, "_MEMO", fresh)
    return fresh


def p2_diag():
    return build_problem_diagonal(build_coloring_qubo(path_graph(2), 2))


def test_evolve_memo_returns_one_read_only_state_for_equal_inputs(memo):
    diag, sched, path = p2_diag(), resolve_schedule("steep"), make_reverse_path(0.5, 10.0)
    first = evolve(basis_state("0110"), path, sched, diag, accuracy=0.05)
    again = evolve(QuantumState(4, basis_state("0110").amplitudes.copy()), path, sched, diag,
                   accuracy=0.05)
    assert again is first and len(memo) == 1
    assert not first.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        first.amplitudes[0] = 0.0


@pytest.mark.parametrize("change", ["amplitudes", "path", "accuracy", "time_scale"])
def test_evolve_memo_misses_on_any_changed_input(memo, change):
    diag, sched = p2_diag(), resolve_schedule("steep")
    base = dict(state=basis_state("0110"), path=make_reverse_path(0.5, 10.0),
                sched=sched, diag=diag, accuracy=0.05, time_scale=1.0)
    other = dict(base, **{"amplitudes": {"state": basis_state("1001")},
                          "path": {"path": make_reverse_path(0.6, 10.0)},
                          "accuracy": {"accuracy": 0.04},
                          "time_scale": {"time_scale": 2.0}}[change])
    first = evolve(**base)
    second = evolve(**other)
    assert second is not first and len(memo) == 2
    assert not np.array_equal(second.amplitudes, first.amplitudes)


def test_evolve_memo_evicts_least_recently_used_first(memo, monkeypatch):
    monkeypatch.setattr(dynamics, "MEMO_BYTES", 2 * 16 * (1 << 4))  # two 4-qubit states
    diag, sched, path = p2_diag(), resolve_schedule("steep"), make_reverse_path(0.5, 10.0)

    def run(bits):
        return evolve(basis_state(bits), path, sched, diag, accuracy=0.05)

    a, b = run("0110"), run("1001")
    assert run("0110") is a  # a is now the most recently used
    c = run("0101")  # evicts b
    assert len(memo) == 2 and memo.nbytes == dynamics.MEMO_BYTES
    assert run("0110") is a and run("0101") is c
    assert run("1001") is not b


def test_evolve_raises_when_the_norm_drifts_past_the_bound(monkeypatch):
    monkeypatch.setattr(dynamics, "DRIFT_BOUND", -1.0)
    monkeypatch.setattr(dynamics, "_MEMO", dynamics._Memo())
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(1), 2))
    with pytest.raises(IntegratorError, match="norm drift .* exceeds -1.0 on segment"):
        evolve(driver_ground(2), make_forward_path(1.0), resolve_schedule("linear"), diag)


def _guard_evolve(**kw):
    diag = p5_diag(1)
    return evolve(driver_ground(5), make_forward_path(1.0), resolve_schedule("linear"), diag, **kw)


@pytest.mark.parametrize("call, match", [
    (lambda: sample(driver_ground(2), shots=0, seed=0), "need shots >= 1, got 0"),
    (lambda: driver_ground(0), "need n >= 1, got 0"),
    (lambda: QuantumState(2, np.ones(3) / math.sqrt(3)), r"need 2\^2 amplitudes, got shape \(3,\)"),
    (lambda: _guard_evolve(accuracy=math.nan), "accuracy must be positive and finite, got nan"),
    (lambda: _guard_evolve(time_scale=math.nan), "time_scale must be positive and finite, got nan"),
    (lambda: evolve(driver_ground(5), make_forward_path(100.0), resolve_schedule("linear"),
                    p5_diag(1), time_scale=1e308),
     r"time_scale must be positive and finite, got 1e\+308 \(times 100\)"),
    (lambda: _guard_evolve(accuracy=1e-12),
     r"over 1e\+08 Chebyshev terms: lower time_scale \(1\) or raise accuracy \(1e-12\)"),
    (lambda: basis_state("2020"), "bits must be 0s and 1s, got '2020'"),
], ids=["sample-shots", "driver-ground", "state-length", "evolve-accuracy-nan",
        "evolve-time-scale-nan", "evolve-time-scale-overflow", "evolve-accuracy-tiny",
        "basis-state-digit-2"])
def test_dynamics_refuses_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _tv(x, y) -> float:
    return 0.5 * float(np.abs(x.probabilities() - y.probabilities()).sum())


def _sweep_problem():
    return build_problem_diagonal(instance(ExperimentConfig(n_vertices=3, count=1, k=2), 0))


@pytest.mark.parametrize("schedule", ["linear", "steep"])
def test_cf4_is_at_least_as_accurate_as_the_midpoint_rule(schedule):
    # the 6-qubit sweep problem: a slow forward and a reverse at every s' of
    # the grid, both rules against the midpoint rule at accuracy 1e-4
    diag, sched = _sweep_problem(), resolve_schedule(schedule)
    seed = basis_state(index_to_bits(int(np.argmin(diag.values)), 6))
    runs = [(driver_ground(6), make_forward_path(100.0), SLOW_TIME_SCALE)]
    runs += [(seed, make_reverse_path(sp, 100.0), 1.0) for sp in reverse_distance_grid()]
    for start, path, ts in runs:
        want = evolve_midpoint(start, path, sched, diag, accuracy=1e-4, time_scale=ts)
        cf4 = _tv(evolve(start, path, sched, diag, time_scale=ts), want)
        midpoint = _tv(evolve_midpoint(start, path, sched, diag, time_scale=ts), want)
        assert cf4 <= midpoint, (path.svals.min(), cf4, midpoint)


@pytest.mark.parametrize("schedule", ["linear", "steep"])
def test_halving_accuracy_cuts_the_error_at_least_tenfold(schedule):
    # fourth order (sixteenfold) across steep's rows: its kinks sit inside the
    # 0.05-wide steps, and the exact moments see them (H at the Gauss points
    # would not)
    diag, sched, path = _sweep_problem(), resolve_schedule(schedule), make_forward_path(5.0)
    want = evolve(driver_ground(6), path, sched, diag, accuracy=0.05 / 32)
    coarse, fine = (_tv(evolve(driver_ground(6), path, sched, diag, accuracy=acc), want)
                    for acc in (0.05, 0.025))
    assert 1e-8 < fine and coarse >= 10 * fine


def test_every_ramp_step_makes_two_factors(monkeypatch):
    # at many s' a step boundary lands within an ulp of one of steep's rows
    # (s' 0.31 at the default accuracy), where the sliver between them can
    # round onto the next step; taking the steps in blocks of 3 gives the same
    # factors
    sched = resolve_schedule("steep")
    ramps = [(s0, s1) for sp in np.round(np.arange(0.01, 1.0, 0.01), 2)
             for _, _, s0, s1 in make_reverse_path(float(sp), 100.0).segments() if s0 != s1]
    for accuracy in (0.01, 0.005, 0.002):
        for s0, s1 in ramps:
            steps = math.ceil(abs(s1 - s0) / accuracy)
            assert len(list(dynamics._factors(sched, s0, s1, steps))) == 2 * steps
    whole = [list(dynamics._factors(sched, s0, s1, 57)) for s0, s1 in ramps[:20]]
    monkeypatch.setattr(dynamics, "STEP_BLOCK", 3)
    assert [list(dynamics._factors(sched, s0, s1, 57)) for s0, s1 in ramps[:20]] == whole


@pytest.mark.parametrize("path", [make_forward_path(20.0), make_reverse_path(0.44, 20.0)],
                         ids=["forward", "reverse"])
def test_mirrored_path_gives_the_transposed_propagator(path):
    # every factor is real symmetric, and the mirrored path applies them in
    # reverse order, so <x|U|y> = <y|U_mirror|x>
    diag, sched = _sweep_problem(), resolve_schedule("steep")
    mirror = reversed_path(path)
    for x, y in [("100110", "011001"), ("000000", "111111"), ("010101", "010101")]:
        forward = evolve(basis_state(y), path, sched, diag).amplitudes[bits_to_index(x)]
        back = evolve(basis_state(x), mirror, sched, diag).amplitudes[bits_to_index(y)]
        assert abs(abs(forward) ** 2 - abs(back) ** 2) <= 1e-12


@pytest.mark.parametrize("path", [
    make_forward_path(100.0),
    make_reverse_path(0.44, 100.0),
    AnnealPath(np.array([0.0, 100.0]), np.array([0.44, 0.44])),
], ids=["forward", "reverse", "pause"])
def test_evolve_refuses_a_plan_it_cannot_finish(memo, monkeypatch, path):
    # about 1e308 time units: refused before the first exponential
    calls = []
    monkeypatch.setattr(dynamics, "_chebyshev_exp", lambda *args: calls.append(args))
    start = driver_ground(10) if path.kind == "forward" else basis_state("0110100101")
    with pytest.raises(ValueError,
                       match=r"over 1e\+08 Chebyshev terms: lower time_scale \(1e\+306\)"):
        evolve(start, path, resolve_schedule("steep"), p5_diag(), time_scale=1e306)
    assert calls == [] and len(memo) == 0


def test_anneal_scores_each_draw_from_the_diagonal():
    diag, sched = p5_diag(), resolve_schedule("steep")
    path = make_reverse_path(0.44, 10.0)
    out = anneal(diag, sched, path, "0110100101", shots=200, seed=4)
    final = evolve(basis_state("0110100101"), path, sched, diag)
    assert [s.bits for s in out] == sample(final, 200, seed=4)
    assert all(s.energy == diag.values[bits_to_index(s.bits)] for s in out)


@pytest.mark.parametrize("path, time_scale, matvecs", [
    (make_forward_path(100.0), SLOW_TIME_SCALE, 15712),
    (make_reverse_path(0.44, 100.0), 1.0, 3323),
], ids=["forward", "reverse"])
def test_chebyshev_work_is_one_matvec_per_kept_order(memo, monkeypatch, path, time_scale,
                                                     matvecs):
    # the sweep problem on steep: one driver matvec for every order past J_0
    # of every exponential's series, and a pinned total, so a change to the
    # series length shows here
    diag, sched = _sweep_problem(), resolve_schedule("steep")
    orders, calls = [], []

    def series(alpha):
        out = _bessel_series(alpha)
        orders.append(out.size - 1)
        return out

    def matvec(x):
        calls.append(x.size)
        return driver_apply(x)

    monkeypatch.setattr(dynamics, "_bessel_series", series)
    monkeypatch.setattr(dynamics, "driver_apply", matvec)
    start = (driver_ground(6) if path.kind == "forward" else
             basis_state(index_to_bits(int(np.argmin(diag.values)), 6)))
    evolve(start, path, sched, diag, time_scale=time_scale)
    assert len(calls) == sum(orders) == matvecs


@functools.cache
def _reference_run(graph, schedule, s_prime, rtol=1e-12):
    """evolve and the ODE reference on one path of P3 or K3 at k = 2 (6
    qubits): the reverse path at s_prime from the lowest-ranked invalid
    state (first in (energy, bits) order), or, with s_prime None, the forward
    path from the driver ground state at time scale 8 (evolve's default is 1)."""
    q = build_coloring_qubo({"P3": path_graph(3), "K3": complete_graph(3)}[graph], 2)
    diag, sched = build_problem_diagonal(q), resolve_schedule(schedule)
    if s_prime is None:
        start, path, ts = driver_ground(6), make_forward_path(100.0), SLOW_TIME_SCALE
    else:
        ranked = sorted((float(e), index_to_bits(x, 6)) for x, e in enumerate(diag.values))
        low = next(bits for _, bits in ranked if not validate(q, bits))
        start, path, ts = basis_state(low), make_reverse_path(s_prime, 100.0), 1.0
    return (evolve(start, path, sched, diag, time_scale=ts),
            evolve_reference(start, path, sched, diag, time_scale=ts, rtol=rtol))


# each reference solve on a reverse path takes about 0.2 s and on a forward
# path 1-2 s, so each case runs on one graph: P3 at s' 0.30, K3 at s' 0.44
# and on the forward path
@pytest.mark.parametrize("schedule", ["linear", "steep"])
@pytest.mark.parametrize("graph, s_prime", [("P3", 0.30), ("K3", 0.44)])
def test_evolve_agrees_with_an_independent_ode_reference_on_reverse_paths(graph, s_prime,
                                                                          schedule):
    # measured: P3 1.1e-6 (linear) and 5.4e-7 (steep), K3 4.2e-6 and 2.1e-7
    got, want = _reference_run(graph, schedule, s_prime)
    assert _tv(got, want) <= 1e-5


@pytest.mark.parametrize("schedule", ["linear", "steep"])
def test_evolve_agrees_with_an_independent_ode_reference_on_slow_forward_paths(schedule):
    # measured: 6.6e-5 (linear) and 1.07e-4 (steep)
    got, want = _reference_run("K3", schedule, None)
    assert _tv(got, want) <= 3e-4


@pytest.mark.parametrize("schedule", ["linear", "steep"])
@pytest.mark.parametrize("s_prime", [0.44, None], ids=["reverse", "forward"])
def test_the_ode_reference_agrees_with_itself_at_a_looser_tolerance(s_prime, schedule):
    # measured: reverse 6.4e-11 (linear) and 1.8e-12 (steep), forward 1.06e-9
    # and 3.7e-10
    _, tight = _reference_run("K3", schedule, s_prime)
    _, loose = _reference_run("K3", schedule, s_prime, rtol=1e-10)
    assert _tv(tight, loose) <= 3e-9
