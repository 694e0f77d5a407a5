from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealab.coloring_qubo import (
    IsingProblem,
    OneHotViolation,
    QuboProblem,
    Sample,
    bits_to_array,
    bits_to_index,
    build_coloring_qubo,
    decode,
    index_to_bits,
    qubo_to_ising,
    validate,
)
from annealab.graphs import Graph, generate_er, path_graph
from oracles import (
    all_bitstrings,
    brute_force_solve,
    complete_graph,
    cycle_graph,
    penalty_form_energy,
    proper_onehot_encodings,
)


def test_bits_helpers_roundtrip():
    assert index_to_bits(1, 3) == "100"
    assert index_to_bits(6, 3) == "011"
    for i in range(16):
        assert bits_to_index(index_to_bits(i, 4)) == i
    assert bits_to_array("0110").tolist() == [0, 1, 1, 0]


def test_energy_matches_penalty_form():
    rng = np.random.default_rng(0)
    for g, k in [(path_graph(5), 2), (complete_graph(3), 3), (generate_er(6, 0.5, 1), 3)]:
        q = build_coloring_qubo(g, k, penalty=1.7)
        for _ in range(50):
            bits = rng.integers(0, 2, size=q.n_vars)
            assert q.energy(bits) == pytest.approx(penalty_form_energy(g, k, 1.7, bits))


def test_energy_past_63_variables_matches_penalty_form():
    # 75 variables: more bits than a machine-integer basis index holds
    g = generate_er(25, 0.3, 4)
    q = build_coloring_qubo(g, 3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        bits = rng.integers(0, 2, size=q.n_vars)
        assert q.energy(bits) == penalty_form_energy(g, 3, 1.0, bits)
        assert q.energy("".join(map(str, bits))) == penalty_form_energy(g, 3, 1.0, bits)


def test_offset_and_all_zeros():
    g = generate_er(7, 0.4, 2)
    q = build_coloring_qubo(g, 3, penalty=2.5)
    assert q.offset == pytest.approx(2.5 * 7)
    # all-zeros pays exactly the one-hot penalty for every vertex
    assert q.energy(np.zeros(q.n_vars)) == pytest.approx(2.5 * 7)


def test_single_vertex_single_color():
    q = build_coloring_qubo(Graph(1), 1)
    assert q.energy([1]) == pytest.approx(0.0)
    assert q.energy([0]) == pytest.approx(1.0)
    assert brute_force_solve(q) == (0.0, ("1",))


def test_p5_two_coloring_ground_states():
    g = path_graph(5)
    q = build_coloring_qubo(g, 2)
    assert q.n_vars == 10
    ground, states = brute_force_solve(q)
    assert ground == pytest.approx(0.0)
    # a path admits exactly two proper 2-colorings
    assert len(states) == 2
    for s in states:
        assert validate(q, s)


def test_p5_first_excited_energy_is_one():
    q = build_coloring_qubo(path_graph(5), 2, penalty=1.0)
    energies = np.unique(np.round(q.energies(all_bitstrings(q.n_vars)), 9))
    assert energies[0] == pytest.approx(0.0)
    assert energies[1] == pytest.approx(1.0)


def test_k3_three_colors_six_grounds():
    ground, states = brute_force_solve(build_coloring_qubo(complete_graph(3), 3))
    assert ground == pytest.approx(0.0)
    assert len(states) == 6


def test_uncolorable_instances_have_positive_ground():
    for g in [complete_graph(3), cycle_graph(5)]:
        ground, _ = brute_force_solve(build_coloring_qubo(g, 2))
        assert ground == pytest.approx(1.0)


def test_ground_count_matches_chromatic_polynomial():
    # paths: k(k-1)^(n-1); cycles: (k-1)^n + (-1)^n (k-1); cliques: k!/(k-n)!
    cases = [
        (path_graph(4), 3, 3 * 2**3),
        (cycle_graph(4), 2, 1**4 + 1),
        (cycle_graph(5), 3, 2**5 - 2),
        (complete_graph(3), 3, 6),
    ]
    for g, k, expected in cases:
        _, states = brute_force_solve(build_coloring_qubo(g, k))
        assert len(states) == expected


def test_validate_equals_energy_zero_equals_combinatorial():
    g = generate_er(4, 0.5, 11)
    k = 3
    q = build_coloring_qubo(g, k)
    bits = all_bitstrings(q.n_vars)
    energies = q.energies(bits)
    valid_set = {i for i in range(1 << q.n_vars) if validate(q, bits[i])}
    zero_set = {i for i in range(1 << q.n_vars) if abs(energies[i]) < 1e-12}
    assert valid_set == zero_set == {bits_to_index(b) for b in proper_onehot_encodings(g, k)}


# random ER instances: vertex count, edge probability, seed, colors, penalty
instances = st.builds(
    lambda n, p, seed, k, penalty: build_coloring_qubo(generate_er(n, p, seed), k, penalty),
    st.integers(1, 6), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    st.integers(1, 3), st.floats(0.1, 10.0),
)


@settings(max_examples=100, deadline=None)
@given(q=instances, data=st.data())
def test_ising_conversion_energy_identity(q, data):
    ising = qubo_to_ising(q)
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=q.n_vars, max_size=q.n_vars)))
    assert ising.energy(1.0 - 2.0 * x) == pytest.approx(q.energy(x), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(q=instances, data=st.data())
def test_validate_agrees_with_scored_energy(q, data):
    # the combinatorial check and the energy-zero rule name the same samples
    bits = data.draw(st.text("01", min_size=q.n_vars, max_size=q.n_vars))
    assert validate(q, bits) == Sample(bits, q.energy(bits)).valid


def test_ising_single_variable():
    ising = qubo_to_ising(QuboProblem(n_vars=1, q=((0, 0, 3.0),)))
    assert ising.h[0] == pytest.approx(-1.5)
    assert ising.offset == pytest.approx(1.5)
    assert not ising.j
    # x = 0 maps to s = +1
    assert ising.energy([1.0]) == pytest.approx(0.0)


def test_decode_and_validate():
    g = path_graph(3)
    q = build_coloring_qubo(g, 2)
    assert decode(q, "100110") == {0: 0, 1: 1, 2: 0}
    assert validate(q, "100110")
    # monochromatic edge: decodes but is not proper
    assert decode(q, "101010") == {0: 0, 1: 0, 2: 0}
    assert not validate(q, "101010")
    # all-zeros: first violation reported at vertex 0
    viol = decode(q, "000000")
    assert viol == OneHotViolation(vertex=0, bits_set=0)
    # two bits set for vertex 1
    viol = decode(q, "101100")
    assert isinstance(viol, OneHotViolation) and viol.vertex == 1 and viol.bits_set == 2
    assert not validate(q, "110110")


@pytest.mark.parametrize("bits", ["10011011", "10011", ""])
def test_validate_rejects_wrong_length(bits):
    q = build_coloring_qubo(path_graph(3), 2)
    for problem in (q, replace(q, source=None)):
        with pytest.raises(ValueError, match="expected 6 bits"):
            validate(problem, bits)


def test_validate_without_source_uses_energy():
    q = replace(build_coloring_qubo(path_graph(3), 2), source=None)
    assert validate(q, "100110")
    assert not validate(q, "101010")


def test_sample_validity_boundary():
    assert Sample("0101", 1e-9).valid
    assert Sample("0101", -1e-9).valid
    assert not Sample("0101", 2e-9).valid


def test_sample_validity_is_its_energy():
    # a sample holds its bits and energy only, so no flag can contradict them
    assert [f.name for f in fields(Sample)] == ["bits", "energy"]
    with pytest.raises(TypeError):
        Sample("0101", 2e-9, True)
    assert not hasattr(Sample, "scored")


def test_guards():
    with pytest.raises(ValueError):
        build_coloring_qubo(path_graph(3), 0)
    with pytest.raises(ValueError):
        build_coloring_qubo(path_graph(3), 2, penalty=0.0)
    with pytest.raises(ValueError):
        all_bitstrings(25)
    with pytest.raises(ValueError):
        QuboProblem(n_vars=2, q=((1, 0, 1.0),))
    with pytest.raises(ValueError):
        IsingProblem(n_spins=2, h=(0.0,), j=())
    with pytest.raises(ValueError):
        brute_force_solve(QuboProblem(n_vars=25))


@pytest.mark.parametrize("call, match", [
    (lambda: QuboProblem(n_vars=0), "need at least one variable, got 0"),
    (lambda: QuboProblem(2, q=((0, 1, 1.0), (0, 1, 2.0))), r"duplicate entry \(0, 1\)"),
    (lambda: IsingProblem(2, (0.0, 0.0), ((1, 0, 1.0),)),
     r"coupling \(1, 0\) must satisfy 0 <= i < j < n_spins"),
    (lambda: decode(QuboProblem(2), "01"), "QUBO has no variable map"),
    (lambda: build_coloring_qubo(path_graph(3), 2, penalty=float("nan")),
     "penalty must be positive and finite, got nan"),
    (lambda: build_coloring_qubo(path_graph(2), 2).energy("2020"),
     "bits must be 0s and 1s, got '2020'"),
    (lambda: build_coloring_qubo(path_graph(2), 2).energy([0.5] * 4),
     r"bits must be 0s and 1s, got \[0.5, 0.5, 0.5, 0.5\]"),
    (lambda: decode(build_coloring_qubo(path_graph(2), 2), "2020"),
     "bits must be 0s and 1s, got '2020'"),
    (lambda: validate(build_coloring_qubo(path_graph(2), 2), np.array([0, 1, 2, 0])),
     r"bits must be 0s and 1s, got array\(\[0, 1, 2, 0\]\)"),
    (lambda: validate(replace(build_coloring_qubo(path_graph(2), 2), source=None), "01a0"),
     "bits must be 0s and 1s, got '01a0'"),
    (lambda: bits_to_array("0 10"), "bits must be 0s and 1s, got '0 10'"),
    (lambda: bits_to_index("2020"), "bits must be 0s and 1s, got '2020'"),
    (lambda: bits_to_index([0.5, 1]), r"bits must be 0s and 1s, got \[0.5, 1\]"),
], ids=["no-variables", "duplicate-entry", "coupling-order", "decode-without-map",
        "penalty-nan", "energy-digit-2", "energy-fraction", "decode-digit-2",
        "validate-array-2", "validate-no-source-letter", "bits-space", "index-digit-2",
        "index-fraction"])
def test_problems_refuse_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
