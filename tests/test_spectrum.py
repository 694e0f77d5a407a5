import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, aslinearoperator, eigsh
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from annealab.coloring_qubo import QuboProblem, build_coloring_qubo
from annealab.graphs import Graph, automorphisms, generate_er, path_graph
from annealab import spectrum
from annealab.schedules import resolve_schedule
from annealab.spectrum import (
    GATHER_BLOCK,
    SpectrumError,
    SpectrumTable,
    build_problem_diagonal,
    driver_apply,
    lowest_eigenvalues,
    min_gap,
    spectrum_sweep,
)
from oracles import (
    SPECIAL_ENTRIES,
    _driver_apply_loop,
    _state,
    all_bitstrings,
    apply_hamiltonian,
    assert_same_bytes,
    brute_force_solve,
    complete_graph,
    dense_hamiltonian,
    diagonal_symmetry_count,
    penalty_form_energy,
)

LIN = resolve_schedule("linear")


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), p=st.floats(0.0, 1.0), seed=st.integers(0, 1000),
       k=st.integers(1, 3), penalty=st.sampled_from((0.5, 1.0, 1.4, 1.7)))
def test_diagonal_matches_energy_enumeration(n, p, seed, k, penalty):
    g = generate_er(n, p, seed)
    q = build_coloring_qubo(g, k, penalty=penalty)
    diag = build_problem_diagonal(q)
    expected = [penalty_form_energy(g, k, penalty, x) for x in all_bitstrings(q.n_vars)]
    assert np.allclose(diag.values, expected, rtol=0.0, atol=1e-12)


def test_diagonal_p5_zero_count_and_minimum():
    q = build_coloring_qubo(path_graph(5), 2)
    diag = build_problem_diagonal(q)
    assert int(np.sum(np.abs(diag.values) < 1e-12)) == 2
    ground, _ = brute_force_solve(q)
    assert diag.values.min() == pytest.approx(ground)


def test_diagonal_single_vertex():
    q = build_coloring_qubo(Graph(1), 1)
    diag = build_problem_diagonal(q)
    # index 0 = x=0 (pays penalty), index 1 = x=1
    assert diag.values.tolist() == [1.0, 0.0]


def test_diagonal_cap():
    g = generate_er(11, 0.5, 0)
    with pytest.raises(ValueError, match="capped"):
        build_problem_diagonal(build_coloring_qubo(g, 2))


def test_driver_apply_on_basis_state():
    n = 4
    state = np.zeros(1 << n)
    state[5] = 1.0  # bits 1010
    out = driver_apply(state)
    expect = np.zeros(1 << n)
    for j in range(n):
        expect[5 ^ (1 << j)] = 1.0
    assert np.array_equal(out, expect)


ENTRIES = st.one_of(st.sampled_from(SPECIAL_ENTRIES),
                    st.floats(-1e3, 1e3, allow_subnormal=True))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), is_complex=st.booleans())
def test_driver_apply_matches_loop_byte_for_byte(data, n, is_complex):
    state = _state(*(data.draw(arrays(np.float64, 1 << n, elements=ENTRIES, fill=st.nothing()))
                     for _ in range(1 + is_complex)))
    assert_same_bytes(driver_apply(state), _driver_apply_loop(state))


def _special_state(rng, dim, dtype):
    """A random state with about 30 % of its entries from SPECIAL_ENTRIES."""
    parts = []
    for _ in range(1 if dtype is np.float64 else 2):
        x = rng.standard_normal(dim)
        spots = rng.random(dim) < 0.3
        x[spots] = rng.choice(SPECIAL_ENTRIES, size=int(spots.sum()))
        parts.append(x)
    return _state(*parts)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("dim", [GATHER_BLOCK, 2 * GATHER_BLOCK])
def test_driver_apply_matches_loop_across_gather_blocks(dim, dtype):
    # exactly one gather block, then the first size that takes two
    rng = np.random.default_rng(dim)
    for state in (_special_state(rng, dim, dtype), np.full(dim, -0.0, dtype=dtype)):
        assert_same_bytes(driver_apply(state), _driver_apply_loop(state))


def test_a_driver_plan_never_serves_another_size():
    # plans are cached by state size: interleaved sizes, one and two gather
    # blocks, the first size again, real and complex
    rng = np.random.default_rng(7)
    for n in (7, 13, 6, 12, 7):
        for dtype in (np.float64, np.complex128):
            state = _special_state(rng, 1 << n, dtype)
            assert_same_bytes(driver_apply(state), _driver_apply_loop(state))


def test_driver_apply_allocates_at_most_two_and_a_half_states():
    state = np.random.default_rng(0).standard_normal(1 << 16).astype(np.complex128)
    driver_apply(state)  # builds the cached flip table outside the measurement
    tracemalloc.start()
    try:
        driver_apply(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * state.nbytes


def test_apply_hamiltonian_matches_dense():
    g = generate_er(3, 0.6, 7)
    q = build_coloring_qubo(g, 2)
    diag = build_problem_diagonal(q)
    rng = np.random.default_rng(1)
    for s in (0.0, 0.3, 0.8, 1.0):
        h = dense_hamiltonian(s, LIN, diag)
        for _ in range(5):
            v = rng.standard_normal(1 << q.n_vars) + 1j * rng.standard_normal(1 << q.n_vars)
            assert np.allclose(apply_hamiltonian(s, LIN, diag, v), h @ v, atol=1e-12)


def test_apply_hamiltonian_endpoints():
    q = build_coloring_qubo(path_graph(3), 2)
    diag = build_problem_diagonal(q)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(1 << q.n_vars)
    assert np.allclose(apply_hamiltonian(1.0, LIN, diag, v), diag.values * v)
    basis = np.zeros(1 << q.n_vars)
    basis[9] = 1.0
    out = apply_hamiltonian(0.0, LIN, diag, basis)
    assert out[9] == 0.0
    assert np.count_nonzero(out) == q.n_vars


def test_apply_hamiltonian_refuses_a_state_of_the_wrong_shape():
    diag = build_problem_diagonal(QuboProblem(2))
    with pytest.raises(ValueError, match=r"state shape \(8,\) does not match \(4,\)"):
        apply_hamiltonian(0.5, LIN, diag, np.zeros(8))


def test_hermiticity():
    q = build_coloring_qubo(generate_er(4, 0.5, 9), 2)
    diag = build_problem_diagonal(q)
    rng = np.random.default_rng(3)
    dim = 1 << q.n_vars
    for s in (0.2, 0.7):
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lhs = np.vdot(u, apply_hamiltonian(s, LIN, diag, v))
        rhs = np.conj(np.vdot(v, apply_hamiltonian(s, LIN, diag, u)))
        assert abs(lhs - rhs) < 1e-10


def test_driver_ladder_at_s_zero():
    # eigenvalues of +sum sigma^x: n - 2k with multiplicity C(n, k)
    q = build_coloring_qubo(path_graph(3), 2)
    diag = build_problem_diagonal(q)
    vals = lowest_eigenvalues(0.0, LIN, diag, m=8)
    assert vals[0] == pytest.approx(-6.0, abs=1e-9)
    expect = sorted([6 - 2 * k for k in range(7) for _ in range(math.comb(6, k))])[:8]
    assert np.allclose(vals, expect, atol=1e-8)


def test_s1_spectrum_equals_sorted_energies():
    g = generate_er(5, 0.5, 4)
    q = build_coloring_qubo(g, 2)
    diag = build_problem_diagonal(q)
    vals = lowest_eigenvalues(1.0, LIN, diag, m=12)
    expect = np.sort(diag.values)[:12]
    assert np.allclose(vals, expect, atol=1e-9)


def test_dense_matches_full_diagonalization():
    q = build_coloring_qubo(generate_er(4, 0.6, 5), 2)
    diag = build_problem_diagonal(q)
    for s in (0.25, 0.6):
        vals = lowest_eigenvalues(s, LIN, diag, m=10)
        full = np.linalg.eigvalsh(dense_hamiltonian(s, LIN, diag))
        assert np.allclose(vals, full[:10], atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
       s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       schedule=st.sampled_from(["linear", "steep"]))
def test_sector_split_matches_full_diagonalization(data, k, p, seed, s, schedule):
    # m ranges up to the full dimension, past every sector's size
    g = generate_er(data.draw(st.integers(1, 9 // k), label="n_vertices"), p, seed)
    diag = build_problem_diagonal(build_coloring_qubo(g, k))
    sched = resolve_schedule(schedule)
    m = data.draw(st.integers(1, 1 << diag.n_qubits), label="m")
    full = np.linalg.eigvalsh(dense_hamiltonian(s, sched, diag))
    assert np.allclose(lowest_eigenvalues(s, sched, diag, m), full[:m], rtol=0.0, atol=1e-9)


def _group(gens, dim):
    group = [np.arange(dim)]
    for g in gens:
        group += [e[g] for e in group]
    return group


def _block_permutation(order, k, n):
    """Basis index map that moves the k bits of block v to block order[v], bit by bit."""
    out = np.zeros(1 << n, dtype=np.int64)
    for x in range(1 << n):
        for bit in range(n):
            if x >> bit & 1:
                v, c = divmod(bit, k)
                out[x] |= 1 << (order[v] * k + c)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_symmetries_are_commuting_involutions_that_keep_the_diagonal(data, k, p, seed):
    g = generate_er(data.draw(st.integers(1, 9 // k), label="n_vertices"), p, seed)
    diag = build_problem_diagonal(build_coloring_qubo(g, k))
    dim = 1 << diag.n_qubits
    x = np.arange(dim)
    gens = diag.symmetries
    for i, perm in enumerate(gens):
        assert np.array_equal(perm[perm], x) and not np.array_equal(perm, x)
        assert np.array_equal(diag.values[perm], diag.values)
        assert all(np.array_equal(perm[h], h[perm]) for h in gens[:i])
        assert not any(np.array_equal(perm, e) for e in _group(gens[:i], dim))
    assert sum(h.shape[0] for h in diag.sectors) == dim


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_orbit_table_labels_each_state_by_its_orbit_minimum(data, k, p, seed):
    # against the whole group, element t the product of the generators whose
    # bit is set in t
    g = generate_er(data.draw(st.integers(1, 12 // k), label="n_vertices"), p, seed)
    diag = build_problem_diagonal(build_coloring_qubo(g, k))
    dim = 1 << diag.n_qubits
    x = np.arange(dim)
    group = np.array(_group(diag.symmetries, dim))
    labels, row, sizes, lift = diag.orbits
    smallest = group.min(axis=0)
    want_labels, want_sizes = np.unique(smallest, return_counts=True)
    assert np.array_equal(labels, want_labels) and np.array_equal(labels[row], smallest)
    assert np.array_equal(sizes, want_sizes) and sizes.sum() == dim
    # Burnside: the orbit count is the mean number of states an element fixes
    assert labels.size * len(group) == np.count_nonzero(group == x)
    assert np.array_equal(group[lift, x], smallest)


def test_relabelled_p5_finds_the_color_swap_and_the_reflection():
    relabel = [3, 0, 4, 1, 2]
    g = Graph(5, tuple((relabel[v], relabel[v + 1]) for v in range(4)))
    diag = build_problem_diagonal(build_coloring_qubo(g, 2))
    mirror = [0] * 5
    for v in range(5):
        mirror[relabel[v]] = relabel[4 - v]
    swap, reflection = diag.symmetries
    # swapping colors 0 and 1 at every vertex permutes the 1-bit blocks
    assert np.array_equal(swap, _block_permutation([1, 0, 3, 2, 5, 4, 7, 6, 9, 8], 1, 10))
    assert np.array_equal(reflection, _block_permutation(mirror, 2, 10))


def test_two_disjoint_edges_find_two_vertex_involutions():
    # the automorphisms of two disjoint edges form a dihedral group of order
    # 8; its largest subgroups of commuting involutions have order 4
    diag = build_problem_diagonal(build_coloring_qubo(Graph(4, ((0, 1), (2, 3))), 2))
    assert len(diag.symmetries) == 3
    assert len(diag.sectors) == 8
    dim = 1 << diag.n_qubits
    for s in (0.3, 0.6):
        full = np.linalg.eigvalsh(dense_hamiltonian(s, LIN, diag))
        assert np.allclose(lowest_eigenvalues(s, LIN, diag, dim), full, rtol=0.0, atol=1e-9)


def test_p5_at_one_color_splits_by_its_reflection(monkeypatch):
    # k = 1 has no color swap, but the path's reflection still keeps the
    # diagonal, and it is the only automorphism besides the identity
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(5), 1))
    assert len(diag.symmetries) == 1 and len(diag.sectors) == 2 and diag.multiplicity_free
    full = {s: np.linalg.eigvalsh(dense_hamiltonian(s, LIN, diag)) for s in (0.3, 0.6)}
    for limit in (spectrum.DENSE_SECTOR_STATES, 0):
        monkeypatch.setattr(spectrum, "DENSE_SECTOR_STATES", limit)
        for s, want in full.items():
            assert np.allclose(lowest_eigenvalues(s, LIN, diag, 32), want, rtol=0.0, atol=1e-9)


def test_dense_solve_at_the_smallest_normal_s():
    # a(s) = 2^-1022 puts the smallest normal double on the diagonal, where
    # LAPACK's partial solve of a 3-state sector stops with an internal error
    diag = build_problem_diagonal(build_coloring_qubo(Graph(1), 4))
    s = 2.0**-1022
    want = np.linalg.eigvalsh(dense_hamiltonian(s, LIN, diag))[:2]
    assert np.allclose(lowest_eigenvalues(s, LIN, diag, 2), want, rtol=0.0, atol=1e-9)


def _nudged(q, variables):
    """q with the linear term of each listed variable raised by 2^-30, which
    moves the energy of every state with that bit set, exactly."""
    return dataclasses.replace(q, q=tuple((i, j, v + 2**-30 if i == j and i in variables else v)
                                          for i, j, v in q.q))


@pytest.mark.parametrize("g, k", [(complete_graph(3), 3), (generate_er(4, 0.5, 1), 2),
                                  (generate_er(3, 0.7, 2), 3)])
def test_color_swap_refused_when_the_diagonal_breaks_it(g, k):
    q = build_coloring_qubo(g, k)
    diag = build_problem_diagonal(q)
    dim = 1 << diag.n_qubits
    swap = diag.symmetries[0]
    assert swap[1] == 2 and np.array_equal(diag.values[swap], diag.values)
    # every color swap moves bit 0 (vertex 0, color 0), so raising its
    # linear term breaks all of them. In each graph the swap of vertices 1
    # and 2 is the one involutive automorphism that fixes vertex 0, and it stays
    nudged = build_problem_diagonal(_nudged(q, {0}))
    (flip,) = nudged.symmetries
    order = [0, 2, 1, *range(3, g.n_vertices)]
    assert np.array_equal(flip, _block_permutation(order, k, diag.n_qubits))
    for s in (0.3, 0.6):
        full = np.linalg.eigvalsh(dense_hamiltonian(s, LIN, nudged))
        assert np.allclose(lowest_eigenvalues(s, LIN, nudged, dim), full, rtol=0.0, atol=1e-9)


def test_vertex_involution_refused_when_the_diagonal_breaks_it():
    # P3 at k = 2: the color swap and the reflection of vertices 0 and 2.
    # Raising the linear terms of both colors of vertex 0 keeps the swap and
    # breaks the reflection
    q = build_coloring_qubo(path_graph(3), 2)
    diag = build_problem_diagonal(q)
    swap, reflection = diag.symmetries
    assert np.array_equal(reflection, _block_permutation([2, 1, 0], 2, 6))
    nudged = build_problem_diagonal(_nudged(q, {0, 1}))
    assert len(nudged.symmetries) == 1 and np.array_equal(nudged.symmetries[0], swap)
    dim = 1 << diag.n_qubits
    for s in (0.3, 0.6):
        full = np.linalg.eigvalsh(dense_hamiltonian(s, LIN, nudged))
        assert np.allclose(lowest_eigenvalues(s, LIN, nudged, dim), full, rtol=0.0, atol=1e-9)


def test_dense_solve_holds_less_than_one_full_matrix():
    # each sector matrix has at most about half the full dimension, so at
    # most a quarter of its bytes, and eigh overwrites it instead of copying it
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(5), 2))
    tracemalloc.start()
    try:
        lowest_eigenvalues(0.5, LIN, diag, m=15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 1024 * 8


@pytest.mark.parametrize("s", [1.5, -0.2, math.nan])
def test_lowest_eigenvalues_refuses_s_outside_the_unit_interval(s):
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(3), 2))
    with pytest.raises(ValueError, match=r"s must be within \[0, 1\]"):
        lowest_eigenvalues(s, LIN, diag, m=2)


def test_iterative_solver_matches_sparse_oracle():
    # 13 qubits take the iterative path; oracle is an explicit sparse matrix
    g = generate_er(13, 0.3, 8)
    q = build_coloring_qubo(g, 1)
    diag = build_problem_diagonal(q)
    s = 0.55
    dim = 1 << 13
    idx = np.arange(dim)
    rows, cols, data = [idx], [idx], [float(LIN.a(s)) * diag.values]
    for j in range(13):
        rows.append(idx)
        cols.append(idx ^ (1 << j))
        data.append(np.full(dim, float(LIN.b(s))))
    h = scipy.sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )
    oracle = np.sort(scipy.sparse.linalg.eigsh(h, k=5, which="SA", return_eigenvectors=False))
    vals = lowest_eigenvalues(s, LIN, diag, m=5)
    assert np.allclose(vals, oracle, atol=1e-7)


def test_p5_s1_ground_degeneracy():
    q = build_coloring_qubo(path_graph(5), 2)
    diag = build_problem_diagonal(q)
    vals = lowest_eigenvalues(1.0, LIN, diag, m=3)
    assert abs(vals[0]) < 1e-7 and abs(vals[1]) < 1e-7
    assert vals[2] >= 1.0 - 1e-7


def test_endpoint_levels_past_the_dense_limit():
    # 14 qubits take the iterative path; at s = 0 and s = 1 H(s) is diagonal,
    # with degenerate levels an extremal solver would miss
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(7), 2))
    assert np.allclose(lowest_eigenvalues(0.0, LIN, diag, m=15), [-14.0] + [-12.0] * 14,
                       rtol=0.0, atol=1e-9)
    assert np.allclose(lowest_eigenvalues(1.0, LIN, diag, m=3), [0.0, 0.0, 1.0],
                       rtol=0.0, atol=1e-9)


def test_sweep_shape_and_endpoints():
    q = build_coloring_qubo(path_graph(3), 2)
    diag = build_problem_diagonal(q)
    table = spectrum_sweep(LIN, diag, grid=np.linspace(0.0, 1.0, 100), m=4)
    assert table.grid.shape == (100,)
    assert table.levels.shape == (100, 4)
    assert table.grid[0] == 0.0 and table.grid[-1] == 1.0
    assert table.levels[0, 0] == pytest.approx(-6.0, abs=1e-9)
    assert np.allclose(table.levels[-1], np.sort(diag.values)[:4], atol=1e-9)


def test_sweep_rejects_bad_grid():
    q = build_coloring_qubo(path_graph(3), 2)
    diag = build_problem_diagonal(q)
    with pytest.raises(ValueError):
        spectrum_sweep(LIN, diag, grid=[0.2, 1.4], m=2)
    with pytest.raises(ValueError):
        spectrum_sweep(LIN, diag, grid=[], m=2)
    with pytest.raises(ValueError, match=r"s must be within \[0, 1\]"):
        spectrum_sweep(LIN, diag, grid=[0.2, math.nan], m=2)


def test_min_gap_synthetic():
    table = SpectrumTable(grid=np.array([0.0, 0.5, 1.0]), levels=np.array([[0.0, 1.0]] * 3))
    s_star, gap = min_gap(table)
    assert (s_star, gap) == (0.0, pytest.approx(1.0))
    flat = SpectrumTable(grid=np.array([0.0, 1.0]), levels=np.zeros((2, 3)))
    with pytest.raises(SpectrumError, match="degenerate"):
        min_gap(flat)


def test_min_gap_locations_linear_vs_steep():
    # coarse version of the full sweep: interior minimum under linear, and the
    # steep driver collapse pulls the minimum to smaller s
    q = build_coloring_qubo(path_graph(5), 2)
    diag = build_problem_diagonal(q)
    grid = np.linspace(0.0, 1.0, 41)
    t_lin = spectrum_sweep(LIN, diag, grid=grid, m=4)
    t_steep = spectrum_sweep(resolve_schedule("steep"), diag, grid=grid, m=4)
    s_lin, gap_lin = min_gap(t_lin)
    s_steep, gap_steep = min_gap(t_steep)
    assert 0.0 < s_lin < 1.0 and gap_lin > 0.0
    assert s_steep < s_lin


def test_table_csv(tmp_path):
    q = build_coloring_qubo(path_graph(3), 2)
    diag = build_problem_diagonal(q)
    table = spectrum_sweep(LIN, diag, grid=np.linspace(0, 1, 7), m=3)
    f = tmp_path / "spec.csv"
    table.to_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0] == "s,level_0,level_1,level_2"
    assert len(lines) == 8
    back = np.loadtxt(f, delimiter=",", skiprows=1)
    assert np.allclose(back[:, 1:], table.levels)


def test_sweep_refuses_a_bad_grid_point_before_the_first_solve(monkeypatch):
    def unreachable(*args):
        raise AssertionError("solved a grid point before refusing the grid")

    monkeypatch.setattr(spectrum, "lowest_eigenvalues", unreachable)
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(3), 2))
    with pytest.raises(ValueError, match=r"s must be within \[0, 1\], got 1\.5"):
        spectrum_sweep(LIN, diag, grid=[0.5, 1.5], m=3)


def test_sweep_refuses_a_negative_level_count():
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(3), 2))
    with pytest.raises(ValueError, match="need 1 <= m <= 64, got -3"):
        spectrum_sweep(LIN, diag, grid=[0.5], m=-3)


def _force_eigsh(mp):
    """Send every sector larger than the Lanczos basis through eigsh, and
    keep the three seeded starts where one fails, with no dense fallback."""
    mp.setattr(spectrum, "DENSE_SECTOR_STATES", 0)
    mp.setattr(spectrum, "DENSE_QUBIT_LIMIT", 0)


def _count_eigsh(mp) -> list[int]:
    """Wrap spectrum's eigsh; the list it returns gets each call's k."""
    calls = []

    def counting_eigsh(op, k, **kw):
        calls.append(k)
        return eigsh(op, k, **kw)

    mp.setattr(spectrum, "eigsh", counting_eigsh)
    return calls


def test_iterative_solver_gives_up_after_three_restarts(monkeypatch):
    starts = []

    def no_convergence(op, k, **kw):
        starts.append(kw["v0"])
        vecs = np.full((op.shape[0], 1), 0.25)
        raise ArpackNoConvergence("no convergence", np.array([0.0]), vecs)

    monkeypatch.setattr(spectrum, "eigsh", no_convergence)
    _force_eigsh(monkeypatch)
    # P4's sectors hold 60 to 76 states, enough that the first goes through
    # eigsh; P2's are small enough to be solved dense
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(4), 2))
    with pytest.raises(SpectrumError, match="at s = 0.5: extremal eigensolver failed to "
                                            "converge after 3 seeded restarts"):
        spectrum_sweep(LIN, diag, grid=[0.5], m=2)
    assert len(starts) == 3


def test_iterative_solver_matches_the_dense_solve_on_k3(monkeypatch):
    # K3 at k=3 has every color permutation as a symmetry, which repeats
    # levels within a sector; the full-space iterative solve that came before
    # the sector split dropped a copy and was off by 0.0998 at the 15th level
    diag = build_problem_diagonal(build_coloring_qubo(complete_graph(3), 3))
    dense = lowest_eigenvalues(0.5, LIN, diag, 15)
    calls = _count_eigsh(monkeypatch)
    _force_eigsh(monkeypatch)
    iterative = lowest_eigenvalues(0.5, LIN, diag, 15)
    assert calls and np.allclose(iterative, dense, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("order", [range(7), (5, 2, 6, 0, 4, 1, 3)], ids=["union", "relabelled"])
def test_a_union_past_the_dense_limit_has_the_sums_of_its_parts_levels(order):
    # P3 and P4 side by side at k = 2: 14 qubits in sectors of 1 440 to
    # 2 784 states, so every sector takes the iterative solve, and two
    # components, so the group of the color swap, P3's reflection and P4's
    # is not every symmetry and each sector gets the extra single-level
    # solve. H(s) is the sum of the parts' commuting Hamiltonians, so its m
    # lowest levels are the m lowest sums of a level of P3 and one of P4,
    # each from the dense solve
    edges = ((0, 1), (1, 2), (3, 4), (4, 5), (5, 6))
    union = build_problem_diagonal(build_coloring_qubo(
        Graph(7, tuple((order[u], order[v]) for u, v in edges)), 2))
    assert len(union.symmetries) == 3 and len(union.sectors) == 8
    assert union.n_qubits > spectrum.DENSE_QUBIT_LIMIT and not union.multiplicity_free
    assert min(h.shape[0] for h in union.sectors) > spectrum.DENSE_SECTOR_STATES
    p3, p4 = (build_problem_diagonal(build_coloring_qubo(path_graph(n), 2)) for n in (3, 4))
    for s in (0.3, 0.5):
        sums = np.add.outer(lowest_eigenvalues(s, LIN, p3, 8), lowest_eigenvalues(s, LIN, p4, 8))
        want = np.sort(sums.ravel())[:8]
        assert np.allclose(lowest_eigenvalues(s, LIN, union, 8), want, rtol=0.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
       s=st.floats(0.01, 0.99))
def test_iterative_path_matches_the_dense_solve(data, k, p, seed, s):
    # s stays 0.01 from the endpoints: within about 1e-3 of them the low
    # levels bunch into clusters ARPACK may not converge on (K6 at k=2,
    # s = 0.99999, m = 25: all three seeded starts fail, and the full-space
    # solve this path replaced ran past 100 s); ROADMAP item 7 carries it
    g = generate_er(data.draw(st.integers(1, 12 // k), label="n_vertices"), p, seed)
    diag = build_problem_diagonal(build_coloring_qubo(g, k))
    m = data.draw(st.integers(1, min(30, 1 << diag.n_qubits)), label="m")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "DENSE_SECTOR_STATES", 1 << diag.n_qubits)
        dense = lowest_eigenvalues(s, LIN, diag, m)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_eigsh(mp)
        _force_eigsh(mp)
        iterative = lowest_eigenvalues(s, LIN, diag, m)
    # the first ask of a sector larger than the Lanczos basis goes through eigsh
    ask = -(-m // len(diag.sectors)) + 2
    assert bool(calls) == any(h.shape[0] > spectrum._lanczos_size(ask) for h in diag.sectors)
    assert np.allclose(iterative, dense, rtol=0.0, atol=1e-9)


def test_iterative_path_solves_a_sector_again_when_it_may_hold_more_of_the_lowest(monkeypatch):
    # P5 at k=2, m=15: each of the 4 sectors is asked for 6 levels, and the
    # first sector's 6 are all among the 15 lowest, so it is asked for 6 more
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(5), 2))
    dense = lowest_eigenvalues(0.5, LIN, diag, 15)
    calls = _count_eigsh(monkeypatch)
    _force_eigsh(monkeypatch)
    iterative = lowest_eigenvalues(0.5, LIN, diag, 15)
    assert calls == [6] * 5 and len(diag.sectors) == 4
    assert np.allclose(iterative, dense, rtol=0.0, atol=1e-9)


def test_a_sector_goes_through_eigsh_by_its_size_not_the_qubit_count(monkeypatch):
    # P5 at k = 2 has 10 qubits in sectors of 240 to 288 states, each solved
    # dense. ER(12, 0.3, 5) at k = 1 has no symmetry, so its one sector holds
    # all 4 096 states, and it goes through eigsh
    calls = _count_eigsh(monkeypatch)
    p5 = build_problem_diagonal(build_coloring_qubo(path_graph(5), 2))
    spectrum_sweep(LIN, p5, np.linspace(0.0, 1.0, 11), 15)
    assert calls == []
    er = build_problem_diagonal(build_coloring_qubo(generate_er(12, 0.3, 5), 1))
    assert [h.shape[0] for h in er.sectors] == [4096]
    lowest_eigenvalues(0.5, LIN, er, 15)
    assert calls


@pytest.mark.parametrize("g, k", [(complete_graph(6), 2), (complete_graph(3), 4)],
                         ids=["K6-k2", "K3-k4"])
def test_levels_next_to_s1_match_the_full_matrix(g, k):
    # within about 1e-3 of s = 1 the low levels bunch into clusters that
    # ARPACK may not converge on: with a 512-state dense bound, which puts
    # K6's 532-state sector on eigsh, all three seeded starts failed at
    # s = 0.9999 and 0.99999. A sector of at most 2^12 states whose start
    # fails is solved dense
    diag = build_problem_diagonal(build_coloring_qubo(g, k))
    for s in (0.999, 0.99999):
        full = np.linalg.eigvalsh(dense_hamiltonian(s, LIN, diag))
        assert np.allclose(lowest_eigenvalues(s, LIN, diag, 25), full[:25], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("s", [0.9999, 0.99999])
def test_a_stalled_start_hands_its_sector_to_the_dense_solve_within_a_few_thousand_matvecs(
        monkeypatch, s):
    # ER(6, 0.3, 0) at k = 2: sectors of 1 312, 1 248, 768 and 768 states, so
    # the first two go through eigsh. With dim restarts a start ran 25 593
    # matvecs at s = 0.9999 before it converged, and 33 749 at 0.99999
    # before it failed; capped, a stalled start stops near 2 300 and its
    # sector is solved dense
    diag = build_problem_diagonal(build_coloring_qubo(generate_er(6, 0.3, 0), 2))
    assert [h.shape[0] for h in diag.sectors] == [1312, 1248, 768, 768]
    matvecs = []

    def counting_eigsh(op, k, **kw):
        op = aslinearoperator(op)
        count = [0]

        def matvec(x):
            count[0] += 1
            return op.matvec(x)

        try:
            return eigsh(LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), k, **kw)
        finally:
            matvecs.append(count[0])

    monkeypatch.setattr(spectrum, "eigsh", counting_eigsh)
    got = lowest_eigenvalues(s, LIN, diag, 25)
    assert matvecs and max(matvecs) <= 4000
    full = np.linalg.eigvalsh(dense_hamiltonian(s, LIN, diag))
    assert np.allclose(got, full[:25], rtol=0.0, atol=1e-9)


def _failing_eigsh(mp) -> list[int]:
    """Make every eigsh start fail; the list it returns gets each start's
    operator size."""
    starts = []

    def no_convergence(op, k, **kw):
        starts.append(op.shape[0])
        raise ArpackNoConvergence("no convergence", np.array([]), np.empty((op.shape[0], 0)))

    mp.setattr(spectrum, "eigsh", no_convergence)
    return starts


def test_a_failed_start_hands_its_sector_to_the_dense_solve(monkeypatch):
    # P4 at k = 2: sectors of 60 to 76 states, forced through eigsh, each
    # within the fallback bound, so each is solved dense after one start
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(4), 2))
    dense = lowest_eigenvalues(0.5, LIN, diag, 15)
    starts = _failing_eigsh(monkeypatch)
    monkeypatch.setattr(spectrum, "DENSE_SECTOR_STATES", 0)
    assert np.array_equal(lowest_eigenvalues(0.5, LIN, diag, 15), dense)
    assert starts == [h.shape[0] for h in diag.sectors]


def test_a_sector_past_the_fallback_bound_keeps_three_starts(monkeypatch):
    # P7 at k = 2: its first sector holds 4 224 states, more than 2^12
    diag = build_problem_diagonal(build_coloring_qubo(path_graph(7), 2))
    starts = _failing_eigsh(monkeypatch)
    with pytest.raises(SpectrumError, match="failed to converge after 3 seeded restarts"):
        lowest_eigenvalues(0.5, LIN, diag, 15)
    assert starts == [4224] * 3


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_multiplicity_free_exactly_when_the_symmetries_generate_every_one(data, k, p, seed):
    g = generate_er(data.draw(st.integers(1, 7 // k), label="n_vertices"), p, seed)
    diag = build_problem_diagonal(build_coloring_qubo(g, k))
    every = diagonal_symmetry_count(diag)
    assert diag.multiplicity_free == (every == 1 << len(diag.symmetries))


def test_a_star_lists_only_the_automorphisms_its_symmetries_need(monkeypatch):
    # K_{1,7} at k = 2 (16 qubits) has 7! = 5040 automorphisms, 232 of them
    # involutions. The symmetries need only the 8 involutions that commute
    # with the leaf swaps taken, (6 7), (4 5) and (2 3), which are their
    # group's, and multiplicity_free only 2^4 / 2 + 1 = 9 automorphisms to
    # see that the group of 2^4 is not all
    listed = []

    def listing(g, **kw):
        listed.append(0)
        for p in automorphisms(g, **kw):
            listed[-1] += 1
            yield p

    monkeypatch.setattr(spectrum, "automorphisms", listing)
    star = Graph(8, tuple((0, v) for v in range(1, 8)))
    diag = build_problem_diagonal(build_coloring_qubo(star, 2))
    assert len(diag.symmetries) == 4 and not diag.multiplicity_free
    assert listed == [8, 9]
    x = np.arange(1 << diag.n_qubits)
    for g in diag.symmetries:
        assert np.array_equal(g[g], x) and np.array_equal(diag.values[g], diag.values)


@pytest.mark.parametrize("call, match", [
    (lambda: SpectrumTable(np.array([0.0, 1.0]), np.zeros((3, 2))),
     r"levels must be \(len\(grid\), m\)"),
    (lambda: SpectrumTable(np.array([0.5]), np.array([[1.0, 0.0]])),
     "levels must be non-decreasing within each row"),
    (lambda: min_gap(SpectrumTable(np.array([0.5]), np.array([[1.0]]))),
     "need at least two levels"),
], ids=["table-shape", "table-row-order", "one-level-gap"])
def test_spectrum_refuses_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
