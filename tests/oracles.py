"""Independent reference implementations the tests hold annealab against.

No program path calls any of these: exhaustive enumeration of bitstrings,
QUBO minima, proper colorings, graph automorphisms and the bit permutations
that keep a diagonal, the coloring cost in its defining penalty form, the
dense matrix of H(s), its matrix-free product with a state and its energy
expectation, small named graphs, the time-mirrored anneal path, the
second-order midpoint rule that evolve stepped with before its CF4:2 steps,
a Runge-Kutta ODE solve of the same equation that shares no stepping with
evolve, and the per-qubit driver loop with the byte-level helpers that
compare against it.
"""

import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp

from annealab.coloring_qubo import QuboProblem, index_to_bits
from annealab.dynamics import DRIFT_BOUND, IntegratorError, QuantumState, _chebyshev_exp
from annealab.graphs import Graph
from annealab.schedules import AnnealPath, Schedule
from annealab.spectrum import ProblemDiagonal, driver_apply


def all_bitstrings(n: int) -> np.ndarray:
    """(2^n, n) array of 0/1 rows; row r holds the little-endian bits of r."""
    if n > 24:
        raise ValueError(f"refusing to enumerate 2^{n} bitstrings")
    r = np.arange(1 << n, dtype=np.uint32)
    return ((r[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def brute_force_solve(q: QuboProblem) -> tuple[float, tuple[str, ...]]:
    """Exhaustive minimum and every argmin bitstring. Guarded at 24 variables."""
    if q.n_vars > 24:
        raise ValueError(f"brute force limited to 24 variables, got {q.n_vars}")
    best = np.inf
    argmins: list[int] = []
    total = 1 << q.n_vars
    bit_cols = np.arange(q.n_vars, dtype=np.uint32)
    chunk = 1 << 16  # basis states per energies() call
    for start in range(0, total, chunk):
        r = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        x = ((r[:, None] >> bit_cols) & 1).astype(np.float64)
        e = q.energies(x)
        lo = float(e.min())
        if lo < best - 1e-12:
            best = lo
            argmins = []
        argmins.extend(int(i) for i in r[e <= best + 1e-12])
    return best, tuple(index_to_bits(i, q.n_vars) for i in sorted(argmins))


def penalty_form_energy(g, k, penalty, bits):
    # direct evaluation of the defining cost, independent of the expansion
    x = np.asarray(bits, dtype=float).reshape(g.n_vertices, k)
    e = penalty * sum((1.0 - x[v].sum()) ** 2 for v in range(g.n_vertices))
    for u, v in g.edges:
        for c in range(k):
            e += penalty * x[u, c] * x[v, c]
    return e


def proper_onehot_encodings(g: Graph, k: int) -> set:
    """Enumerate proper colorings, one-hot encode them."""
    out = set()
    for coloring in itertools.product(range(k), repeat=g.n_vertices):
        if any(coloring[u] == coloring[v] for u, v in g.edges):
            continue
        bits = ["0"] * (g.n_vertices * k)
        for v, c in enumerate(coloring):
            bits[v * k + c] = "1"
        out.add("".join(bits))
    return out


def is_proper_coloring(g: Graph, coloring: dict[int, int]) -> bool:
    """Every vertex colored, and no edge joins two vertices of one color."""
    if set(coloring) != set(range(g.n_vertices)):
        return False
    return all(coloring[u] != coloring[v] for u, v in g.edges)


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def brute_force_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation that maps g's edge set onto itself, filtered
    from all n! orders in lexicographic order."""
    edges = set(g.edges)
    return [p for p in itertools.permutations(range(g.n_vertices))
            if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in g.edges)]


def diagonal_symmetry_count(diag: ProblemDiagonal) -> int:
    """How many bit permutations keep the diagonal, tried over all n! orders."""
    n = diag.n_qubits
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return sum(np.array_equal(diag.values[bits @ (1 << np.array(p))], diag.values)
               for p in itertools.permutations(range(n)))


def reversed_path(path: AnnealPath) -> AnnealPath:
    """Time-mirrored path covering the same s values backwards."""
    t = path.times
    return AnnealPath(t[-1] - t[::-1], path.svals[::-1])


def evolve_midpoint(state, path, sched, diag, accuracy=0.002, time_scale=1.0):
    """The second-order midpoint rule, evolve's stepping loop before CF4:2,
    copied verbatim without the memo: each ramp is cut into equal substeps no
    wider than `accuracy` in s, and within a substep H is frozen at its
    midpoint s; a pause is one exponential."""
    dmin, dmax = diag.bounds
    n = diag.n_qubits
    psi = state.amplitudes
    drift_total = 0.0
    for t0, t1, s0, s1 in path.segments():
        steps = 1 if s0 == s1 else max(1, math.ceil(abs(s1 - s0) / accuracy))
        dt = (t1 - t0) * time_scale / steps
        for j in range(steps):
            smid = s0 + (j + 0.5) * (s1 - s0) / steps
            a = float(sched.a(smid))
            b = float(sched.b(smid))
            lo = a * dmin - b * n
            hi = a * dmax + b * n
            psi = _chebyshev_exp(diag.values, a, b, lo, hi, psi, dt)
        norm = float(np.linalg.norm(psi))
        drift = abs(norm - 1.0)
        if drift > DRIFT_BOUND:
            raise IntegratorError(
                f"norm drift {drift:.3e} exceeds {DRIFT_BOUND} on segment [{t0}, {t1}]")
        psi = psi / norm
        drift_total += drift
    return QuantumState(n, psi, norm_drift=drift_total)


def evolve_reference(state, path, sched, diag, time_scale=1.0, rtol=1e-12, atol=1e-14):
    """i dpsi/dt = H(s(t)) psi integrated by scipy's DOP853, independent of
    evolve's stepping and of its Chebyshev series. The solve restarts at
    every path waypoint and at every schedule row a segment crosses, so on
    each piece it integrates a(s(t)) and b(s(t)) are the linear
    interpolations of their values at the piece's ends. It shares only
    driver_apply with evolve."""
    psi = state.amplitudes.astype(np.complex128)
    # dpsi/dt = a(t) (-i ts diag) psi + b(t) (-i ts) driver psi
    problem, driver = -1j * time_scale * diag.values, -1j * time_scale
    for t0, t1, s0, s1 in path.segments():
        rows = sched.s_grid[(sched.s_grid > min(s0, s1)) & (sched.s_grid < max(s0, s1))]
        knots = np.sort(np.concatenate(([t0, t1], t0 + (rows - s0) / (s1 - s0) * (t1 - t0))))
        s = s0 + (s1 - s0) * (knots - t0) / (t1 - t0)
        ends = zip(knots[:-1], knots[1:], sched.a(s[:-1]), sched.a(s[1:]),
                   sched.b(s[:-1]), sched.b(s[1:]))
        for u0, u1, a0, a1, b0, b1 in ends:

            def rhs(t, y):
                w = (t - u0) / (u1 - u0)
                return ((a0 + w * (a1 - a0)) * problem * y
                        + (b0 + w * (b1 - b0)) * driver * driver_apply(y))

            sol = solve_ivp(rhs, (u0, u1), psi, method="DOP853", rtol=rtol, atol=atol)
            if not sol.success:
                raise RuntimeError(f"reference solve failed on [{u0}, {u1}]: {sol.message}")
            psi = sol.y[:, -1]
    return QuantumState(diag.n_qubits, psi)


def dense_hamiltonian(s, sched, diag):
    """The full 2^n x 2^n matrix of H(s), built entry by entry: the independent
    oracle for the matrix-free operator and the sector-split eigensolver."""
    dim = 1 << diag.n_qubits
    idx = np.arange(dim)
    h = np.zeros((dim, dim))
    h[idx, idx] = float(sched.a(s)) * diag.values
    b = float(sched.b(s))
    for j in range(diag.n_qubits):
        h[idx, idx ^ (1 << j)] += b
    return h


def apply_hamiltonian(s: float, sched: Schedule, diag: ProblemDiagonal, state: np.ndarray) -> np.ndarray:
    """H(s)|state> = (a(s) * diag) * state + b(s) * driver_apply(state),
    matrix-free in O(n 2^n)."""
    if state.shape != diag.values.shape:
        raise ValueError(f"state shape {state.shape} does not match {diag.values.shape}")
    out = float(sched.a(s)) * diag.values * state
    b = float(sched.b(s))
    if b != 0.0:
        out = out + b * driver_apply(state)
    return out


def energy_expectation(s: float, sched: Schedule, diag: ProblemDiagonal, state: QuantumState) -> float:
    return float(np.real(np.vdot(state.amplitudes, apply_hamiltonian(s, sched, diag, state.amplitudes))))


def _driver_apply_loop(state: np.ndarray) -> np.ndarray:
    """The loop driver_apply replaced, copied verbatim."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    out = np.zeros_like(state)
    for j in range(n):
        v = state.reshape(-1, 2, 1 << j)
        out += v[:, ::-1, :].reshape(dim)
    return out


# signed zeros, subnormals and normals; driver_apply's sums must keep their bits
SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -3.5)


def _state(re, im=None):
    if im is None:
        return np.asarray(re, dtype=np.float64)
    state = np.empty(len(re), dtype=np.complex128)
    state.real, state.imag = re, im  # set parts directly: keeps each zero's sign
    return state


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.view(np.uint8).tobytes() == want.view(np.uint8).tobytes()
