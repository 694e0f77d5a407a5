"""State-vector annealing dynamics: i d|psi>/dt = H(s(t)) |psi> with hbar = 1.

A ramp segment (s moving) is cut into equal steps, as few as keep each step
at most `accuracy` wide in s and MAX_STEP_TIME long. Each step of duration h
is the fourth-order, two-exponential commutator-free Magnus step CF4:2
(Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske,
J. Comput. Phys. 230, 5930 (2011)): exp(-ih(a2 H1 + a1 H2)), then
exp(-ih(a1 H1 + a2 H2)), with a1,2 = (3 -+ 2 sqrt 3)/12. H1 and H2 are not H
at the Gauss points: they are H1,2 = B0 -+ 2 sqrt(3) B1, from the step's exact
moments B0 = int H du and B1 = int (u - 1/2) H du over u in [0, 1], so the two
factors are B0/2 - 2 B1 and B0/2 + 2 B1. The schedule table is linear between
rows and has a kink at each, where Gauss points would lose the order; the
moments of a piecewise-linear a(s) and b(s) are closed forms that see every
row. Each factor is a real-symmetric a*H_problem + b*H_driver, which is what
the Chebyshev propagator takes, and a time-mirrored path applies the
transposed factors in reverse order. Pause segments (constant s) are
propagated in a single exponential, which conserves the energy expectation to
rounding. Time is dimensionless: physical duration = waypoint time *
time_scale. Before any work, evolve refuses a plan whose estimated series
length passes MAX_PLAN_TERMS.

Each exponential is a Chebyshev polynomial expansion of exp(-i H dt)
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)): with H' the Hamiltonian
shifted and scaled to spectrum [-1, 1] and alpha = (spectral radius) * dt,
the order-k term is 2 (-i)^k J_k(alpha) T_k(H') psi (half that at k = 0). A
series keeps J_0 .. J_m, m the smallest order >= max(1, floor(alpha)) whose
dropped tail 2 sum_{k>m} |J_k(alpha)| is at most BESSEL_TAIL (1e-15). Every
|T_k(H') psi| <= 1, so that tail bounds the exponential's truncation error in
the 2-norm, and the factors after it are unitary, so one evolve's truncation
sums to at most (number of exponentials) * 1e-15. Past alpha the Bessel
coefficients decay faster than exponentially, so m is a few orders past alpha.
The phases 2 (-i)^k are sliced from one module table, rebuilt at twice the
length whenever a longer series asks, so its memory follows the longest
series rather than the number of series lengths seen. At 6 qubits a term
costs a few microseconds, most of it the overhead of each numpy call, so
each term is written out in the loop, with its scalar operands converted to
complex once per exponential; the arithmetic and its operand order are those
of the plain recurrence, byte for byte.

Every generator of ProblemDiagonal.symmetries is a bit permutation that
keeps the diagonal, so it commutes with H(s), and a start it fixes keeps
every amplitude equal along each orbit of their group: the state stays in
the trivial sector, spanned by |O> = |O|^-1/2 sum_{y in O} |y> over the
orbits O of ProblemDiagonal.orbits (Sandvik, AIP Conf. Proc. 1297, 135
(2010)). The driver ground state is such a start, so a forward anneal runs
there, on 3-6 times fewer amplitudes for the default problems, where
n > GATHER_BITS; elsewhere (reverse anneals, problems without symmetries,
small problems) the full space's arithmetic runs unchanged. The plan, the
factors, the spectral bounds and the drift check are the same on either
space.

The scheme is norm-preserving by construction (drift ~1e-14); a segment whose
norm drifts past DRIFT_BOUND raises IntegratorError instead of being
renormalized.

`evolve` is deterministic, and chained reverse anneals keep re-evolving the
same input state, so final states are memoized: an LRU keyed by a digest of
every input the result depends on, the space it runs in included, bounded by
MEMO_BYTES of amplitudes. The states it returns are read-only, so no caller
can alter a cached entry.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .coloring_qubo import Sample, bits_to_index, index_to_bits
from .schedules import AnnealPath, Schedule
from .spectrum import GATHER_BITS, GATHER_BLOCK, Orbits, ProblemDiagonal, driver_apply

DRIFT_BOUND = 1e-6
# forward-anneal time scale calibrated so the P5/k=2 linear anneal leaves
# >= 0.8 probability on the two proper colorings (convergence study in tests)
SLOW_TIME_SCALE = 8.0
# reverse-anneal default; fast enough to excite transitions near the gap
REVERSE_TIME_SCALE = 1.0
DEFAULT_TOTAL_TIME = 100.0
DEFAULT_ACCURACY = 0.01
# longest ramp step, in time units; longer CF4:2 steps lose accuracy on slow ramps
MAX_STEP_TIME = 2.0
# ramp steps whose factors are computed at once, which bounds their memory
STEP_BLOCK = 4096
# an evolve whose plan is estimated past this many Chebyshev terms (matvecs)
# is refused: over a day of work at 15 qubits
MAX_PLAN_TERMS = 1e8
# a Chebyshev series stops once the Bessel coefficients it drops sum (times 2) to at most this
BESSEL_TAIL = 1e-15
# amplitude bytes the evolve memo may hold: 4 states at 20 qubits, 4096 at 10
MEMO_BYTES = 64 << 20


class IntegratorError(RuntimeError):
    """A path segment's norm drifted past DRIFT_BOUND."""


@dataclass(frozen=True)
class QuantumState:
    n_qubits: int
    amplitudes: np.ndarray
    norm_drift: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (1 << self.n_qubits,):
            raise ValueError(f"need 2^{self.n_qubits} amplitudes, got shape {amp.shape}")
        if abs(np.linalg.norm(amp) - 1.0) > 1e-8:
            raise ValueError("state norm must be 1 within 1e-8")
        object.__setattr__(self, "amplitudes", amp)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def driver_ground(n: int) -> QuantumState:
    """Ground state of +sum sigma^x: tensor power of (|0> - |1>)/sqrt(2)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    idx = np.arange(1 << n, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx) & 1).astype(np.float64)
    return QuantumState(n, signs / math.sqrt(1 << n))


def basis_state(bits) -> QuantumState:
    n = len(bits)
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[bits_to_index(bits)] = 1.0
    return QuantumState(n, amp)


def _bessel_series(alpha: float) -> np.ndarray:
    """J_0(alpha) .. J_m(alpha), m the smallest order >= max(1, floor(alpha))
    whose dropped tail 2 sum_{k>m} |J_k(alpha)| is <= BESSEL_TAIL. Orders are
    evaluated 32 at a time past floor(alpha) until the last one is below
    2^-52 BESSEL_TAIL; past alpha they decay faster than geometrically, so the
    orders never evaluated cannot move the tail sums."""
    first = max(1, int(alpha))
    bessel = jv(np.arange(first + 32), alpha)
    while abs(bessel[-1]) > BESSEL_TAIL * 2.0**-52:
        bessel = np.concatenate([bessel, jv(np.arange(bessel.size, bessel.size + 32), alpha)])
    # tails[j] = sum of |J_k| over the j + 1 highest orders evaluated, smallest
    # first; it never decreases with j, so the orders that can be dropped are
    # the number of entries within the bound
    tails = np.abs(bessel[:first:-1]).cumsum()
    return bessel[:bessel.size - int(np.count_nonzero(2.0 * tails <= BESSEL_TAIL))]


_PHASE_TABLE = np.empty(0, np.complex128)


def _phases(count: int) -> np.ndarray:
    """2 (-i)^k for k = 0 .. count - 1: a read-only slice of one table,
    rebuilt at twice the length when a longer series asks, so it holds about
    twice the longest series' terms. Each entry is computed on its own, so a
    slice's bytes do not depend on the table's length."""
    global _PHASE_TABLE
    if _PHASE_TABLE.size < count:
        _PHASE_TABLE = 2.0 * (-1j) ** np.arange(2 * count)
        _PHASE_TABLE.flags.writeable = False
    return _PHASE_TABLE[:count]


def _chebyshev_exp(diag_vals, flips, a, b, lo, hi, psi, dt):
    """exp(-i H dt) psi for H = a*diag + b*flips with spectrum in [lo, hi]:
    flips(x) returns sum_j sigma^x_j x in a new array, in the space of psi
    and diag_vals (the full space's `driver_apply`, or `_symmetric_flips`)."""
    center = 0.5 * (hi + lo)
    radius = 0.5 * (hi - lo) + 1e-12
    alpha = radius * dt
    bessel = _bessel_series(alpha)
    coefs = _phases(bessel.size) * bessel
    coefs[0] *= 0.5
    coefs = coefs.tolist()
    # numpy would cast the real diagonal on every product, and convert a
    # Python scalar on every call, to these complex values
    shifted = ((a * diag_vals - center) / radius).astype(np.complex128)
    scale, two = np.array(b / radius, np.complex128), np.array(2.0, np.complex128)
    multiply, add = np.multiply, np.add

    # three rotating buffers; the coefficient product reuses the retiring
    # T_{k-2}. Operands keep the order (scalar, array): numpy's SIMD complex
    # multiply is not bitwise commutative. Each term is written out rather
    # than called, which small states notice.
    t_prev = psi.astype(np.complex128, copy=True)
    t_cur = np.empty_like(t_prev)
    t_next = np.empty_like(t_prev)
    acc = multiply(coefs[0], t_prev)
    multiply(shifted, t_prev, out=t_cur)
    if b != 0.0:
        hx = flips(t_prev)
        add(t_cur, multiply(scale, hx, out=hx), out=t_cur)
    add(acc, multiply(coefs[1], t_cur, out=t_next), out=acc)
    for coef in coefs[2:]:
        multiply(shifted, t_cur, out=t_next)
        if b != 0.0:
            hx = flips(t_cur)
            add(t_next, multiply(scale, hx, out=hx), out=t_next)
        multiply(two, t_next, out=t_next)
        np.subtract(t_next, t_prev, out=t_next)
        add(acc, multiply(coef, t_next, out=t_prev), out=acc)
        t_prev, t_cur, t_next = t_cur, t_next, t_prev
    return multiply(np.exp(-1j * center * dt), acc, out=acc)


def _symmetric_flips(orbits: Orbits, n: int):
    """sum_j sigma^x_j in the trivial sector of the symmetries' group, on
    coordinates c in the orbit basis |O> = |O|^-1/2 sum_{y in O} |y>: with
    w = c / sqrt|O|, (X c)[L] = sqrt|O_L| sum_j w[row(L ^ 2^j)]. Each sum
    runs over j = 0..n-1 from +0.0, gathered GATHER_BLOCK orbits at a time
    as in driver_apply."""
    root = np.sqrt(orbits.sizes)
    bits, labels = (1 << np.arange(n))[:, None], orbits.labels
    # block i, row j: the rows of block i's labels with bit j flipped, as
    # contiguous intp arrays, which numpy gathers by several times faster
    # than a strided or int32 index
    starts = range(0, labels.size, GATHER_BLOCK)
    blocks = [orbits.row[labels[r:r + GATHER_BLOCK] ^ bits].astype(np.intp) for r in starts]

    def flips(c):
        w = c / root
        out = np.empty_like(w)
        for r, block in zip(starts, blocks):
            np.add.reduce(w[block], axis=0, initial=0.0, out=out[r:r + GATHER_BLOCK])
        return np.multiply(root, out, out=out)

    return flips


class _Memo(OrderedDict):
    """LRU of evolve's final states by input digest, bounded by MEMO_BYTES.
    One per process (`_MEMO`), shared by every caller of evolve."""

    nbytes = 0

    def put(self, key: bytes, state: QuantumState) -> None:
        self[key] = state
        self.nbytes += state.amplitudes.nbytes
        while self.nbytes > MEMO_BYTES:
            _, old = self.popitem(last=False)
            self.nbytes -= old.amplitudes.nbytes


_MEMO = _Memo()


def _evolve_key(state, path, sched, diag, accuracy, time_scale, symmetric) -> bytes:
    """Digest of everything evolve's result depends on: its inputs, and
    whether it runs in the trivial sector, whose amplitudes differ from the
    full space's in the last bits."""
    h = hashlib.blake2b(digest_size=20)
    for arr in (diag.values, path.times, path.svals, sched.s_grid, sched.a_vals, sched.b_vals,
                state.amplitudes, np.array([time_scale, accuracy, symmetric], np.float64)):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr)
    return h.digest()


def plan(path, sched, diag, accuracy, time_scale) -> list[int]:
    """Step count of each segment: 1 for a pause, else the fewest equal steps
    at most `accuracy` wide in s and MAX_STEP_TIME long. Before anything is
    allocated it refuses a bad accuracy or time scale, and an estimated series
    length (two terms per exponential plus alpha, from the table's largest a
    and b, counted in floats) past MAX_PLAN_TERMS."""
    if not 0 < accuracy < math.inf:
        raise ValueError(f"accuracy must be positive and finite, got {accuracy}")
    check_time_scale(time_scale, path.total_time)
    dmin, dmax = diag.bounds
    radius = float(0.5 * sched.a_vals.max() * (dmax - dmin) + sched.b_vals.max() * diag.n_qubits)
    counts, terms = [], 0.0
    for t0, t1, s0, s1 in path.segments():
        duration = (t1 - t0) * time_scale
        steps = 1.0 if s0 == s1 else float(max(1.0, np.ceil(abs(s1 - s0) / accuracy),
                                               np.ceil(duration / MAX_STEP_TIME)))
        counts.append(steps)
        terms += (2.0 if s0 == s1 else 4.0) * steps + radius * duration
    if not terms <= MAX_PLAN_TERMS:
        raise ValueError(f"evolve would need over {MAX_PLAN_TERMS:.0e} Chebyshev terms: "
                         f"lower time_scale ({time_scale:g}) or raise accuracy ({accuracy:g})")
    return [int(steps) for steps in counts]


def _factors(sched: Schedule, s0: float, s1: float, steps: int):
    """(a, b) of each exponential of one segment, in the order applied: a
    pause's H(s0), or the two CF4:2 factors (B0/2 - 2 B1, then B0/2 + 2 B1)
    of each of the `steps` equal ramp steps from s0 to s1.

    In step units u, step j spans [j, j + 1], and a and b are linear in u on
    each piece between the integers and the schedule rows. A piece of width w
    with midpoint m and end values f0, f1 adds w (f0 + f1)/2 to its step's
    B0 = int f du, and w (m - j - 1/2)(f0 + f1)/2 + w^2 (f1 - f0)/12 to its
    B1 = int (u - j - 1/2) f du. Steps are taken STEP_BLOCK at a time."""
    if s0 == s1:
        yield float(sched.a(s0)), float(sched.b(s0))
        return
    rows = (sched.s_grid - s0) * (steps / (s1 - s0))
    for j0 in range(0, steps, STEP_BLOCK):
        j1 = min(steps, j0 + STEP_BLOCK)
        knots = np.union1d(np.arange(j0, j1 + 1.0), rows[(rows > j0) & (rows < j1)])
        width = np.diff(knots)
        mid = 0.5 * (knots[1:] + knots[:-1])
        # the step each piece lies in; a row an ulp below j1 makes a piece
        # whose midpoint can round up to j1
        owner = np.minimum(mid.astype(np.intp), j1 - 1) - j0
        offset = mid - (owner + j0 + 0.5)
        s = s0 + (s1 - s0) * (knots / steps)
        pair = []
        for vals in (sched.a_vals, sched.b_vals):
            f = np.interp(s, sched.s_grid, vals)
            fmid = 0.5 * (f[1:] + f[:-1])
            b0 = np.bincount(owner, width * fmid, j1 - j0)
            b1 = np.bincount(owner, width * (offset * fmid + width * np.diff(f) / 12.0), j1 - j0)
            pair.append(np.column_stack([0.5 * b0 - 2.0 * b1, 0.5 * b0 + 2.0 * b1]).ravel())
        yield from zip(pair[0].tolist(), pair[1].tolist())


def evolve(
    state: QuantumState,
    path: AnnealPath,
    sched: Schedule,
    diag: ProblemDiagonal,
    accuracy: float = DEFAULT_ACCURACY,
    time_scale: float = 1.0,
) -> QuantumState:
    """Propagate along the path. Deterministic; returns a read-only unit state
    whose norm_drift field reports the accumulated pre-renormalization drift.
    Equal inputs return the first call's memoized state without replanning.

    Past GATHER_BITS qubits, a start that every generator of
    diag.symmetries fixes exactly (the driver ground state, say) never
    leaves the trivial sector of their group, which H(s) commutes with, so
    it is propagated there, one amplitude per orbit, and expanded to the
    full space at the end. At GATHER_BITS qubits or fewer the smaller space
    does not pay for its gathers."""
    if state.n_qubits != diag.n_qubits:
        raise ValueError("state and problem dimensions differ")
    n = diag.n_qubits
    psi, values, flips = state.amplitudes, diag.values, driver_apply
    gens = diag.symmetries if n > GATHER_BITS else ()
    symmetric = bool(gens) and all(np.array_equal(psi[g], psi) for g in gens)
    key = _evolve_key(state, path, sched, diag, accuracy, time_scale, symmetric)
    if key in _MEMO:
        _MEMO.move_to_end(key)
        return _MEMO[key]
    steps_per_segment = plan(path, sched, diag, accuracy, time_scale)
    dmin, dmax = diag.bounds
    if symmetric:
        # the state's coordinates in the trivial sector's orbit basis
        orbits = diag.orbits
        root = np.sqrt(orbits.sizes)
        psi, values = root * psi[orbits.labels], values[orbits.labels]
        flips = _symmetric_flips(orbits, n)
    drift_total = 0.0
    for (t0, t1, s0, s1), steps in zip(path.segments(), steps_per_segment):
        dt = (t1 - t0) * time_scale / steps
        for a, b in _factors(sched, s0, s1, steps):
            lo, hi = sorted((a * dmin, a * dmax))
            psi = _chebyshev_exp(values, flips, a, b, lo - abs(b) * n, hi + abs(b) * n, psi, dt)
        norm = float(np.linalg.norm(psi))
        drift = abs(norm - 1.0)
        if drift > DRIFT_BOUND:
            raise IntegratorError(
                f"norm drift {drift:.3e} exceeds {DRIFT_BOUND} on segment [{t0}, {t1}]")
        psi = psi / norm
        drift_total += drift
    if symmetric:
        psi = (psi / root)[orbits.row]
    final = QuantumState(n, psi, norm_drift=drift_total)
    final.amplitudes.flags.writeable = False
    _MEMO.put(key, final)
    return final


def check_shots(shots: int) -> None:
    """The one shot-count rule of both samplers, applied before any work."""
    if shots < 1:
        raise ValueError(f"need shots >= 1, got {shots}")


def check_time_scale(time_scale, span: float) -> None:
    """The one time-scale rule of both samplers (None means the sampler's
    default): positive, and finite times the span it stretches."""
    if time_scale is not None and not (time_scale > 0 and math.isfinite(time_scale * span)):
        raise ValueError(f"time_scale must be positive and finite, got {time_scale} (times {span:g})")


def _draw(state: QuantumState, shots: int, seed) -> list[int]:
    """Basis indices of Born-rule draws, i.i.d., deterministic per seed."""
    check_shots(shots)
    rng = np.random.default_rng(seed)
    p = state.probabilities()
    p /= p.sum()
    return rng.choice(p.size, size=shots, p=p).tolist()


def sample(state: QuantumState, shots: int, seed) -> list[str]:
    """Born-rule draws, i.i.d., deterministic per seed."""
    return [index_to_bits(i, state.n_qubits) for i in _draw(state, shots, seed)]


def anneal(
    diag: ProblemDiagonal,
    sched: Schedule,
    path: AnnealPath,
    initial=None,
    shots: int = 1,
    seed=0,
    time_scale: float = 1.0,
) -> list[Sample]:
    """Evolve along the path and measure `shots` times. The start is the
    driver ground state when `initial` is None, else the basis state of the
    bitstring `initial` (see AnnealPath.check_start)."""
    path.check_start(initial, diag.n_qubits)
    check_shots(shots)
    start = driver_ground(diag.n_qubits) if initial is None else basis_state(initial)
    final = evolve(start, path, sched, diag, time_scale=time_scale)
    return [Sample(index_to_bits(i, diag.n_qubits), float(diag.values[i]))
            for i in _draw(final, shots, seed)]
