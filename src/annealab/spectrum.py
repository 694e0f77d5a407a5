"""Instantaneous spectra of H(s) = a(s) H_problem + b(s) H_driver.

H_problem is diagonal in the computational basis (entry = QUBO energy of the
basis bitstring, offset included). The driver is +sum_j sigma^x_j, applied
matrix-free by bit flips; its ground eigenvalue is -n. Note the + sign follows
the source convention for the driver; it flips the driver spectrum relative to
the more common -sum sigma^x but leaves every measurement probability and gap
structure unchanged.

Basis convention: variable i is bit i (little endian) of the basis index.

Every solve away from the closed forms splits H(s) by an abelian group G of
basis permutations that leave the problem diagonal unchanged, generated by r
commuting involutions that ProblemDiagonal.symmetries takes from the coloring
problem: color swaps at every vertex and the graph's automorphisms. The driver
commutes with every bit permutation, so G commutes with H(s), and H(s) is
block diagonal in the 2^r sectors of G's +-1 characters chi. The sector vector
of an orbit labelled by its smallest state L is proportional to
sum_g chi(g) |g L>; it is zero, and the orbit drops out of that sector, when
chi is -1 on an element fixing L. The union of the sectors' spectra is the
spectrum of H(s), multiplicities included; each sector has about 2^-r of the
rows, so the 2^r dense solves together cost about 4^-r as much as one of the
full matrix, and each sector's iterative solve needs only about m / 2^r of
the m lowest levels (Sandvik, AIP Conf. Proc. 1297, 135 (2010)). Which of the
two solves a sector gets is decided by its own state count, not by the
problem's qubit count (see lowest_eigenvalues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.sparse import csc_array
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .coloring_qubo import QuboProblem
from .graphs import automorphisms
from .schedules import Schedule

# a sector of at most DENSE_SECTOR_STATES states is solved dense, a larger one
# by ARPACK: the measured crossover (see lowest_eigenvalues)
DENSE_SECTOR_STATES = 800
# a sector of at most 2^DENSE_QUBIT_LIMIT states, the whole space of a
# 12-qubit problem, is solved dense where ARPACK's start fails
DENSE_QUBIT_LIMIT = 12
QUBIT_CAP = 20
# driver_apply gathers the flips of the low GATHER_BITS bits block by block,
# GATHER_BLOCK amplitudes at a time (scratch: GATHER_BITS blocks); a flip of
# a bit below log2(GATHER_BLOCK) never leaves its block
GATHER_BITS = 6
GATHER_BLOCK = 1 << 12
# min_gap counts a level within this of the ground level as degenerate with it
DEGENERACY_TOL = 1e-7


class SpectrumError(RuntimeError):
    """Eigensolver failure or unusable spectrum table."""


class Orbits(NamedTuple):
    """The orbit table of ProblemDiagonal.orbits: `labels` are the orbits'
    smallest states, ascending; for each basis state x, row[x] is the index
    of x's orbit in `labels` and lift[x] the group element (a bit per
    generator of ProblemDiagonal.symmetries) that takes x to its label;
    sizes[i] is the size of orbit i."""

    labels: np.ndarray
    row: np.ndarray
    sizes: np.ndarray
    lift: np.ndarray


@dataclass(frozen=True)
class ProblemDiagonal:
    """The 2^n diagonal of the problem Hamiltonian: values[x] is the problem's
    energy of basis state x, tabulated on construction up to QUBIT_CAP qubits."""

    problem: QuboProblem

    def __post_init__(self):
        q = self.problem
        if q.n_vars > QUBIT_CAP:
            raise ValueError(f"diagonal construction capped at {QUBIT_CAP} qubits, got {q.n_vars}")
        r = np.arange(1 << q.n_vars, dtype=np.uint32)
        values = q.energy_sum(lambda i: (r >> i) & 1)
        values.flags.writeable = False  # one diagonal may serve every caller of its problem
        # derived, so not fields; written past the frozen class's __setattr__
        self.__dict__.update(n_qubits=q.n_vars, values=values)

    @cached_property
    def bounds(self) -> tuple[float, float]:
        return float(self.values.min()), float(self.values.max())

    @cached_property
    def symmetries(self) -> tuple[np.ndarray, ...]:
        """Commuting involutions of the basis that leave the diagonal
        unchanged, each as an index array g (state x goes to g[x]): of the
        color swaps (0 1), (2 3), ... at every vertex, then the source graph's
        involutive automorphisms in lexicographic order, each one that keeps
        the diagonal, commutes with those taken and is not in their group.
        Empty without a source graph. Group membership is decided on vertex
        maps: a color swap commutes with every vertex map and is never in the
        group of the swaps before it, and an automorphism is in the group
        exactly when it is in that of the vertex maps taken. The automorphism
        search skips every involution that does not commute with those, so
        only a candidate outside their group is tabulated over the 2^n
        states."""
        q = self.problem
        if q.source is None:
            return ()
        keep_v, keep_c = tuple(range(q.source.n_vertices)), tuple(range(q.k))
        swaps = [(keep_v, tuple(c ^ 1 if c >> 1 == pair else c for c in keep_c))
                 for pair in range(q.k // 2)]
        # the vertex maps taken and their group
        taken, group = [], {keep_v}
        flips = ((p, keep_c) for p in automorphisms(q.source, commuting=taken) if p not in group)
        index = {(v, c): i for v, c, i in q.var_map}
        x = np.arange(self.values.size)
        gens = []
        for to_v, to_c in chain(swaps, flips):
            # the var_map bit of (v, c) moves to that of (to_v[v], to_c[c])
            g = sum(((x >> i) & 1) << index[to_v[v], to_c[c]] for v, c, i in q.var_map)
            if np.array_equal(self.values[g], self.values):
                gens.append(g)
                taken.append(to_v)
                group |= {tuple(e[u] for u in to_v) for e in group}
        return tuple(gens)

    @cached_property
    def orbits(self) -> Orbits:
        """The orbits of the group of symmetries on the basis states, labelled
        by their smallest state, in label order. Built with one pass per
        generator g: label = min(label, label[g]). After the passes over the
        first i generators, label[x] is the smallest state that their group
        takes x to, and lift[x] an element of that group taking x there: where
        label[g[x]] is smaller, x takes g[x]'s label and its element times g
        (the group is abelian, and g is not in the group of those before)."""
        label = np.arange(self.values.size)
        lift = np.zeros(label.size, dtype=np.int32)
        for i, g in enumerate(self.symmetries):
            moved = label[g]
            lower = moved < label
            label = np.where(lower, moved, label)
            lift = np.where(lower, lift[g] | (1 << i), lift)
        is_label = label == np.arange(label.size)
        row = (np.cumsum(is_label, dtype=np.int32) - 1)[label]
        return Orbits(np.flatnonzero(is_label), row, np.bincount(row), lift)

    @cached_property
    def sectors(self) -> tuple[csc_array, ...]:
        """Per nonempty sector of the group of symmetries (see the module
        docstring), H(s) in it at a = b = 1 as a compressed-column matrix
        with one column per orbit in the sector, in the order of the orbits'
        labels. Column c, of label L, holds values[L] on the diagonal, then
        for each bit j = 0..n-1 the ratio coef[y] / coef[L] of the sector
        vectors' coefficients in the row of y's orbit, y being L with bit j
        flipped. H is symmetric, so column c is also row c.

        Element t of the group is the product of the generators whose bit is
        set in t, and character c takes the value (-1)^popcount(c & t) on
        it. Every element is an involution, so the element `orbits.lift[y]`
        that maps y to its orbit's label L maps L to y, and with S the
        stabilizer of L, the sum of chi(g) over the g with g L = y is
        chi(lift[y]) times |S| if chi is 1 on all of S, and 0 otherwise. Which
        element lifts y does not matter: two differ by an element of S. The
        stabilizers are found by walking the group over the labels, one
        element at a time, never holding it whole."""
        gens, orbits = self.symmetries, self.orbits
        size = 1 << len(gens)
        reps, lift, rep_of = orbits.labels, orbits.lift, orbits.row
        # fixed[t, i]: element t fixes reps[i]; few distinct stabilizers. The
        # elements are walked in Gray-code order, one generator per step
        fixed = np.zeros((size, reps.size), dtype=bool)
        fixed[0], z = True, reps
        for step in range(1, size):
            z = gens[(step & -step).bit_length() - 1][z]
            fixed[step ^ (step >> 1)] = z == reps
        stabilizers, which = np.unique(fixed, axis=1, return_inverse=True)
        stabilizers, stab = stabilizers.astype(np.float64), fixed.sum(axis=0)
        t = np.arange(size)
        n = self.n_qubits
        blocks = []
        for c in range(size):
            chi = (-1.0) ** np.bitwise_count(c & t)
            inside = (chi @ stabilizers > 0)[which]
            if not inside.any():
                continue
            labels = reps[inside]
            # the sector vector of label L has coefficient coef[L] at L and
            # chi(lift[y]) * coef[L'] at y in the orbit of label L'
            coef = np.where(inside, stab / np.sqrt(stab * size), 0.0)
            # a state outside the sector has coefficient 0, so the row it
            # names (any row in range) gains exactly 0.0
            row = np.maximum(np.cumsum(inside) - 1, 0).astype(np.int32)
            here = coef[inside]
            indices = np.empty((labels.size, n + 1), dtype=np.int32)
            data = np.empty((labels.size, n + 1))
            indices[:, 0], data[:, 0] = np.arange(labels.size), self.values[labels]
            for j in range(n):
                y = labels ^ (1 << j)
                indices[:, j + 1] = row[rep_of[y]]
                # + 0.0 makes the -0.0 of chi = -1 outside the sector +0.0
                data[:, j + 1] = (chi[lift[y]] * coef[rep_of[y]] + 0.0) / here
            indptr = np.arange(0, indices.size + 1, n + 1, dtype=np.int32)
            h = csc_array((data.ravel(), indices.ravel(), indptr), shape=(labels.size,) * 2)
            # each H(s) shares these index arrays, so nothing may sort them in place
            h.indices.flags.writeable = h.indptr.flags.writeable = False
            blocks.append(h)
        return tuple(blocks)

    @cached_property
    def multiplicity_free(self) -> bool:
        """Whether the group of `symmetries` holds every bit permutation that
        keeps the problem's diagonal, so that no symmetry repeats a level
        within one sector. Those permutations of a coloring problem keep its
        couplings (2 * penalty within a vertex's block, penalty between equal
        colors across an edge), so each is a graph automorphism times one
        color permutation per connected component: at most |Aut| * (k!)^c
        of them, and the group of symmetries has 2^r. So it is enough that
        the graph has 2^r / (k!)^c automorphisms, which the search counts only
        up to one more. False without a source graph."""
        q = self.problem
        if q.source is None:
            return False
        g = q.source
        root = list(range(g.n_vertices))  # union-find over the edges
        for u, v in g.edges:
            while root[u] != u or root[v] != v:
                u, v = root[u], root[v]
            root[u] = v
        components = sum(r == x for x, r in enumerate(root))
        want, rest = divmod(1 << len(self.symmetries), math.factorial(q.k) ** components)
        return rest == 0 and sum(1 for _ in islice(automorphisms(g), want + 1)) == want


_last_diagonal: ProblemDiagonal | None = None


def build_problem_diagonal(q: QuboProblem) -> ProblemDiagonal:
    """The diagonal of q: QuboProblem.energy(x) for every basis state x. The
    last diagonal built is returned again while q is the same object, so a
    run's stage checks and samplers tabulate their problem once."""
    global _last_diagonal
    if _last_diagonal is None or _last_diagonal.problem is not q:
        _last_diagonal = ProblemDiagonal(q)
    return _last_diagonal


@cache
def _flip_table(k: int, width: int) -> np.ndarray:
    """Read-only (k, width) indices: row j is arange(width) with bit j flipped.
    One table per state size up to GATHER_BLOCK amplitudes, so the cache stays small."""
    table = np.arange(width) ^ (1 << np.arange(k))[:, None]
    table.flags.writeable = False
    return table


@cache
def _driver_plan(dim: int) -> tuple[int, int, int, np.ndarray]:
    """driver_apply's plan for dim amplitudes: the qubit count n, the k low
    bits gathered, the block width and the (k, width) flip table."""
    n = dim.bit_length() - 1
    k = min(n, GATHER_BITS)
    width = min(dim, GATHER_BLOCK)
    return n, k, width, _flip_table(k, width)


def driver_apply(state: np.ndarray) -> np.ndarray:
    """(sum_j sigma^x_j) |state>: superpose all single-bit-flip images.

    Summation contract: each output amplitude is ((0.0 + image_0) + image_1)
    + ... + image_{n-1}, added in IEEE order j = 0..n-1 from +0.0. The images
    of the low GATHER_BITS bits stay within a GATHER_BLOCK-amplitude block, so
    they are gathered with one fancy index per block and folded by
    np.add.reduce along the image axis (initial=0.0 makes the +0.0 start
    explicit, so an all -0.0 sum is +0.0); higher bits add their reversed
    halves in place. The plan (bit counts, block width, flip table) is
    computed once per state size, so a small state pays for its arithmetic
    rather than for the set-up."""
    dim = state.shape[0]
    n, k, width, flips = _driver_plan(dim)
    if width == dim:
        out = np.add.reduce(state[flips], axis=0, initial=0.0)
    else:
        out = np.empty_like(state)
        for r in range(0, dim, width):
            np.add.reduce(state[r:r + width][flips], axis=0, initial=0.0, out=out[r:r + width])
    for j in range(k, n):
        halves = out.reshape(-1, 2, 1 << j)
        halves += state.reshape(-1, 2, 1 << j)[:, ::-1, :]
    return out


def _orbit_driver(orbits: Orbits):
    """driver_apply on orbit amplitudes w, w[i] the amplitude every state of
    orbit i carries: (X w)[i] = sum_j w[row[labels[i] ^ 2^j]], that is
    driver_apply(w[row])[labels] byte for byte (the same images, summed in bit
    order j = 0..n-1 from +0.0). Gathered GATHER_BLOCK orbits at a time (n
    blocks of scratch), by contiguous intp indices built once, which numpy
    gathers several times faster than strided or int32 ones."""
    labels, bits = orbits.labels, (1 << np.arange(orbits.row.size.bit_length() - 1))[:, None]
    starts = range(0, labels.size, GATHER_BLOCK)
    # block i, row j: the rows of block i's labels with bit j flipped
    blocks = [orbits.row[labels[r:r + GATHER_BLOCK] ^ bits].astype(np.intp) for r in starts]

    def flips(w):
        out = np.empty_like(w)
        for r, block in zip(starts, blocks):
            np.add.reduce(w[block], axis=0, initial=0.0, out=out[r:r + GATHER_BLOCK])
        return out

    return flips


def _sector_operator(a: float, b: float, h: csc_array) -> csc_array:
    """H(s) in one sector (see the module docstring): a matrix of
    diag.sectors with each column's diagonal entry scaled by a and its flip
    entries by b. Columns keep their entry order, so toarray() adds a
    repeated row's entries in bit order, after the diagonal entry."""
    n = h.data.size // h.shape[0] - 1
    scale = np.full(n + 1, b)
    scale[0] = a
    return csc_array(((h.data.reshape(-1, n + 1) * scale).ravel(), h.indices, h.indptr),
                     shape=h.shape)


def _dense_levels(h: csc_array, k: int) -> np.ndarray:
    """The min(k, dim) lowest eigenvalues of the sector operator h, ascending.
    LAPACK's partial solve can fail where a diagonal entry is near the
    smallest normal double (a(s) = 2^-1022); the full solve then takes over."""
    top = min(k, h.shape[0]) - 1
    try:
        return scipy.linalg.eigh(h.toarray(), eigvals_only=True, overwrite_a=True,
                                 subset_by_index=(0, top))
    except np.linalg.LinAlgError:
        return scipy.linalg.eigh(h.toarray(), eigvals_only=True, overwrite_a=True)[:top + 1]


def _lanczos_size(k: int) -> int:
    """ARPACK's Lanczos basis size for the k lowest levels."""
    return max(2 * k + 1, 40)


def _extremal_pairs(s: float, h: csc_array, k: int, vecs: np.ndarray):
    """The k lowest eigenpairs of the sector operator h orthogonal to the
    orthonormal eigenvectors vecs of h, ascending, from ARPACK with
    deterministic seeded starts: one of at most dim / 16 restarts where h has
    at most 2^DENSE_QUBIT_LIMIT states, and None if it fails, so that the
    dense solve takes over; up to three of dim restarts past that. Shifting vecs' levels past every level of h leaves the
    lowest levels of the rest as the lowest of the operator, so a copy of a
    degenerate level that an earlier solve missed is found."""
    dim = h.shape[0]
    dense_fallback = dim <= 1 << DENSE_QUBIT_LIMIT
    # h.T reads the columns as rows: the same symmetric operator, with a
    # faster matvec than compressed columns give
    op = rows = h.T
    if vecs.shape[1]:
        # twice the largest absolute column sum bounds the spread of h's levels
        shift = 2.0 * np.abs(h.data).reshape(dim, -1).sum(axis=1).max()
        op = LinearOperator(h.shape, matvec=lambda x: rows @ x + vecs @ (shift * (vecs.T @ x)),
                            dtype=np.float64)
    last_residual = np.nan
    for attempt in range(1 if dense_fallback else 3):
        # Lanczos from one start reaches one copy of a level repeated within
        # the sector, the start's projection on its eigenspace; once that copy
        # is among vecs, the same start has no component on the other copies,
        # so the seeds also count the vectors found
        v0 = np.random.default_rng(20_000 + 3 * vecs.shape[1] + attempt).standard_normal(dim)
        try:
            # a start can stall on a level repeated within the sector, or on
            # the bunched levels near s = 0 or 1. The next seed takes over
            # after dim restarts; the dense solve after dim / 16, about 2 300
            # matvecs at 1 312 states, which it solves in about 0.1 s
            vals, new = eigsh(op, k=k, which="SA", v0=v0, ncv=_lanczos_size(k),
                              maxiter=dim // 16 if dense_fallback else dim)
            order = np.argsort(vals)
            return vals[order], new[:, order]
        except ArpackNoConvergence as err:
            if getattr(err, "eigenvalues", None) is not None and len(err.eigenvalues):
                part, vals_part = err.eigenvectors, err.eigenvalues
                res = op @ part[:, 0] - vals_part[0] * part[:, 0]
                last_residual = float(np.linalg.norm(res))
    if dense_fallback:
        return None
    raise SpectrumError(
        f"at s = {s:.6g}: extremal eigensolver failed to converge after 3 seeded "
        f"restarts (last residual norm {last_residual:.3e})"
    )


def _check_request(svals, m: int, diag: ProblemDiagonal) -> None:
    """Refuse any s outside [0, 1] (NaN included) and any m outside 1..2^n."""
    for s in svals:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s must be within [0, 1], got {s}")
    dim = 1 << diag.n_qubits
    if not 1 <= m <= dim:
        raise ValueError(f"need 1 <= m <= {dim}, got {m}")


def lowest_eigenvalues(s: float, sched: Schedule, diag: ProblemDiagonal, m: int) -> np.ndarray:
    """The m smallest eigenvalues of H(s), ascending.

    Where a(s) or b(s) is 0, H(s) is diagonal (in the x basis if a is 0)
    and these are its m smallest entries. Otherwise H(s) is solved in each
    sector of diag.symmetries, the commuting involutions that leave the
    diagonal unchanged (see the module docstring), built once per diagonal,
    and the m lowest of all sectors' levels together are the m lowest levels
    of H(s), degenerate copies included. A sector of at most
    DENSE_SECTOR_STATES states, or too small for the Lanczos basis, gets its
    m lowest levels from a dense partial diagonalization. A larger one goes
    through ARPACK with deterministic seeded starts, which asks each of the S
    sectors for ceil(m / S) + 2 levels; a sector whose highest level found is
    at or below the merged m-th is asked for as many more, orthogonal to
    those found, until no sector can hold one of the m lowest that is
    missing. Where a symmetry outside the sectors' group can repeat a level
    within a sector (diag.multiplicity_free is False), each sector also gets
    one more single-level solve orthogonal to all it found, which finds any
    copy the earlier ones missed. Where ARPACK's start on a sector of at
    most 2^DENSE_QUBIT_LIMIT states has not converged after dim / 16
    restarts, as can happen within about 1e-3 of s = 0 or 1, that sector is
    solved dense instead; a larger one gets three seeded starts of dim
    restarts, then SpectrumError.

    The crossover was measured sector by sector on 17 ER and complete graphs
    at k = 1-4 (10-12 qubits, sectors of up to 1 312 states, m = 15 and 25,
    s = 0.1-0.9 on the linear schedule; best of three, 2-core VM), counting
    every ARPACK call a sector gets. The dense solve was faster in all 140
    sectors below 384 states and ARPACK in 88 of 90 from 896. Summed over all
    of them, a bound of 768-896 states took 12.0-12.1 s, against 13.8 s at
    512, 15.4 s all dense and 16.6 s all ARPACK. ARPACK's first solve alone
    breaks even near 400 states, but the re-asks and the extra single-level
    solves about double a sector's ARPACK cost.
    """
    _check_request((s,), m, diag)
    dim = 1 << diag.n_qubits
    a, b = float(sched.a(s)), float(sched.b(s))
    if a == 0.0 or b == 0.0:
        vals = (a * diag.values if b == 0.0 else
                b * (diag.n_qubits - 2.0 * np.bitwise_count(np.arange(dim))))
        return np.sort(np.partition(vals, m - 1)[:m])
    blocks = diag.sectors
    k = -(-m // len(blocks)) + 2
    levels = [np.empty(0)] * len(blocks)
    vecs = [np.empty((h.shape[0], 0)) for h in blocks]
    # no level of sector i below bounds[i] is missing from levels[i]
    bounds = [-np.inf] * len(blocks)
    mth = np.inf
    while True:
        for i, h in enumerate(blocks):
            found = levels[i]
            if bounds[i] > mth:
                continue
            h = _sector_operator(a, b, h)
            ask = k if found.size == 0 or found[-1] <= mth else 1
            pairs = None
            if h.shape[0] > max(DENSE_SECTOR_STATES, found.size + _lanczos_size(ask)):
                pairs = _extremal_pairs(s, h, ask, vecs[i])
            if pairs is None:
                levels[i], bounds[i] = _dense_levels(h, m), np.inf
                continue
            vals, new = pairs
            levels[i], vecs[i] = np.sort(np.concatenate((found, vals))), np.hstack((vecs[i], new))
            # a single-vector solve finds one copy of each level it reaches, so
            # where a symmetry can repeat a level within the sector only the
            # next solve, orthogonal to every vector found, bounds what is missing
            bounds[i] = levels[i][-1] if diag.multiplicity_free else vals[0]
        merged = np.sort(np.concatenate(levels))
        mth = merged[m - 1] if merged.size >= m else np.inf
        if all(bound > mth for bound in bounds):
            return merged[:m]


@dataclass(frozen=True)
class SpectrumTable:
    """Lowest-m eigenvalues tabulated over an s grid."""

    grid: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        lv = np.asarray(self.levels, dtype=np.float64)
        if lv.ndim != 2 or lv.shape[0] != g.shape[0]:
            raise ValueError("levels must be (len(grid), m)")
        if np.any(np.diff(lv, axis=1) < -1e-9):
            raise ValueError("levels must be non-decreasing within each row")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "levels", lv)

    @property
    def m(self) -> int:
        return self.levels.shape[1]

    def to_csv(self, path: str | Path) -> None:
        header = "s," + ",".join(f"level_{i}" for i in range(self.m))
        with open(path, "w") as f:
            f.write(header + "\n")
            for s, row in zip(self.grid, self.levels):
                f.write(f"{s:.10g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def spectrum_sweep(sched: Schedule, diag: ProblemDiagonal, grid, m: int) -> SpectrumTable:
    """lowest_eigenvalues over an s grid; a grid point outside [0, 1] or a
    bad m is refused before the first solve."""
    grid = np.atleast_1d(np.asarray(grid, dtype=np.float64))
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    _check_request(grid, m, diag)
    levels = np.empty((grid.size, m))
    for i, s in enumerate(grid):
        levels[i] = lowest_eigenvalues(float(s), sched, diag, m)
    return SpectrumTable(grid, levels)


def min_gap(table: SpectrumTable) -> tuple[float, float]:
    """Smallest distance between the ground level and the first level strictly
    above it (by more than DEGENERACY_TOL), over the grid. Returns (s, gap) at
    the first grid point attaining the minimum."""
    if table.m < 2:
        raise ValueError("need at least two levels to measure a gap")
    best_s, best_gap = None, np.inf
    for s, row in zip(table.grid, table.levels):
        above = row[row > row[0] + DEGENERACY_TOL]
        if above.size == 0:
            continue
        gap = float(above[0] - row[0])
        if gap < best_gap:
            best_s, best_gap = float(s), gap
    if best_s is None:
        raise SpectrumError(
            f"all {table.m} levels degenerate within {DEGENERACY_TOL} at every grid point"
        )
    return best_s, best_gap
