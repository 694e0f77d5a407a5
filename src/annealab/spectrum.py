"""Instantaneous spectra of H(s) = a(s) H_problem + b(s) H_driver.

H_problem is diagonal in the computational basis (entry = QUBO energy of the
basis bitstring, offset included). The driver is +sum_j sigma^x_j, applied
matrix-free by bit flips; its ground eigenvalue is -n. Note the + sign follows
the source convention for the driver; it flips the driver spectrum relative to
the more common -sum sigma^x but leaves every measurement probability and gap
structure unchanged.

Basis convention: variable i is bit i (little endian) of the basis index.

Dense solves split H(s) into the two sectors of one basis permutation pi that
swaps pairs of bits and leaves the problem diagonal unchanged (for a one-hot
coloring diagonal: swapping colors 0 and 1 at every vertex). The driver
commutes with every bit permutation, so pi commutes with H(s), and H(s) is
block diagonal in the basis of even vectors (|f> for each fixed point f of
pi, (|x> + |pi x>)/sqrt 2 for each pair x < pi x) and odd vectors
((|x> - |pi x>)/sqrt 2). The union of the two blocks' spectra is the
spectrum of H(s), multiplicities included; each block is about half the size,
so a dense solve costs about a quarter as much.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .coloring_qubo import QuboProblem
from .schedules import Schedule

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


@dataclass(frozen=True)
class ProblemDiagonal:
    """The 2^n diagonal of the problem Hamiltonian."""

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (1 << self.n_qubits,):
            raise ValueError(f"need 2^{self.n_qubits} diagonal entries, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @cached_property
    def bounds(self) -> tuple[float, float]:
        return float(self.values.min()), float(self.values.max())

    @cached_property
    def color_swap(self) -> np.ndarray:
        """The basis permutation that swaps bits v*k and v*k + 1 for every
        v < n_qubits / k, for the smallest stride k >= 2 dividing n_qubits
        under which the diagonal is unchanged (the swap of colors 0 and 1 at
        every vertex v of a one-hot layout of k colors); the identity if
        there is no such k."""
        n = self.n_qubits
        x = np.arange(1 << n)
        for k in range(2, n + 1):
            if n % k:
                continue
            low = sum(1 << v for v in range(0, n, k))
            swapped = ((x >> 1) & low) | ((x & low) << 1) | (x & ~(low * 3))
            if np.array_equal(self.values[swapped], self.values):
                return swapped
        return x


def build_problem_diagonal(q: QuboProblem) -> ProblemDiagonal:
    """Tabulate QuboProblem.energy(x) for every basis state x. Guarded at QUBIT_CAP qubits."""
    if q.n_vars > QUBIT_CAP:
        raise ValueError(f"diagonal construction capped at {QUBIT_CAP} qubits, got {q.n_vars}")
    r = np.arange(1 << q.n_vars, dtype=np.uint32)
    return ProblemDiagonal(q.n_vars, q.energy_sum(lambda i: (r >> i) & 1))


@cache
def _flip_table(k: int, width: int) -> np.ndarray:
    """Read-only (k, width) indices: row j is arange(width) with bit j flipped.
    One table per state size up to GATHER_BLOCK amplitudes, so the cache stays small."""
    table = np.arange(width) ^ (1 << np.arange(k))[:, None]
    table.flags.writeable = False
    return table


def driver_apply(state: np.ndarray) -> np.ndarray:
    """(sum_j sigma^x_j) |state>: superpose all single-bit-flip images.

    Summation contract: each output amplitude is ((0.0 + image_0) + image_1)
    + ... + image_{n-1}, added in IEEE order j = 0..n-1 from +0.0. The images
    of the low GATHER_BITS bits stay within a GATHER_BLOCK-amplitude block, so
    they are gathered with one fancy index per block and folded by
    np.add.reduce along the image axis (initial=0.0 makes the +0.0 start
    explicit, so an all -0.0 sum is +0.0); higher bits add their reversed
    halves in place."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    k = min(n, GATHER_BITS)
    width = min(dim, GATHER_BLOCK)
    flips = _flip_table(k, width)
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


def apply_hamiltonian(s: float, sched: Schedule, diag: ProblemDiagonal, state: np.ndarray) -> np.ndarray:
    """H(s)|state> = (a(s) * diag) * state + b(s) * driver_apply(state),
    matrix-free in O(n 2^n); the one H(s) matvec."""
    if state.shape != diag.values.shape:
        raise ValueError(f"state shape {state.shape} does not match {diag.values.shape}")
    out = float(sched.a(s)) * diag.values * state
    b = float(sched.b(s))
    if b != 0.0:
        out = out + b * driver_apply(state)
    return out


def _sector_hamiltonians(a: float, b: float, diag: ProblemDiagonal):
    """H(s) in the even, then the odd sector of diag.color_swap (see the module
    docstring), each built from the diagonal and the single-bit flips alone.

    A sector vector is sum_z coef[z] |z> over one orbit {x, pi x}, labelled by
    its smallest state x. Flipping bit j of the label x lands on y, and adds
    b * coef[y] / coef[x] to the entry in the row of y's orbit."""
    perm = diag.color_swap
    x = np.arange(perm.size)
    orbit = np.minimum(x, perm)
    fixed = perm == x
    r = np.sqrt(0.5)
    # a fixed point has coefficient 0 in the odd sector, so the row it names
    # (any row in range) gains exactly 0.0
    for is_label, coef in ((x <= perm, np.where(fixed, 1.0, r)),
                           (x < perm, np.where(fixed, 0.0, np.where(x < perm, r, -r)))):
        labels = x[is_label]
        row = np.maximum(np.cumsum(is_label) - 1, 0)[orbit]
        cols = np.arange(labels.size)
        h = np.zeros((labels.size, labels.size), order="F")
        h[cols, cols] = a * diag.values[labels]
        scale = b / coef[labels]
        for j in range(diag.n_qubits):
            flipped = labels ^ (1 << j)
            h[row[flipped], cols] += scale * coef[flipped]
        yield h


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
    and these are its m smallest entries. Otherwise, up to 12 qubits, dense
    partial diagonalization of the even and the odd sector of
    diag.color_swap, which commutes with H(s) (see the module docstring):
    the m lowest of the two sectors' lowest levels together are exactly the
    m lowest levels of H(s), degenerate copies included. Above 12 qubits, an
    iterative extremal solver on the matrix-free operator with deterministic
    seeded restarts, which can drop copies of a level that a symmetry of
    H(s) makes degenerate.
    """
    _check_request((s,), m, diag)
    dim = 1 << diag.n_qubits
    a, b = float(sched.a(s)), float(sched.b(s))
    if a == 0.0 or b == 0.0:
        vals = (a * diag.values if b == 0.0 else
                b * (diag.n_qubits - 2.0 * np.bitwise_count(np.arange(dim))))
        return np.sort(np.partition(vals, m - 1)[:m])
    if diag.n_qubits <= DENSE_QUBIT_LIMIT:
        levels = [scipy.linalg.eigh(h, eigvals_only=True, overwrite_a=True,
                                    subset_by_index=(0, min(m, len(h)) - 1))
                  for h in _sector_hamiltonians(a, b, diag) if len(h)]
        return np.sort(np.concatenate(levels))[:m]
    op = LinearOperator((dim, dim), matvec=lambda x: apply_hamiltonian(s, sched, diag, x),
                        dtype=np.float64)
    last_residual = np.nan
    for attempt in range(3):
        v0 = np.random.default_rng(20_000 + attempt).standard_normal(dim)
        try:
            vals = eigsh(
                op,
                k=m,
                which="SA",
                v0=v0,
                ncv=min(dim - 1, max(2 * m + 1, 40)),
                maxiter=50 * dim,
                return_eigenvectors=False,
            )
            return np.sort(vals)
        except ArpackNoConvergence as err:
            if getattr(err, "eigenvalues", None) is not None and len(err.eigenvalues):
                vecs, vals_part = err.eigenvectors, err.eigenvalues
                res = op.matvec(vecs[:, 0]) - vals_part[0] * vecs[:, 0]
                last_residual = float(np.linalg.norm(res))
    raise SpectrumError(
        f"at s = {s:.6g}: extremal eigensolver failed to converge after 3 seeded "
        f"restarts (last residual norm {last_residual:.3e})"
    )


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
