"""Graph-coloring QUBO construction, evaluation and Ising conversion.

A k-coloring of graph G is encoded one-hot: binary variable (v, c) means
vertex v takes color c, flattened to index v*k + c. The cost is

    E(x) = P * sum_v (1 - sum_c x_{v,c})^2 + P * sum_{(u,v) in E} sum_c x_{u,c} x_{v,c}

so E(x) = 0 exactly when every vertex has one color and no edge is
monochromatic (a feasibility QUBO). Expanding the one-hot square gives a
constant offset P per vertex, linear terms -P and pairwise +2P inside each
vertex block.

Bit order: variable i is character i of a bits string and bit i (little
endian) of a basis-state index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

# energies at or below this count as valid; exact for this feasibility QUBO,
# whose minimum is 0 precisely on the proper colorings
VALID_ENERGY_TOL = 1e-9


def index_to_bits(idx: int, n: int) -> str:
    return "".join("1" if (idx >> i) & 1 else "0" for i in range(n))


def bits_to_index(bits) -> int:
    return sum(1 << i for i, b in enumerate(bits_to_array(bits)) if b)


def bits_to_array(bits) -> np.ndarray:
    """The uint8 array of a string of 0s and 1s or an array of 0/1 values:
    the one bitstring reader; any other character or value is refused."""
    # a character's byte minus that of "0" is 0 or 1 only for the two digits
    x = (np.frombuffer(bits.encode(), np.uint8) - ord("0") if isinstance(bits, str)
         else np.asarray(bits))
    if not np.all((x == 0) | (x == 1)):
        raise ValueError(f"bits must be 0s and 1s, got {bits!r}")
    return x.astype(np.uint8)


@dataclass(frozen=True)
class Sample:
    """One sampled assignment with its QUBO energy."""

    bits: str
    energy: float

    @property
    def valid(self) -> bool:  # the one validity rule
        return abs(self.energy) <= VALID_ENERGY_TOL


@dataclass(frozen=True)
class QuboProblem:
    """Upper-triangular QUBO: E(x) = offset + sum_{i<=j} q[i,j] x_i x_j.

    Diagonal entries are the linear terms (x_i^2 = x_i). var_map carries the
    (vertex, color, index) layout when built from a coloring instance; source
    keeps the graph so bitstrings can be validated combinatorially.
    """

    n_vars: int
    q: tuple[tuple[int, int, float], ...] = ()
    offset: float = 0.0
    var_map: tuple[tuple[int, int, int], ...] = ()
    k: int = 0
    source: Graph | None = None

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError(f"need at least one variable, got {self.n_vars}")
        seen = set()
        for i, j, _ in self.q:
            if not (0 <= i <= j < self.n_vars):
                raise ValueError(f"entry ({i}, {j}) must satisfy 0 <= i <= j < n_vars")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry ({i}, {j})")
            seen.add((i, j))

    def energy(self, bits) -> float:
        x = bits_to_array(bits)
        if x.shape != (self.n_vars,):
            raise ValueError(f"expected {self.n_vars} bits, got shape {x.shape}")
        return float(self.energies(x[None, :])[0])

    def energies(self, batch: np.ndarray) -> np.ndarray:
        """Energies of a (m, n_vars) batch of 0/1 rows."""
        x = bits_to_array(batch)
        return self.energy_sum(lambda i: x[:, i])

    def energy_sum(self, bit) -> np.ndarray:
        """offset + v * x_i * x_j for each (i, j, v) of q in order, in float64,
        where bit(i) is the integer 0/1 array of variable i over the states
        summed: the one QUBO summation of energies and the problem diagonal."""
        e = np.full(bit(0).shape, float(self.offset))
        for i, j, v in self.q:
            e += v * (bit(i) if i == j else bit(i) & bit(j))
        return e

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_vars": self.n_vars,
                "offset": self.offset,
                "entries": [[i, j, v] for i, j, v in self.q],
                "var_map": [list(t) for t in self.var_map],
            }
        )


@dataclass(frozen=True)
class IsingProblem:
    """Spin model: E(s) = offset + sum_i h[i] s_i + sum_{i<j} j_table s_i s_j, s_i in {-1,+1}."""

    n_spins: int
    h: tuple[float, ...]
    j: tuple[tuple[int, int, float], ...]
    offset: float = 0.0

    def __post_init__(self):
        if len(self.h) != self.n_spins:
            raise ValueError("h length must equal n_spins")
        for i, jj, _ in self.j:
            if not (0 <= i < jj < self.n_spins):
                raise ValueError(f"coupling ({i}, {jj}) must satisfy 0 <= i < j < n_spins")

    def energy(self, spins) -> float:
        s = np.asarray(spins, dtype=np.float64)
        e = self.offset + float(np.dot(self.h, s))
        for i, jj, v in self.j:
            e += v * s[i] * s[jj]
        return e


def build_coloring_qubo(g: Graph, k: int, penalty: float = 1.0) -> QuboProblem:
    """One-hot k-coloring QUBO for g. Minimum value is 0 iff g is k-colorable."""
    if k < 1:
        raise ValueError(f"need at least one color, got k={k}")
    if not 0 < penalty < np.inf:
        raise ValueError(f"penalty must be positive and finite, got {penalty}")
    idx = lambda v, c: v * k + c
    table: dict[tuple[int, int], float] = {}
    for v in range(g.n_vertices):
        for c in range(k):
            table[(idx(v, c), idx(v, c))] = -penalty
            for c2 in range(c + 1, k):
                table[(idx(v, c), idx(v, c2))] = 2.0 * penalty
    for u, v in g.edges:
        for c in range(k):
            a, b = sorted((idx(u, c), idx(v, c)))
            table[(a, b)] = table.get((a, b), 0.0) + penalty
    return QuboProblem(
        n_vars=g.n_vertices * k,
        q=tuple((i, j, v) for (i, j), v in sorted(table.items())),
        offset=penalty * g.n_vertices,
        var_map=tuple((v, c, idx(v, c)) for v in range(g.n_vertices) for c in range(k)),
        k=k,
        source=g,
    )


def qubo_to_ising(q: QuboProblem) -> IsingProblem:
    """Convert under s_i = 1 - 2 x_i; energies agree configuration by configuration."""
    h = np.zeros(q.n_vars)
    offset = q.offset
    couplings: dict[tuple[int, int], float] = {}
    for i, j, v in q.q:
        if i == j:
            # v*x = v/2 - (v/2) s
            h[i] -= v / 2.0
            offset += v / 2.0
        else:
            # v*x_i*x_j = v/4 (1 - s_i - s_j + s_i s_j)
            couplings[(i, j)] = couplings.get((i, j), 0.0) + v / 4.0
            h[i] -= v / 4.0
            h[j] -= v / 4.0
            offset += v / 4.0
    return IsingProblem(
        n_spins=q.n_vars,
        h=tuple(h),
        j=tuple((i, j, v) for (i, j), v in sorted(couplings.items())),
        offset=offset,
    )


def validate(q: QuboProblem, bits) -> bool:
    """True iff each vertex's one-hot block in var_map has one bit set and no
    edge of q.source is monochromatic; Sample.valid without a source graph.
    Sample.valid is the package's one validity rule; this independent check of
    it is not exported, and stays here for the benchmark, which binds it."""
    if q.source is None:
        return Sample(bits, q.energy(bits)).valid
    if not q.var_map:
        raise ValueError("QUBO has no variable map; not a coloring instance")
    x = bits_to_array(bits)
    if x.shape != (q.n_vars,):
        raise ValueError(f"expected {q.n_vars} bits, got shape {x.shape}")
    set_bits = [(v, c) for v, c, i in q.var_map if x[i]]
    color = dict(set_bits)  # one entry per vertex with a bit set
    return (len(set_bits) == len(color) == q.source.n_vertices
            and all(color[u] != color[v] for u, v in q.source.edges))
