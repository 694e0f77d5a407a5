"""Random graph instances and greedy coloring.

Erdos-Renyi generation uses numpy's PCG64 generator so that fixed seeds
reproduce the same edge set across platforms and releases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with edges stored once in (min, max) order."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError(f"graph needs at least one vertex, got {self.n_vertices}")
        seen = set()
        canonical = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n_vertices} vertices")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def to_json(self) -> str:
        return json.dumps({"n": self.n_vertices, "edges": [list(e) for e in self.edges]})

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        obj = json.loads(text)
        if not isinstance(obj, dict) or not {"n", "edges"} <= obj.keys():
            raise ValueError("graph JSON must be an object with keys 'n' and 'edges'")
        n, edges = obj["n"], obj["edges"]
        if not _is_int(n):
            raise ValueError(f"graph 'n' must be an integer, got {n!r}")
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges):
            raise ValueError("graph 'edges' must be a list of [u, v] integer pairs")
        return cls(n_vertices=n, edges=tuple((u, v) for u, v in edges))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Graph":
        return cls.from_json(Path(path).read_text())


def path_graph(n: int) -> Graph:
    """Chain of n vertices without periodic boundary."""
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def generate_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each candidate edge kept independently with probability p.

    Candidate pairs are visited in lexicographic order and one uniform draw is
    consumed per pair, so the edge set is a pure function of (n, p, seed).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, tuple(edges))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """The vertex permutations p (v goes to p[v]) that map g's edge set onto
    itself, in lexicographic order, the identity first: one pass over n! orders."""
    edges = set(g.edges)
    return [p for p in permutations(range(g.n_vertices))
            if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in g.edges)]


def greedy_color_largest_first(g: Graph) -> tuple[int, dict[int, int]]:
    """Largest-first greedy coloring.

    Vertices are processed in order of non-increasing degree (ties broken by
    ascending vertex index); each gets the smallest color unused by its
    already-colored neighbors. Returns (number of colors used, coloring).
    """
    deg = g.degrees()
    order = sorted(range(g.n_vertices), key=lambda v: (-deg[v], v))
    adjacency: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for u, v in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    coloring: dict[int, int] = {}
    for v in order:
        taken = {coloring[w] for w in adjacency[v] if w in coloring}
        c = 0
        while c in taken:
            c += 1
        coloring[v] = c
    k = max(coloring.values()) + 1 if coloring else 1
    return k, coloring

