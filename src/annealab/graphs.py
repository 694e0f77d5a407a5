"""Random graph instances and greedy coloring.

Erdos-Renyi generation uses numpy's PCG64 generator so that fixed seeds
reproduce the same edge set across platforms and releases.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
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


def automorphisms(g: Graph, commuting: Sequence[tuple[int, ...]] | None = None
                  ) -> Iterator[tuple[int, ...]]:
    """The vertex permutations p (v goes to p[v]) that map g's edge set onto
    itself, yielded in lexicographic order, the identity first; with
    commuting, a sequence the caller may add to between yields, only the
    involutions (p[p[v]] == v) that commute with each of its maps. A
    depth-first search picks p[0], p[1], ... in increasing order and drops a
    partial map at the first vertex whose degree, or whose adjacency to an
    earlier vertex, differs from its image's, or, with commuting, whose image
    is an earlier vertex not mapped to it or a later one while an earlier
    vertex maps to it, or where p h differs from h p for an h of commuting. An
    edgeless 10-vertex graph has 10! automorphisms but 9 496 involutive ones,
    of which 1 528 commute with (0 1)."""
    n = g.n_vertices
    adjacent = [[False] * n for _ in range(n)]
    for u, v in g.edges:
        adjacent[u][v] = adjacent[v][u] = True
    deg = g.degrees()
    p: list[int] = []

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(p)
            return
        for w in range(n):
            if commuting is not None and (p[w] != v if w < v else v in p):
                continue
            # p h = h p at u = v and at u = h[v], once both are mapped
            if (w not in p and deg[w] == deg[v]
                    and all(adjacent[v][u] == adjacent[w][p[u]] for u in range(v))
                    and all(h[v] > v or (w if h[v] == v else p[h[v]]) == h[w]
                            for h in commuting or ())):
                p.append(w)
                yield from extend(v + 1)
                p.pop()

    return extend(0)


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

