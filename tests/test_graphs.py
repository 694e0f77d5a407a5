import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealab.graphs import (
    Graph,
    automorphisms,
    generate_er,
    greedy_color_largest_first,
    path_graph,
)
from oracles import brute_force_automorphisms, complete_graph, cycle_graph, is_proper_coloring


def test_edges_canonicalized():
    g = Graph(4, ((2, 1), (3, 0)))
    assert g.edges == ((0, 3), (1, 2))


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))


def test_rejects_duplicate_even_when_reversed():
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))


def test_degrees_and_neighbors():
    g = path_graph(4)
    assert g.degrees() == [1, 2, 2, 1]
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_er_p_zero_and_one():
    assert len(generate_er(10, 0.0, 7).edges) == 0
    g = generate_er(6, 1.0, 7)
    assert g.edges == complete_graph(6).edges


def test_er_determinism():
    a = generate_er(20, 0.5, 123)
    b = generate_er(20, 0.5, 123)
    c = generate_er(20, 0.5, 124)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_er_density_sane():
    # mean degree should land near p*(n-1) over a few seeds
    n, p = 40, 0.3
    total = sum(len(generate_er(n, p, s).edges) for s in range(10))
    expected = 10 * p * n * (n - 1) / 2
    assert 0.8 * expected < total < 1.2 * expected


@pytest.mark.parametrize("g, order", [
    (path_graph(5), 2), (cycle_graph(5), 10), (cycle_graph(6), 12), (complete_graph(4), 24),
    (Graph(5), 120), (Graph(4, ((0, 1), (0, 2), (0, 3))), 6), (Graph(4, ((0, 1), (2, 3))), 8),
], ids=["P5", "C5", "C6", "K4", "edgeless-5", "star-K13", "two-disjoint-edges"])
def test_automorphisms_match_the_known_group_orders(g, order):
    found = list(automorphisms(g))
    assert len(found) == order == len(set(found))
    assert found[0] == tuple(range(g.n_vertices)) and found == sorted(found)
    for p in found:
        assert sorted(p) == list(range(g.n_vertices))
        assert Graph(g.n_vertices, tuple((p[u], p[v]) for u, v in g.edges)).edges == g.edges


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 7), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_automorphisms_match_the_brute_force_filter(n, p, seed):
    g = generate_er(n, p, seed)
    every = brute_force_automorphisms(g)
    assert list(automorphisms(g)) == every
    involutions = [p for p in every if all(p[w] == v for v, w in enumerate(p))]
    assert list(automorphisms(g, commuting=[])) == involutions
    # commuting with the last involution, the identity if it is the only one
    h = involutions[-1]
    assert list(automorphisms(g, commuting=[h])) == [
        p for p in involutions if all(p[h[v]] == h[p[v]] for v in range(n))]


def test_automorphisms_of_a_long_path_need_no_pass_over_all_orders():
    # the brute-force filter would walk 12! orders; the search prunes at the
    # first vertex whose degree or earlier adjacency disagrees
    assert list(automorphisms(path_graph(12))) == [tuple(range(12)), tuple(range(11, -1, -1))]


def test_involutive_automorphisms_of_an_edgeless_graph_skip_the_other_orders():
    # 10! = 3 628 800 automorphisms, of which 9 496 are involutions, and
    # 2 * 764 of those commute with (0 1): the involutions of S_2 x S_8
    found = list(automorphisms(Graph(10), commuting=[]))
    assert len(found) == 9496 and found[:2] == [tuple(range(10)), (*range(8), 9, 8)]
    swap = (1, 0, *range(2, 10))
    assert sum(1 for _ in automorphisms(Graph(10), commuting=[swap])) == 1528


def test_greedy_k3_needs_three():
    k, col = greedy_color_largest_first(complete_graph(3))
    assert k == 3
    assert is_proper_coloring(complete_graph(3), col)


def test_greedy_path_two_colors():
    g = path_graph(5)
    k, col = greedy_color_largest_first(g)
    assert k == 2
    assert is_proper_coloring(g, col)


def test_greedy_odd_cycle_three_colors():
    g = cycle_graph(5)
    k, col = greedy_color_largest_first(g)
    assert k == 3
    assert is_proper_coloring(g, col)


def test_greedy_edgeless():
    k, col = greedy_color_largest_first(Graph(4))
    assert k == 1
    assert set(col.values()) == {0}


def test_greedy_proper_and_bounded_on_random():
    for seed in range(8):
        g = generate_er(16, 0.4, seed)
        k, col = greedy_color_largest_first(g)
        assert is_proper_coloring(g, col)
        assert k <= max(g.degrees(), default=0) + 1


def test_is_proper_rejects_partial_or_conflicting():
    g = path_graph(3)
    assert not is_proper_coloring(g, {0: 0, 1: 1})
    assert not is_proper_coloring(g, {0: 0, 1: 0, 2: 1})
    assert is_proper_coloring(g, {0: 0, 1: 1, 2: 0})


def test_json_roundtrip(tmp_path):
    g = generate_er(12, 0.5, 3)
    f = tmp_path / "g.json"
    g.save(f)
    assert Graph.load(f) == g
    obj = json.loads(f.read_text())
    assert set(obj) == {"n", "edges"}


def test_fixed_seed_snapshot_pins_the_rng_stream():
    # frozen once from (n=15, p=0.5, seed=42); a change means the generator
    # no longer draws one uniform per lexicographic vertex pair
    g = generate_er(15, 0.5, 42)
    assert len(g.edges) == 54
    assert g.edges[:6] == ((0, 2), (0, 5), (0, 9), (0, 10), (0, 11), (1, 2))
    assert g.edges[-4:] == ((10, 12), (10, 13), (10, 14), (12, 13))
    assert sum(u + v for u, v in g.edges) == 785


@pytest.mark.parametrize("call, match", [
    (lambda: Graph(0), "graph needs at least one vertex, got 0"),
    (lambda: Graph.from_json('{"n": 2, "edges": [[0]]}'),
     r"graph 'edges' must be a list of \[u, v\] integer pairs"),
    (lambda: generate_er(3, 1.5, 0), r"edge probability must be in \[0, 1\], got 1.5"),
    (lambda: generate_er(0, 0.5, 0), "need n >= 1, got 0"),
], ids=["no-vertices", "malformed-edge", "er-probability", "er-size"])
def test_graphs_refuse_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
