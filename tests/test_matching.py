"""The general-graph matching solver against an independent implementation."""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraph import maximum_matching
from idealgraph.graph import dense_from_edges
from idealgraph.matching import matching_edges, maximum_matching_adj


def solve(nv, edges):
    dense = dense_from_edges(nv, edges)
    mate = maximum_matching_adj(nv, dense.adj)
    pairs = matching_edges(mate)
    used = set()
    for u, v in pairs:
        assert (u, v) in [(a, b) for a, b in edges] or (v, u) in edges or (u, v) in edges
        assert u not in used and v not in used
        used.update((u, v))
    return len(pairs)


def test_empty_and_isolated():
    assert solve(0, []) == 0
    assert solve(3, []) == 0
    assert solve(4, [(0, 1)]) == 1


def test_odd_cycles():
    for k in (3, 5, 7, 9, 11):
        edges = [(i, (i + 1) % k) for i in range(k)]
        assert solve(k, edges) == k // 2


def test_petersen():
    G = nx.petersen_graph()
    assert solve(10, list(G.edges())) == 5


def test_disconnected_blossoms():
    # Two triangles joined by nothing: each contributes one matched pair.
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    assert solve(6, edges) == 2


def test_random_graphs_vs_networkx():
    rng = random.Random(20240817)
    for _ in range(300):
        nv = rng.randint(1, 12)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.35]
        want = len(nx.max_weight_matching(
            nx.Graph([(u, v) for u, v in edges] or None) if edges else nx.empty_graph(nv),
            maxcardinality=True))
        assert solve(nv, edges) == want


def test_worst_case_structures():
    # Chains of triangles connected by bridges exercise repeated blossom
    # contraction.
    edges = []
    base = 0
    for _ in range(6):
        a, b, c = base, base + 1, base + 2
        edges += [(a, b), (b, c), (c, a)]
        if base:
            edges.append((base - 1, a))
        base += 3
    nv = base
    want = len(nx.max_weight_matching(nx.Graph(edges), maxcardinality=True))
    assert solve(nv, edges) == want


@st.composite
def raw_graphs(draw):
    nv = draw(st.integers(0, 16))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    density = draw(st.sampled_from((0.1, 0.2, 0.35, 0.6)))
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return nv, [p for p, x in zip(pairs, coins) if x < density]


@settings(max_examples=300, deadline=None)
@given(raw_graphs())
def test_maximum_matching_property_raw_graphs(graph):
    nv, edges = graph
    dense = dense_from_edges(nv, edges)
    size, pairs, perfect = maximum_matching(dense)
    assert size == len(pairs)
    covered = [v for pair in pairs for v in pair]
    assert len(set(covered)) == len(covered)
    assert all(dense.adj[u] >> v & 1 for u, v in pairs)
    G = nx.Graph()
    G.add_nodes_from(range(nv))
    G.add_edges_from(edges)
    assert size == len(nx.max_weight_matching(G, maxcardinality=True))
    assert perfect == (nv > 0 and 2 * size == nv)
