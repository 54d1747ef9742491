"""The general-graph matching solver against an independent implementation."""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraph import build_boolean
from idealgraph.matching import matching_edges, maximum_matching_adj
from oracles import adj_from_edges, maximum_matching_full_scan


def solve(nv, edges):
    mate = maximum_matching_adj(nv, adj_from_edges(nv, edges))
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
    adj = adj_from_edges(nv, edges)
    mate = maximum_matching_adj(nv, adj)
    pairs = matching_edges(mate)
    size = len(pairs)
    assert all(mate[v] == -1 or mate[mate[v]] == v for v in range(nv))
    covered = [v for pair in pairs for v in pair]
    assert len(set(covered)) == len(covered)
    assert all(adj[u] >> v & 1 for u, v in pairs)
    G = nx.Graph()
    G.add_nodes_from(range(nv))
    G.add_edges_from(edges)
    assert size == len(nx.max_weight_matching(G, maxcardinality=True))


@settings(max_examples=300, deadline=None)
@given(raw_graphs())
def test_blossom_members_match_full_scan(graph):
    # Contracting a blossom through its members' bitset visits the same
    # vertices in the same order as a scan of all vertices: identical mates.
    nv, edges = graph
    adj = adj_from_edges(nv, edges)
    assert maximum_matching_adj(nv, adj) == maximum_matching_full_scan(nv, adj)


# Random graphs on which a contraction absorbs an earlier blossom: the
# search must re-base every member of the absorbed blossom, not only its
# base vertex.
NESTED_BLOSSOMS = [
    (17, """
0-1 0-4 0-5 0-6 0-8 1-4 1-12 2-7 2-10 2-11 3-8 4-5 4-6 4-13 5-8
5-13 5-15 6-9 7-10 7-14 8-14 8-15 8-16 9-12 9-13 10-14 14-15 14-16
"""),
    (25, """
0-11 0-15 0-16 0-21 1-3 1-5 1-7 1-16 2-9 2-17 2-20 2-21 3-6 3-11
3-14 3-16 3-20 4-7 4-10 4-13 4-15 4-16 4-17 4-18 5-6 5-11 5-13
5-16 5-23 6-15 6-16 6-19 6-22 7-11 7-17 7-20 7-21 7-24 8-10 9-14
9-20 9-23 10-23 11-14 11-24 12-14 12-19 13-14 14-20 14-21 15-22
15-23 16-19 17-21 17-23 19-20 19-24 20-22
"""),
]


def test_nested_blossoms_match_full_scan():
    for nv, text in NESTED_BLOSSOMS:
        edges = [tuple(map(int, pair.split("-"))) for pair in text.split()]
        adj = adj_from_edges(nv, edges)
        assert maximum_matching_adj(nv, adj) == maximum_matching_full_scan(nv, adj)


def test_blossom_members_match_full_scan_boolean():
    # Even n leaves exposed vertices after the greedy warm start; n=12 runs
    # over a thousand contractions.
    for n in (4, 6, 8, 10, 12):
        dense = build_boolean(n).dense()
        mate = maximum_matching_adj(dense.size, dense.adj)
        assert mate == maximum_matching_full_scan(dense.size, dense.adj)
        assert -1 not in mate
