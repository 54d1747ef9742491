"""Exact invariants against closed forms and independent networkx oracles."""

import functools
import itertools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealgraph import (
    DenseGraph,
    TooLargeError,
    build_boolean,
    build_from_family,
    chromatic_number,
    clique_number,
    compute_report,
    connectivity,
    domination_number,
    enumerate_left_ideals,
    girth,
    independence_number,
    maximum_matching,
    null_semigroup,
    perfectness,
    planarity,
    right_zero,
    right_zero_with_identity,
    structural_flags,
)
from idealgraph import invariants, planar
from idealgraph.cli import main
from idealgraph.graph import bits
from idealgraph.invariants import classify_kuratowski
from idealgraph.semigroup import parse_cayley_table, serialize_cayley_table
from idealgraph.theorems import builtin_corpus
from oracles import (
    _find_hole_of_length,
    adj_from_edges,
    complement_adj,
    diameter_per_source,
    exact_chromatic,
    girth_per_vertex_bfs,
    max_clique_bb,
    pairwise_inclusion_graph,
    raw_graph_numbers,
)

INF = math.inf


def to_nx(g):
    """The networkx graph of an inclusion graph or of adjacency bitsets."""
    adj = g if isinstance(g, list) else invariants._dense(g).adj
    G = nx.Graph()
    G.add_nodes_from(range(len(adj)))
    G.add_edges_from((u, v) for u, a in enumerate(adj) for v in bits(a) if u < v)
    return G


def sample_graphs():
    """Assorted inclusion graphs, generic and Boolean."""
    out = [
        build_boolean(2), build_boolean(3), build_boolean(4), build_boolean(5),
        build_from_family(enumerate_left_ideals(null_semigroup(3))),
        build_from_family(enumerate_left_ideals(null_semigroup(4))),
        build_from_family(enumerate_left_ideals(right_zero_with_identity(3))),
        build_from_family(enumerate_left_ideals(right_zero(4))),
    ]
    return out


# --- connectivity / diameter -----------------------------------------------

def test_connectivity_examples():
    assert connectivity(build_boolean(2)) == (2, INF)
    assert connectivity(build_boolean(3)) == (1, 3)
    path = build_from_family(enumerate_left_ideals(null_semigroup(3)))
    assert connectivity(path) == (1, 2)


def check_connectivity_against_networkx(g):
    G = to_nx(g)
    comps, diam = connectivity(g)
    assert comps == nx.number_connected_components(G)
    assert diam == (nx.diameter(G) if comps == 1 else INF)


def test_connectivity_against_networkx():
    for g in sample_graphs():
        check_connectivity_against_networkx(g)


def _raw_graphs(nv):
    pairs = list(itertools.combinations(range(nv), 2))
    edges = st.sets(st.sampled_from(pairs), max_size=30) if pairs else st.just(set())
    return edges.map(lambda e: adj_from_edges(nv, sorted(e)))


raw_graphs = st.integers(min_value=0, max_value=14).flatmap(_raw_graphs)
mask_families = st.lists(st.integers(min_value=1, max_value=(1 << 7) - 1),
                         min_size=1, max_size=40)


def union_closed(generators):
    """Every union of a nonempty subset of the generators."""
    return {functools.reduce(int.__or__, combo)
            for r in range(1, len(generators) + 1)
            for combo in itertools.combinations(generators, r)}


@settings(max_examples=150, deadline=None)
@given(raw_graphs)
def test_connectivity_property_raw_graphs(adj):
    # The component kernel and the diameter oracle take any graph.
    G = to_nx(adj)
    assert len(invariants._components(adj)) == nx.number_connected_components(G)
    if adj:
        assert diameter_per_source(adj) == (nx.diameter(G) if nx.is_connected(G) else INF)


@settings(max_examples=100, deadline=None)
@given(mask_families)
def test_connectivity_property_mask_families(masks):
    check_connectivity_against_networkx(pairwise_inclusion_graph(masks))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=(1 << 8) - 1), min_size=1, max_size=6))
def test_connectivity_property_union_closed_families(generators):
    g = pairwise_inclusion_graph(union_closed(generators))
    check_connectivity_against_networkx(g)


def check_diameter_routes(g):
    """connectivity equals the per-source oracle, and on a connected graph
    that is not complete the extremes give a witness pair at that
    distance."""
    dense = invariants._dense(g)
    want = diameter_per_source(dense.adj)
    assert connectivity(g)[1] == want
    found = invariants._diameter_extremes(dense)
    if want == INF or want <= 1:
        assert found is None
        return
    diam, u, v = found
    assert diam == want == nx.shortest_path_length(to_nx(dense), u, v)


def check_girth_routes(g):
    dense = invariants._dense(g)
    want = girth_per_vertex_bfs(dense.adj)
    assert girth(g) == invariants._girth_bfs(dense.adj) == want


def walk_family(walk):
    """The points of a walk on 8 points and the pairs of its steps: the
    inclusion graph is the walked graph subdivided, connected and often of
    diameter above 3, so the balls grow past radius 3."""
    return ([1 << e for e in walk]
            + [1 << a | 1 << b for a, b in zip(walk, walk[1:]) if a != b])


thin_families = st.lists(st.integers(min_value=0, max_value=7),
                         min_size=1, max_size=12).map(walk_family)


def fence(k):
    """{0} < {0,1} > {1} < {1,2} > ... on k + 1 points: a path of 2k + 1
    vertices."""
    return pairwise_inclusion_graph([1 << i for i in range(k + 1)] + [3 << i for i in range(k)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(mask_families, thin_families))
def test_extremes_diameter_matches_oracle_on_mask_families(masks):
    g = pairwise_inclusion_graph(masks)
    check_diameter_routes(g)
    check_girth_routes(g)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=(1 << 8) - 1), min_size=1, max_size=6))
def test_extremes_diameter_matches_oracle_on_union_closed_families(generators):
    g = pairwise_inclusion_graph(union_closed(generators))
    check_diameter_routes(g)
    check_girth_routes(g)


def test_extremes_diameter_on_fences_and_boolean_models():
    for k in range(14):
        g = fence(k)
        assert connectivity(g) == (1, 2 * k)
        assert girth(g) == INF
        check_diameter_routes(g)
    for n in range(2, 11):
        g = build_boolean(n)
        check_diameter_routes(g)
        assert girth(g) == invariants._girth_bfs(g.dense().adj)
        if n <= 7:
            check_girth_routes(g)


def test_fence_of_diameter_200_through_connectivity():
    # The path of 201 vertices as a fence: each ball grows from the extremes
    # it newly reached, 200 rounds from either end: 0.03 s on a 2-vCPU VM,
    # where re-ORing every extreme of the ball each round took about 1 s.
    g = fence(100)
    start = time.perf_counter()
    assert connectivity(g) == (1, 200)
    assert time.perf_counter() - start < 0.5
    check_diameter_routes(g)


def test_connectivity_of_empty_and_disconnected_families():
    assert connectivity(pairwise_inclusion_graph(())) == (0, INF)
    # {1} < {1,2}, {4} < {4,8}, and {16}: three components.
    g = pairwise_inclusion_graph((1, 3, 4, 12, 16))
    assert connectivity(g) == (3, INF)
    assert invariants._diameter_extremes(g) is None


@settings(max_examples=150, deadline=None)
@given(raw_graphs)
def test_layered_girth_matches_oracle_on_raw_graphs(adj):
    assert invariants._girth_bfs(adj) == girth_per_vertex_bfs(adj)


# --- girth -------------------------------------------------------------------

def test_girth_examples():
    assert girth(build_boolean(2)) == INF
    assert girth(build_boolean(3)) == 6
    assert girth(build_boolean(4)) == 3
    assert girth(build_boolean(6)) == 3


def test_girth_against_networkx():
    rng = random.Random(4242)
    for g in sample_graphs():
        assert girth(g) == nx.girth(to_nx(g))
    for _ in range(60):
        nv = rng.randint(2, 12)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.3]
        adj = adj_from_edges(nv, edges)
        assert invariants._girth_bfs(adj) == nx.girth(to_nx(adj)), edges


# --- clique ------------------------------------------------------------------

def test_clique_examples():
    omega, chain = clique_number(build_boolean(5))
    assert omega == 4
    assert list(chain) == [0b1, 0b11, 0b111, 0b1111]
    assert clique_number(build_boolean(2))[0] == 1
    g = build_from_family(enumerate_left_ideals(right_zero_with_identity(3)))
    assert clique_number(g)[0] == 3


def test_clique_witness_is_a_chain():
    for n in (3, 4, 5, 6, 7):
        omega, chain = clique_number(build_boolean(n))
        assert omega == n - 1 == len(chain)
        for a, b in zip(chain, chain[1:]):
            assert a & b == a and a != b


def test_clique_against_networkx():
    for g in sample_graphs():
        G = to_nx(g)
        want = max((len(c) for c in nx.find_cliques(G)), default=0)
        assert clique_number(g)[0] == want


def test_clique_raw_graph():
    # The package builds no graph without vertex masks; the generic branch
    # and bound of the oracles takes any adjacency.
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    size, members = max_clique_bb(adj_from_edges(4, edges))
    assert size == 3
    assert set(members) == {0, 1, 2}


def test_containment_order_against_masks():
    # Direct mask comparisons and a longest-chain recursion over them are the
    # reference for the bitset view read off the adjacency.
    rng = random.Random(1618)
    graphs = [build_boolean(n) for n in (2, 3, 4, 5)] + sample_graphs()[4:]
    for _ in range(20):
        universe = (1 << rng.randint(3, 7)) - 1
        graphs.append(pairwise_inclusion_graph(
            {rng.randint(1, universe - 1) for _ in range(rng.randint(2, 20))}))
    for g in graphs:
        dense = invariants._dense(g)
        masks = dense.masks
        order = dense.containment
        inside = [{j for j, mj in enumerate(masks) if mj & mi == mj and mj != mi}
                  for mi in masks]

        @functools.cache
        def down(i):
            return 1 + max((down(j) for j in inside[i]), default=0)

        @functools.cache
        def up(i):
            return 1 + max((up(j) for j in range(len(masks)) if i in inside[j]),
                           default=0)

        for i in range(len(masks)):
            assert order.below[i] == sum(1 << j for j in inside[i])
            assert order.above[i] == sum(1 << j for j in range(len(masks))
                                         if i in inside[j])
            assert (order.down[i], order.up[i]) == (down(i), up(i))


def test_containment_built_once_per_graph(monkeypatch):
    built = []
    build = DenseGraph.containment.func

    def counted(self):
        built.append(self)
        return build(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(DenseGraph, "containment")
    monkeypatch.setattr(DenseGraph, "containment", prop)
    dense = build_boolean(6).dense()  # nonplanar with a 5-chain: K5 from the order
    clique_number(dense)
    chromatic_number(dense)
    independence_number(dense)
    assert planarity(dense).kuratowski_kind == "K5"
    assert built == [dense]


def test_certified_chain_built_once_per_report(monkeypatch):
    # Clique and chromatic number share one checked chain. Boolean n=5 has
    # a K3,3 subgraph, so planarity asks for no 5-chain of its own.
    lengths = []
    real = invariants._chain

    def counted(dense, length):
        lengths.append(length)
        return real(dense, length)

    monkeypatch.setattr(invariants, "_chain", counted)
    report = compute_report(build_boolean(5))
    assert report.clique_number == report.chromatic_number == 4
    assert lengths == [4]
    dense = build_boolean(5).dense()
    assert clique_number(dense)[0] == chromatic_number(dense)[0] == 4
    assert lengths == [4, 4]


def test_complement_is_a_raw_graph():
    # The complement of an inclusion graph has no containment structure: it
    # is plain adjacency bitsets, and its cliques are the antichains of the
    # original graph, which the generic branch and bound searches.
    for n in (6, 7):
        g = build_boolean(n)
        complement = complement_adj(g.dense().adj)
        assert not hasattr(complement, "masks")
        assert max_clique_bb(complement)[0] == independence_number(g)[0]


# --- chromatic ---------------------------------------------------------------

def brute_chromatic(G: nx.Graph) -> int:
    nodes = list(G.nodes())
    for k in range(1, len(nodes) + 2):
        for assignment in itertools.product(range(k), repeat=len(nodes)):
            coloring = dict(zip(nodes, assignment))
            if all(coloring[u] != coloring[v] for u, v in G.edges()):
                return k
    raise AssertionError("unreachable")


def test_chromatic_examples():
    assert chromatic_number(build_boolean(4))[0] == 3
    assert chromatic_number(build_boolean(3))[0] == 2
    path = build_from_family(enumerate_left_ideals(null_semigroup(3)))
    assert chromatic_number(path)[0] == 2


def test_chromatic_coloring_is_proper():
    for n in (3, 4, 5, 6):
        g = build_boolean(n)
        chi, coloring = chromatic_number(g)
        assert chi == n - 1
        assert set(coloring.values()) == set(range(1, chi + 1))
        for v in g.vertices():
            for w in g.neighbors(v):
                assert coloring[v] != coloring[w]


def test_chromatic_against_bruteforce():
    rng = random.Random(99)
    for _ in range(25):
        nv = rng.randint(1, 7)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.4]
        adj = adj_from_edges(nv, edges)
        assert exact_chromatic(adj)[0] == brute_chromatic(to_nx(adj))


def test_chromatic_c5_needs_three():
    c5 = adj_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert exact_chromatic(c5)[0] == 3


def test_chromatic_of_a_raw_path_deeper_than_the_recursion_limit():
    path = adj_from_edges(1100, [(i, i + 1) for i in range(1099)])
    assert exact_chromatic(path)[0] == 2


# --- independence ------------------------------------------------------------

def test_independence_examples():
    alpha, witness = independence_number(build_boolean(4))
    assert alpha == 6
    assert sorted(witness) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert independence_number(build_boolean(5))[0] == 10
    assert independence_number(build_boolean(2))[0] == 2


def test_independence_witness_is_antichain():
    for n in (3, 4, 5, 6, 7):
        g = build_boolean(n)
        alpha, witness = independence_number(g)
        assert alpha == math.comb(n, n // 2) == len(witness)
        for a, b in itertools.combinations(witness, 2):
            assert not (a & b == a or a & b == b)


def test_independence_against_networkx():
    for g in sample_graphs():
        G = to_nx(g)
        want = max((len(c) for c in nx.find_cliques(nx.complement(G))), default=0)
        assert independence_number(g)[0] == want


# --- matching ----------------------------------------------------------------

def test_matching_examples():
    size, pairs, perfect = maximum_matching(build_boolean(3))
    assert (size, perfect) == (3, True)
    size, pairs, perfect = maximum_matching(build_boolean(4))
    assert (size, perfect) == (7, True)
    path = build_from_family(enumerate_left_ideals(null_semigroup(3)))
    size, pairs, perfect = maximum_matching(path)
    assert (size, perfect) == (1, False)


def test_matching_pairs_are_edges():
    for n in (3, 4, 5, 6):
        g = build_boolean(n)
        size, pairs, perfect = maximum_matching(g)
        assert size == 2 ** (n - 1) - 1 and perfect
        used = set()
        for u, v in pairs:
            assert g.adjacent(u, v)
            assert u not in used and v not in used
            used.update((u, v))


# --- domination ----------------------------------------------------------------

def brute_domination(G: nx.Graph) -> int:
    nodes = list(G.nodes())
    if not nodes:
        return 0
    for k in range(1, len(nodes) + 1):
        for cand in itertools.combinations(nodes, k):
            covered = set(cand)
            for v in cand:
                covered.update(G.neighbors(v))
            if len(covered) == len(nodes):
                return k
    raise AssertionError("unreachable")


def test_domination_examples():
    gamma, witness = domination_number(build_boolean(4))
    assert gamma == 2
    assert witness == (0b0001, 0b1110)
    assert domination_number(build_boolean(2))[0] == 2
    single = build_from_family(enumerate_left_ideals(null_semigroup(2)))
    assert single.vertex_count == 1
    assert domination_number(single) == (1, (0b01,))


def test_domination_witness_dominates():
    for n in range(3, 11):
        g = build_boolean(n)
        gamma, witness = domination_number(g)
        assert gamma == 2
        dominated = set(witness)
        for d in witness:
            dominated.update(g.neighbors(d))
        assert dominated == set(g.vertices())


def test_domination_against_bruteforce():
    rng = random.Random(7)
    for _ in range(20):
        nv = rng.randint(1, 9)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.3]
        adj = adj_from_edges(nv, edges)
        assert len(invariants._dominating_set(adj)) == brute_domination(to_nx(adj))


def _raw_edge_sets(nv):
    pairs = list(itertools.combinations(range(nv), 2))
    edges = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    return edges.map(lambda e: (nv, sorted(e)))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10).flatmap(_raw_edge_sets))
# χ = 4, and the 4-colouring search must backtrack and undo what it forbade.
@example((9, [(0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (1, 3), (1, 6), (1, 8), (2, 4),
              (2, 7), (2, 8), (3, 5), (3, 6), (3, 8), (4, 7), (4, 8), (5, 6), (5, 8), (7, 8)]))
def test_raw_graph_numbers_and_witnesses_match_subset_tables(graph):
    nv, edges = graph
    adj = adj_from_edges(nv, edges)
    adjacent = {*edges, *((v, u) for u, v in edges)}
    omega, clique = max_clique_bb(adj)
    chi, coloring = exact_chromatic(adj)
    alpha, independent = max_clique_bb(complement_adj(adj))
    dominating = invariants._dominating_set(adj) if nv else []
    gamma = len(dominating)
    assert (omega, chi, alpha, gamma) == raw_graph_numbers(nv, edges)
    assert len(clique) == omega
    assert all(e in adjacent for e in itertools.combinations(clique, 2))
    assert len(independent) == alpha
    assert not any(e in adjacent for e in itertools.combinations(independent, 2))
    assert len(set(coloring)) == chi
    assert all(coloring[u] != coloring[v] for u, v in edges)
    assert len(dominating) == gamma
    assert {*dominating, *(v for u, v in adjacent if u in dominating)} == set(range(nv))


def test_domination_deeper_than_the_recursion_limit():
    # 1,100 vertices with no edges need all of them: the search goes 1,100
    # levels deep, on an inclusion graph (an antichain of singletons) and in
    # the kernel on bare adjacency.
    antichain = pairwise_inclusion_graph(1 << i for i in range(1100))
    gamma, witness = domination_number(antichain)
    assert gamma == len(witness) == 1100
    assert invariants._dominating_set([0] * 1100) == list(range(1100))
    assert compute_report(antichain).domination_number == 1100


def test_domination_cap():
    # The cap is checked before the adjacency (about V²/8 bytes) is built.
    g = build_boolean(5)
    with pytest.raises(TooLargeError, match="30 vertices exceed the domination cap 10"):
        domination_number(g, cap=10)
    assert g._dense is None
    with pytest.raises(TooLargeError, match="30 vertices exceed the domination cap 29"):
        domination_number(build_boolean(5).dense(), cap=29)


# --- structural flags ----------------------------------------------------------

def test_structural_flags_examples():
    assert structural_flags(build_boolean(4)) == (True, False, True)
    assert structural_flags(build_boolean(3)) == (True, True, False)
    assert structural_flags(build_boolean(2)) == (False, True, False)


def check_flags_against_networkx(g):
    G = to_nx(g)
    nonempty = G.number_of_nodes() > 0
    eulerian, bipartite, triangulated = structural_flags(g)
    assert bipartite == nx.is_bipartite(G)
    assert eulerian == (nonempty and nx.is_connected(G)
                        and all(d % 2 == 0 for _, d in G.degree()))
    assert triangulated == (nonempty and all(
        any(G.has_edge(a, b) for a, b in itertools.combinations(G.neighbors(v), 2))
        for v in G.nodes()))


def test_flags_against_networkx():
    for g in sample_graphs():
        check_flags_against_networkx(g)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=(1 << 6) - 1), max_size=24))
@example([])
def test_flags_from_the_order_match_networkx_on_mask_families(masks):
    # Bipartite iff no 3-chain, triangulated iff every vertex is on one: the
    # order's verdicts against networkx's BFS colouring and triangle scan.
    check_flags_against_networkx(pairwise_inclusion_graph(masks))


# --- planarity ------------------------------------------------------------------

def test_planarity_small_boolean():
    for n in (2, 3, 4):
        res = planarity(build_boolean(n))
        assert (res.planar, res.method) == (True, "path-addition")
        check_embedding_with_networkx(build_boolean(n), res.embedding)


def check_embedding_with_networkx(g, embedding):
    """networkx's own structure check of a reported embedding (keyed by
    vertex label), independent of the package's face trace: every rotation
    is a cycle over the neighbours and Euler's formula holds per component."""
    dense = g.dense() if hasattr(g, "dense") else g
    index = vertex_index(dense)
    emb = nx.PlanarEmbedding()
    emb.set_data({index[v]: [index[w] for w in rot] for v, rot in embedding.items()})
    emb.check_structure()
    assert sorted(emb.edges()) == sorted(to_nx(dense).to_directed().edges())


def vertex_index(dense):
    """Vertex mask -> index."""
    return {mask: i for i, mask in enumerate(dense.masks)}


def test_planarity_witness_n5_n6():
    for n in (5, 6):
        g = build_boolean(n)
        res = planarity(g)
        assert not res.planar
        assert res.kuratowski_kind in ("K5", "K3,3")
        # Witness edges must be actual graph edges.
        for u, v in res.kuratowski_edges:
            assert g.adjacent(u, v)


def test_boolean6_contains_k5_on_nested_chain():
    # The five nested subsets {1} .. {1..5} are pairwise comparable, an
    # explicit K5 inside the n=6 graph.
    g = build_boolean(6)
    chain = [0b1, 0b11, 0b111, 0b1111, 0b11111]
    for a, b in itertools.combinations(chain, 2):
        assert g.adjacent(a, b)


def refuse(*args, **kwargs):
    raise AssertionError("path addition ran")


def test_planarity_decided_by_chain_without_networkx(monkeypatch):
    # Boolean n=9 has 510 vertices, far past the 30 a graph without a
    # 5-chain can have, so path addition must not run at all. The witness is
    # the K5 on the chain that is smallest by mask: {1} < {1,2} < ... <
    # {1,..,5}.
    monkeypatch.setattr(planar, "embedding", refuse)
    res = planarity(build_boolean(9))
    assert (res.planar, res.method, res.kuratowski_kind) == (False, "k5-chain", "K5")
    assert res.kuratowski_edges == ((1, 3), (1, 7), (1, 15), (1, 31), (3, 7),
                                    (3, 15), (3, 31), (7, 15), (7, 31), (15, 31))


def check_wrong_witness_fails(argv, match, capsys, solver=planarity):
    """A wrong witness raises RuntimeError from the solver (by default a
    wrong Kuratowski witness from planarity), and the CLI turns it into
    exit 3 with one stderr line. ``argv`` names a Boolean n or a table file."""
    if argv[1] == "--n":
        g = build_boolean(int(argv[2]))
    else:
        g = build_from_family(enumerate_left_ideals(
            parse_cayley_table(Path(argv[1]).read_text(encoding="utf-8"))))
    with pytest.raises(RuntimeError, match=match):
        solver(g)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal failure: RuntimeError: ")
    assert captured.err.count("\n") == 1


def test_planarity_chain_witness_check_is_a_real_check(monkeypatch, capsys, tmp_path):
    # The right-zero semigroup of order 5 with an identity (J is not an
    # antichain, so the CLI takes the dense solvers) is decided from a
    # 5-chain. Five singletons are no chain (no edge among them), and a real
    # 4-chain is a K4, not a K5.
    table = tmp_path / "right_zero_identity_5.txt"
    table.write_text(serialize_cayley_table(right_zero_with_identity(5)), encoding="utf-8")
    argv = ["invariants", str(table), "--planarity"]
    real = invariants._chain
    monkeypatch.setattr(invariants, "_chain", lambda dense, length: [0, 1, 2, 3, 4])
    check_wrong_witness_fails(argv, "witness edge .* is not an edge", capsys)
    monkeypatch.setattr(invariants, "_chain", lambda dense, length: real(dense, 4))
    check_wrong_witness_fails(argv, "not a K5 or K3,3 subdivision", capsys)


def test_planarity_k33_witness_check_is_a_real_check(monkeypatch, capsys):
    # Boolean n=5 has no 5-chain but a K3,3 subgraph. A witness with the
    # non-edge {1}-{2} fails, and so does a triangular prism: the 3-chains
    # {1} < {1,2} < {1,2,3} and {1,4} < {1,2,4} < {1,2,3,4} joined rung by
    # rung, a real subgraph, 3-regular on six vertices like K3,3 but not
    # bipartite.
    argv = ["invariants", "--n", "5", "--planarity"]
    real = invariants._k33_subgraph
    assert planarity(build_boolean(5)).method == "k33-subgraph"
    monkeypatch.setattr(invariants, "_k33_subgraph",
                        lambda adj: ((0, 1),) + real(adj)[1:])
    check_wrong_witness_fails(argv, "witness edge \\(1, 2\\) is not an edge", capsys)
    masks = build_boolean(5).dense().masks
    inner = [0b1, 0b11, 0b111]
    outer = [0b1001, 0b1011, 0b1111]
    prism = [(masks.index(a), masks.index(b)) for a, b in
             [*itertools.combinations(inner, 2), *itertools.combinations(outer, 2),
              *zip(inner, outer)]]
    monkeypatch.setattr(invariants, "_k33_subgraph", lambda adj: tuple(prism))
    check_wrong_witness_fails(argv, "not a K5 or K3,3 subdivision", capsys)


def test_planarity_path_addition_witness_check(monkeypatch):
    # A subdivided K5 is the inclusion graph of five singletons and their
    # ten pairs: no 5-chain and no K3,3 subgraph, so its witness comes from
    # the deletion extraction, which keeps all 20 edges. Its first four
    # edges, a star, are no Kuratowski subgraph, and a non-edge is no
    # witness edge: each is an internal failure (RuntimeError, exit 3), not
    # bad input.
    singletons = [1 << i for i in range(5)]
    pairs = sorted(a | b for a, b in itertools.combinations(singletons, 2))
    g = pairwise_inclusion_graph(singletons + pairs)
    res = planarity(g)
    assert (res.planar, res.method, res.kuratowski_kind) == (False, "path-addition", "K5")
    assert res.kuratowski_edges == tuple((s, p) for s in singletons for p in pairs if s & p)
    real = planar.kuratowski_edges
    monkeypatch.setattr(planar, "kuratowski_edges", lambda adj: real(adj)[:4])
    with pytest.raises(RuntimeError, match="Kuratowski witness is not a subdivision"):
        planarity(g)
    monkeypatch.setattr(planar, "kuratowski_edges", lambda adj: ((0, 1),) + real(adj))
    with pytest.raises(RuntimeError, match="witness edge \\(1, 2\\) is not an edge"):
        planarity(g)


def corrupt_rotation(corrupt):
    """planar.embedding with the rotation of its first vertex of degree at
    least 3 corrupted in place."""
    real = planar.embedding

    def embedding(adj):
        rotation = real(adj)
        corrupt(next(rot for rot in rotation if len(rot) >= 3))
        return rotation
    return embedding


def swap_two(rot):
    rot[0], rot[1] = rot[1], rot[0]


@pytest.mark.parametrize("corrupt,match", [
    (swap_two, "V - E \\+ F = 0 on the component of vertex 0"),
    (list.pop, "rotation at vertex 0 is not a permutation of its neighbours"),
])
def test_planarity_embedding_check_is_a_real_check(corrupt, match, monkeypatch, capsys):
    # Boolean n=4 is planar and decided by path addition. Swapping two
    # neighbours in the rotation at {1} (degree 6) leaves a permutation but
    # loses two faces, an embedding in the torus; dropping one neighbour is
    # no permutation. Both exit 3 with one stderr line.
    monkeypatch.setattr(planar, "embedding", corrupt_rotation(corrupt))
    check_wrong_witness_fails(["invariants", "--n", "4", "--planarity"], match, capsys)


def test_planarity_checks_survive_python_O():
    script = (
        "import sys\n"
        "from idealgraph import planar\n"
        "from idealgraph.cli import main\n"
        "real = planar.embedding\n"
        "def embedding(adj):\n"
        "    rotation = real(adj)\n"
        "    rotation[0].pop()\n"
        "    return rotation\n"
        "planar.embedding = embedding\n"
        "print(sys.flags.optimize)\n"
        "sys.exit(main(['invariants', '--n', '4', '--planarity']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "1\n")
    assert proc.stderr.startswith(
        "error: internal failure: RuntimeError: planarity certificate check failed")


@settings(max_examples=100, deadline=None)
@given(mask_families, st.booleans())
def test_planarity_property_mask_families(masks, plant_chain):
    # A planted 5-chain forces the chain route; nonzero masks on four
    # elements have no chain longer than four, which forces path addition.
    masks = [m | 0b10000 if plant_chain else m & 0b1111 or 1 for m in masks]
    if plant_chain:
        masks += [0b1, 0b11, 0b111, 0b1111, 0b11111]
    g = pairwise_inclusion_graph(masks)
    res = planarity(g)
    if plant_chain:
        assert res.method == "k5-chain"
    elif (k33 := first_k33_subgraph(to_nx(g))) is not None:
        assert (res.method, res.kuratowski_kind) == ("k33-subgraph", "K3,3")
        masks = g.masks
        assert res.kuratowski_edges == tuple((masks[u], masks[v]) for u, v in k33)
    else:
        assert res.method == "path-addition"
    check_planarity_against_networkx(g, res)


def check_planarity_against_networkx(g, res):
    """The verdict equals left-right's; an embedding passes networkx's
    structure check; a witness is a Kuratowski subgraph of g."""
    dense = invariants._dense(g)
    assert res.planar == nx.check_planarity(to_nx(dense))[0]
    if res.planar:
        check_embedding_with_networkx(dense, res.embedding)
        return
    index = vertex_index(dense)
    edges = [(index[u], index[v]) for u, v in res.kuratowski_edges]
    assert res.kuratowski_kind == classify_kuratowski(edges) in ("K5", "K3,3")
    for u, v in edges:
        assert dense.adj[u] >> v & 1


def first_k33_subgraph(G):
    """Brute force over index triples a < b < c in lexicographic order: the
    edges from the first with three common neighbours to the three lowest
    of them, or None."""
    for a, b, c in itertools.combinations(sorted(G.nodes()), 3):
        common = sorted(set(G[a]) & set(G[b]) & set(G[c]))
        if len(common) >= 3:
            return tuple(sorted((min(u, v), max(u, v))
                                for u in (a, b, c) for v in common[:3]))
    return None


def test_planarity_k33_subgraph_avoids_counterexample_search(monkeypatch):
    # All 1- to 4-element subsets of an 8-set: 162 vertices, 1,372 edges,
    # chains of at most four, so no K5 from the order. networkx's
    # counterexample extraction re-tests planarity once per edge and took
    # seconds here; three singletons with three common supersets are a
    # K3,3 found from the adjacency bitsets.
    import time

    monkeypatch.setattr(planar, "embedding", refuse)
    monkeypatch.setattr(planar, "kuratowski_edges", refuse)
    masks = [m for m in range(1, 1 << 8) if m.bit_count() <= 4]
    g = pairwise_inclusion_graph(masks)
    assert (g.size, sum(map(int.bit_count, g.adj)) // 2) == (162, 1372)
    t0 = time.perf_counter()
    res = planarity(g)
    assert time.perf_counter() - t0 < 0.5
    assert (res.planar, res.method, res.kuratowski_kind) == (False, "k33-subgraph", "K3,3")
    assert len(res.kuratowski_edges) == 9
    for u, v in res.kuratowski_edges:
        assert g.adj[g.masks.index(u)] >> g.masks.index(v) & 1


def test_planarity_matches_left_right_on_corpus_and_boolean_models():
    # Left-right stays the oracle for the witness routes: every built-in
    # class and named instance, Boolean n = 2..7 and every table in
    # tests/data.
    corpus, _ = builtin_corpus()
    data = Path(__file__).parent / "data"
    tables = [t for t, _ in corpus] + [
        parse_cayley_table(p.read_text()) for p in sorted(data.glob("*.txt"))
        if p.name != "theorem_manifest.txt"]
    graphs = [build_boolean(n) for n in range(2, 8)]
    for t in tables:
        fam = enumerate_left_ideals(t)
        assert not fam.truncated
        graphs.append(build_from_family(fam))
    assert len(graphs) == 6 + 228 + 1
    methods = set()
    for g in graphs:
        res = planarity(g)
        methods.add(res.method)
        check_planarity_against_networkx(g, res)
    assert methods == {"k5-chain", "k33-subgraph", "path-addition"}


def _any_density_raw_graphs(nv):
    pairs = list(itertools.combinations(range(nv), 2))
    coins = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    return coins.map(lambda c: adj_from_edges(nv, [p for p, x in zip(pairs, c) if x]))


def check_planarity_kernels(adj):
    """The kernels planarity wraps, on any graph: the K3,3 search equals a
    brute force, and path addition's verdict equals left-right's, with a
    rotation system that passes both face traces or a Kuratowski witness
    made of graph edges."""
    G = to_nx(adj)
    assert invariants._k33_subgraph(adj) == first_k33_subgraph(G)
    rotation = planar.embedding(adj)
    assert (rotation is not None) == nx.check_planarity(G)[0]
    if rotation is not None:
        planar.check_rotation(adj, rotation)
        emb = nx.PlanarEmbedding()
        emb.set_data(dict(enumerate(rotation)))
        emb.check_structure()
        assert sorted(emb.edges()) == sorted(G.to_directed().edges())
        return None
    edges = planar.kuratowski_edges(adj)
    assert all(adj[u] >> v & 1 for u, v in edges)
    return classify_kuratowski(edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=12).flatmap(_any_density_raw_graphs))
def test_planarity_property_raw_graphs(adj):
    check_planarity_kernels(adj)


def test_planarity_deletion_extraction_at_the_vertex_bound(monkeypatch):
    # Boolean n=5 is the largest graph without a 5-chain (30 vertices, 150
    # edges). With its K3,3 route bypassed, path addition decides it and the
    # deletion extraction runs at the largest size the CLI can hand it.
    monkeypatch.setattr(invariants, "_k33_subgraph", lambda adj: None)
    g = build_boolean(5)
    assert (g.vertex_count, g.edge_count()) == (30, 150)
    res = planarity(g)
    assert (res.planar, res.method) == (False, "path-addition")
    check_planarity_against_networkx(g, res)


def test_planarity_raw_graphs():
    k5 = adj_from_edges(5, itertools.combinations(range(5), 2))
    assert check_planarity_kernels(k5) == "K5"
    k33 = adj_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert check_planarity_kernels(k33) == "K3,3"
    assert check_planarity_kernels(adj_from_edges(4, itertools.combinations(range(4), 2))) is None


# --- perfectness -----------------------------------------------------------------

def test_perfectness_boolean4_exhaustive():
    verdict, witness = perfectness(build_boolean(4), 14)
    assert verdict is True and witness is None


def hole_search(adj, max_len):
    """``perfectness`` on adjacency bitsets, by the kernels it wraps: holes
    before antiholes, each witness checked."""
    for kind, h in (("hole", adj), ("antihole", complement_adj(adj))):
        cycle = invariants._odd_hole(h, max_len)
        if cycle is not None:
            invariants._check_hole(h, cycle)
            return False, (kind, cycle)
    return (True if max_len >= len(adj) else None), None


def test_perfectness_c5_hole():
    c5 = adj_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    verdict, witness = hole_search(c5, 5)
    assert verdict is False
    kind, cycle = witness
    assert kind == "hole" and len(cycle) == 5


def test_perfectness_c7_and_antihole():
    c7 = adj_from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    verdict, witness = hole_search(c7, 7)
    assert verdict is False and witness[0] == "hole"
    c7bar = adj_from_edges(7, list(nx.complement(nx.cycle_graph(7)).edges()))
    verdict, witness = hole_search(c7bar, 7)
    assert verdict is False and witness[0] == "antihole"


def test_perfectness_boolean5_bounded_unknown():
    g = build_boolean(5)
    verdict, witness = perfectness(g, 9)
    assert verdict is None and witness is None
    # Independent oracle: no odd chordless cycle of length 5..9 in the graph
    # or its complement.
    G = to_nx(g)
    for H in (G, nx.complement(G)):
        lengths = {len(c) for c in nx.chordless_cycles(H, length_bound=9)}
        assert not any(l >= 5 and l % 2 == 1 for l in lengths)


def test_perfect_verdict_routes():
    # Every graph the package builds is an inclusion graph, perfect by
    # comparability, lattice or not; the odd-hole kernel under perfectness
    # finds the hole of a C5, which no inclusion graph is.
    for g in (build_boolean(7), fence(5), pairwise_inclusion_graph((1, 2, 5, 11))):
        assert invariants.perfect_verdict(g) is True
    c5 = adj_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert sorted(invariants._odd_hole(c5, 5)) == [0, 1, 2, 3, 4]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=(1 << 6) - 1), min_size=1, max_size=14))
def test_report_perfect_matches_exhaustive_hole_search(masks):
    g = pairwise_inclusion_graph(masks)
    verdict, _ = perfectness(g, g.size)
    assert compute_report(g).perfect is verdict is True


def test_inclusion_graph_is_perfect_without_a_search(monkeypatch):
    # Comparability graphs are perfect: the report's verdict runs no odd-hole
    # search, whose rows in the theorem suite stay the independent oracle.
    def refuse(*args, **kwargs):
        raise AssertionError("the odd-hole search ran")

    monkeypatch.setattr(invariants, "perfectness", refuse)
    r = compute_report(build_boolean(4))
    assert (r.perfect, r.methods["perfectness"]) == (True, "comparability")


def test_perfectness_finds_planted_hole():
    # A 5-hole hanging off a triangle.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 0)]
    verdict, witness = hole_search(adj_from_edges(7, edges), 7)
    assert verdict is False
    assert witness[0] == "hole" and sorted(witness[1]) == [0, 1, 2, 3, 4]


def test_odd_hole_search_matches_per_length_oracle():
    # The one-pass search against the per-length search it replaced, at
    # every bound from 5 to n+1, on graphs of every density.
    rng = random.Random(16180)
    imperfect = 0
    for _ in range(400):
        nv = rng.randint(5, 12)
        p = rng.random()
        adj = adj_from_edges(nv, [(u, v) for u in range(nv) for v in range(u + 1, nv)
                                  if rng.random() < p])
        found = [length for length in range(5, nv + 1, 2)
                 if any(_find_hole_of_length(nv, h, length) is not None
                        for h in (adj, complement_adj(adj)))]
        for max_len in range(5, nv + 2):
            want = (False if found and found[0] <= max_len
                    else True if max_len >= nv else None)
            verdict, witness = hole_search(adj, max_len)
            assert verdict is want, (nv, adj, max_len)
            if witness is not None:
                assert 5 <= len(witness[1]) <= max_len
        imperfect += bool(found)
    assert 50 < imperfect < 350


def test_perfectness_on_a_long_path_needs_no_recursion():
    # Exhaustive on 1,100 vertices: the search keeps its own stack, where
    # the recursive oracle exceeds the interpreter's recursion limit.
    n = 1100
    adj = adj_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    start = time.perf_counter()
    assert hole_search(adj, n) == (True, None)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(RecursionError):
        _find_hole_of_length(n, adj, n - 1)


@pytest.mark.parametrize("edges, cycle", [
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)], [0, 1, 2, 3, 4]),  # chord 0-2
    ([(0, 1), (1, 2), (2, 3), (3, 4)], [0, 1, 2, 3, 4]),  # 4-0 is no edge
    ([(i, (i + 1) % 6) for i in range(6)], [0, 1, 2, 3, 4, 5]),  # even
    ([(0, 1), (1, 2), (2, 0)], [0, 1, 2]),  # too short
    ([(0, 1), (1, 2), (2, 3), (3, 1), (1, 4), (4, 0)], [0, 1, 2, 3, 1]),  # repeats 1
])
def test_perfectness_witness_check_is_a_real_check(edges, cycle):
    with pytest.raises(RuntimeError, match="perfectness certificate failed"):
        invariants._check_hole(adj_from_edges(max(map(max, edges)) + 1, edges), cycle)


# {1} < {1,2} < {1,2,3} > {3} < {1,3} > {1} in Boolean n=4, with the chords
# {1} < {1,2,3} and {1,3} < {1,2,3}.
CHORDED_BOOLEAN4_CYCLE = (0b1, 0b11, 0b111, 0b100, 0b101)


def test_perfectness_witness_failure_exits_3(monkeypatch, capsys):
    masks = build_boolean(4).dense().masks
    cycle = [masks.index(m) for m in CHORDED_BOOLEAN4_CYCLE]
    monkeypatch.setattr(invariants, "_odd_hole", lambda adj, max_len: cycle)
    assert main(["verify", "--boolean", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: internal failure: RuntimeError: perfectness certificate failed")
    assert captured.err.count("\n") == 1


def test_perfectness_witness_check_survives_python_O():
    script = (
        "import sys\n"
        "from idealgraph import build_boolean, invariants\n"
        "from idealgraph.cli import main\n"
        "masks = build_boolean(4).dense().masks\n"
        f"cycle = [masks.index(m) for m in {CHORDED_BOOLEAN4_CYCLE!r}]\n"
        "invariants._odd_hole = lambda adj, max_len: cycle\n"
        "print(sys.flags.optimize)\n"
        "sys.exit(main(['verify', '--boolean', '4']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "1\n")
    assert proc.stderr.startswith(
        "error: internal failure: RuntimeError: perfectness certificate failed")


# --- aggregate report ----------------------------------------------------------

def test_report_boolean4():
    r = compute_report(build_boolean(4))
    assert r.vertex_count == 14
    assert r.diameter == 3
    assert r.girth == 3
    assert r.clique_number == r.chromatic_number == 3
    assert r.independence_number == 6
    assert r.vertex_cover_number == 8
    assert r.matching_number == 7
    assert r.edge_cover_number == 7
    assert r.domination_number == 2
    assert (r.eulerian, r.bipartite, r.triangulated) == (True, False, True)
    assert r.planar and r.perfect is True


def test_report_identities_and_edge_cover_undefined():
    r2 = compute_report(build_boolean(2))
    assert r2.edge_cover_number is None  # isolated vertices
    assert r2.independence_number + r2.vertex_cover_number == 2
    for n in (3, 5):
        r = compute_report(build_boolean(n))
        assert r.independence_number + r.vertex_cover_number == r.vertex_count
        assert r.matching_number + r.edge_cover_number == r.vertex_count
        assert r.clique_number <= r.chromatic_number


def test_random_subset_families_cross_solvers():
    # Random containment families: the chain/Dilworth solvers check their
    # own witnesses inside the ops, and networkx supplies a second opinion.
    rng = random.Random(31415)
    for _ in range(40):
        m = rng.randint(3, 8)
        universe = (1 << m) - 1
        masks = {rng.randint(1, universe - 1)
                 for _ in range(rng.randint(2, 24))}
        g = pairwise_inclusion_graph(masks)
        G = to_nx(g)
        omega, chain = clique_number(g)
        assert omega == max((len(c) for c in nx.find_cliques(G)), default=0)
        chi, coloring = chromatic_number(g)
        assert chi == omega  # comparability graphs are perfect
        alpha, witness = independence_number(g)
        assert alpha == max((len(c) for c in nx.find_cliques(nx.complement(G))),
                            default=0)


def test_perfectness_random_graphs_vs_chordless_cycles():
    rng = random.Random(2718)
    for _ in range(30):
        nv = rng.randint(4, 11)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.4]
        adj = adj_from_edges(nv, edges)
        verdict, witness = hole_search(adj, nv)
        G = to_nx(adj)
        def has_odd_hole(H):
            return any(len(c) >= 5 and len(c) % 2 == 1
                       for c in nx.chordless_cycles(H))
        want_imperfect = has_odd_hole(G) or has_odd_hole(nx.complement(G))
        assert verdict == (not want_imperfect)
        if witness is not None:
            kind, cycle = witness
            H = G if kind == "hole" else nx.complement(G)
            k = len(cycle)
            assert k >= 5 and k % 2 == 1
            for i in range(k):
                assert H.has_edge(cycle[i], cycle[(i + 1) % k])
            for i in range(k):
                for j in range(i + 2, k):
                    if not (i == 0 and j == k - 1):
                        assert not H.has_edge(cycle[i], cycle[j])


def test_report_json_stable():
    a = json.dumps(compute_report(build_boolean(3)).to_jsonable())
    b = json.dumps(compute_report(build_boolean(3)).to_jsonable())
    assert a == b
    doc = json.loads(a)
    assert list(doc)[:6] == ["vertex_count", "edge_count", "connected",
                             "components", "diameter", "girth"]
    assert "elapsed" not in doc


def jsonified(obj):
    """The witnesses as JSON reads them back: str keys, lists for tuples."""
    if isinstance(obj, dict):
        return {str(k): jsonified(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonified(x) for x in obj]
    return obj


@pytest.mark.parametrize("n", [3, 5])
def test_report_witnesses_read_back_with_str_keys_and_lists(n):
    # to_jsonable hands the witnesses over as they are (int mask keys,
    # tuples); the written text reads back as the JSON shape. n=3 has a
    # planar embedding, n=5 a Kuratowski subgraph.
    from idealgraph.jsontext import _json_text
    doc = compute_report(build_boolean(n)).to_jsonable()
    assert isinstance(next(iter(doc["witnesses"]["coloring"])), int)
    assert isinstance(doc["witnesses"]["matching"], tuple)
    back = json.loads(_json_text(doc))
    assert back == {**doc, "witnesses": jsonified(doc["witnesses"])}
    assert set(back["witnesses"]) >= {"coloring", "matching",
                                      "embedding" if n == 3 else "kuratowski"}


def test_report_identity_is_a_real_check(monkeypatch):
    # A broken solver must fail the identity check even under python -O,
    # so the check raises instead of asserting.
    from idealgraph import invariants

    real = invariants.chromatic_number

    def one_colour_short(dense):
        chi, coloring = real(dense)
        return chi - 1, coloring

    monkeypatch.setattr(invariants, "chromatic_number", one_colour_short)
    with pytest.raises(RuntimeError, match="clique number exceeds chromatic number"):
        compute_report(build_boolean(4))


# --- certificates ----------------------------------------------------------------
# Each answer's witnesses are checked on every call: a corrupted witness is
# an internal failure (RuntimeError, exit 3), also under python -O.

def test_clique_certificate_is_a_real_check(monkeypatch, capsys):
    # Four singletons of Boolean n=5 are no chain: no edge among them.
    monkeypatch.setattr(invariants, "_chain", lambda dense, length: list(range(length)))
    for solver, flag in ((clique_number, "--clique"), (chromatic_number, "--chromatic")):
        check_wrong_witness_fails(["invariants", "--n", "5", flag],
                                  "clique certificate failed", capsys, solver)


@pytest.mark.parametrize("recolour", [
    lambda down: [1 if d == 2 else d for d in down],  # {1} and {1,2} share colour 1
    lambda down: [0] + down[1:],  # colour 0 would be a (k+1)-th colour
])
def test_colouring_certificate_is_a_real_check(monkeypatch, capsys, recolour):
    build = DenseGraph.containment.func

    def recoloured(self):
        order = build(self)
        return order._replace(down=recolour(order.down))

    prop = functools.cached_property(recoloured)
    prop.__set_name__(DenseGraph, "containment")
    monkeypatch.setattr(DenseGraph, "containment", prop)
    for solver, flag in ((chromatic_number, "--chromatic"), (clique_number, "--clique")):
        check_wrong_witness_fails(["invariants", "--n", "5", flag],
                                  "colouring certificate failed", capsys, solver)


def test_chain_partition_certificate_is_a_real_check(monkeypatch, capsys):
    # Relink the first matched vertex, {1}, to a chain head it is not
    # comparable with. The König antichain reads only the unmatched left
    # vertices and match_r, so it still passes; the chain partition fails.
    real = invariants.hopcroft_karp
    adj = build_boolean(5).dense().adj

    def bad_link(n_left, n_right, above):
        size, match_l, match_r = real(n_left, n_right, above)
        u = next(u for u in range(n_left) if match_l[u] >= 0)
        match_l[u] = next(w for w in range(n_right)
                          if match_r[w] == -1 and w != u and not adj[u] >> w & 1)
        return size, match_l, match_r

    monkeypatch.setattr(invariants, "hopcroft_karp", bad_link)
    check_wrong_witness_fails(["invariants", "--n", "5", "--independence"],
                              "independence certificate failed", capsys,
                              independence_number)


def test_chain_partition_check_counts_chains_and_entries():
    # The links must make exactly alpha chains, and no vertex may be entered
    # by two links even where the count of chain heads agrees.
    dense = build_boolean(4).dense()
    above = dense.containment.above
    size, match_l, _ = invariants.hopcroft_karp(dense.size, dense.size, above)
    alpha = dense.size - size
    invariants._check_chain_partition(dense, match_l, alpha)
    for wrong in (alpha - 1, alpha + 1):
        with pytest.raises(RuntimeError, match=f"chains, not {wrong}"):
            invariants._check_chain_partition(dense, match_l, wrong)
    u, v = next((u, v) for u, v in enumerate(match_l) if v >= 0)
    twice = list(match_l)
    twice[next(w for w in range(dense.size) if w != u and above[w] >> v & 1)] = v
    heads = dense.size - len({t for t in twice if t >= 0})
    with pytest.raises(RuntimeError, match="enters a vertex twice"):
        invariants._check_chain_partition(dense, twice, heads)


@pytest.mark.parametrize("corrupt,match", [
    # {1} -> {1,2} (or {1,3}), whose mate is another vertex: not symmetric.
    (lambda mate: [4 if mate[0] != 4 else 5] + mate[1:], "mate is not symmetric at 1"),
    # {1} and {2} matched to each other: symmetric, but no edge.
    (lambda mate: [1, 0] + [-1] * (len(mate) - 2), r"the pair \(1, 2\) is not an edge"),
    # A vertex matched to itself, and a mate out of range.
    (lambda mate: [0] + mate[1:], r"the pair \(1, 1\) is not an edge"),
    (lambda mate: [len(mate)] + mate[1:], "mate is not symmetric at 1"),
])
def test_matching_certificate_is_a_real_check(monkeypatch, capsys, corrupt, match):
    real = invariants.maximum_matching_adj
    monkeypatch.setattr(invariants, "maximum_matching_adj",
                        lambda n, adj: corrupt(real(n, adj)))
    check_wrong_witness_fails(["invariants", "--n", "4", "--matching"],
                              f"matching certificate failed: {match}", capsys,
                              maximum_matching)


def test_domination_certificate_is_a_real_check(monkeypatch, capsys):
    # Boolean n=4 is dominated by {1} and its complement {2,3,4}; {1} alone
    # leaves {2} undominated.
    real = invariants._dominating_set
    monkeypatch.setattr(invariants, "_dominating_set", lambda adj: real(adj)[:-1])
    check_wrong_witness_fails(["invariants", "--n", "4", "--domination"],
                              r"domination certificate failed: \(1,\) leaves 2 undominated",
                              capsys, domination_number)


def test_triangle_certificate_is_a_real_check(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "_triangle", lambda adj: (0, 1, 2))
    check_wrong_witness_fails(["invariants", "--n", "5", "--girth"],
                              "girth certificate failed", capsys, girth)


def test_diameter_certificate_is_a_real_check(monkeypatch, capsys):
    # {1} and {2} have the common neighbour {1,2}: no witness of distance 3.
    real = invariants._diameter_extremes
    monkeypatch.setattr(invariants, "_diameter_extremes",
                        lambda dense: (real(dense)[0], 0, 1))
    check_wrong_witness_fails(["invariants", "--n", "5", "--diameter"],
                              "diameter certificate failed", capsys, connectivity)


def test_certificate_failure_exits_3_under_python_O():
    script = (
        "import sys\n"
        "from idealgraph import invariants\n"
        "from idealgraph.cli import main\n"
        "invariants._chain = lambda dense, length: list(range(length))\n"
        "print(sys.flags.optimize)\n"
        "sys.exit(main(['invariants', '--n', '5', '--clique']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "1\n")
    assert proc.stderr.startswith(
        "error: internal failure: RuntimeError: clique certificate failed")
