"""Automorphisms: explicit maps, the full group, decomposition, transitivity."""

import subprocess
import sys
from itertools import islice
from math import factorial

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from idealgraph import (
    NotAPermutationError,
    TooLargeError,
    automorphism_group,
    build_boolean,
    build_from_family,
    complement_automorphism,
    compose,
    decompose_boolean,
    enumerate_left_ideals,
    null_semigroup,
    relabel_automorphism,
    transitivity,
)
from idealgraph.graph import bits
from idealgraph.symmetry import _stabilizer_chain, _transitivity
from oracles import adj_from_edges, automorphism_group_by_extension, transitivity_by_edge_orbits


def mask_map(n, auto):
    masks = tuple(build_boolean(n).vertices())
    return dict(auto.mask_pairs(masks))


def test_relabel_identity():
    a = relabel_automorphism(3, [0, 1, 2])
    assert a.images == tuple(range(6))
    assert a.complemented is False


def test_relabel_transposition_n3():
    a = relabel_automorphism(3, [1, 0, 2])  # swap the first two elements
    m = mask_map(3, a)
    assert m[0b001] == 0b010 and m[0b010] == 0b001
    assert m[0b101] == 0b110 and m[0b110] == 0b101
    assert m[0b100] == 0b100 and m[0b011] == 0b011


def test_relabel_preserves_adjacency():
    for n in (3, 4):
        g = build_boolean(n)
        a = relabel_automorphism(n, list(range(1, n)) + [0])
        vs = list(g.vertices())
        m = mask_map(n, a)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert g.adjacent(vs[i], vs[j]) == g.adjacent(m[vs[i]], m[vs[j]])


def test_relabel_four_cycle_has_order_four():
    a = relabel_automorphism(4, [1, 2, 3, 0])
    p = a
    for _ in range(3):
        p = compose(a, p)
        # not yet identity at powers 2 and 3
    assert p.images == tuple(range(14))
    assert compose(a, a).images != tuple(range(14))


def test_relabel_rejects_non_permutation():
    with pytest.raises(NotAPermutationError):
        relabel_automorphism(3, [0, 0, 1])
    with pytest.raises(NotAPermutationError):
        relabel_automorphism(3, [0, 1])


def test_complement_examples():
    c = complement_automorphism(3)
    m = mask_map(3, c)
    assert m[0b001] == 0b110 and m[0b110] == 0b001
    assert m[0b011] == 0b100


def test_complement_is_involution_and_commutes():
    for n in (3, 4, 5):
        c = complement_automorphism(n)
        ident = tuple(range(2 ** n - 2))
        assert compose(c, c).images == ident
        for sigma in ([1, 0] + list(range(2, n)), list(range(1, n)) + [0]):
            s = relabel_automorphism(n, sigma)
            assert compose(s, c).images == compose(c, s).images


def test_automorphism_group_orders():
    expected = {2: 2, 3: 12, 4: 48, 5: 240, 6: 1440, 7: 10080, 8: 80640}
    for n, want in expected.items():
        report = automorphism_group(build_boolean(n))
        assert report.order == want
        if n >= 3:
            assert report.structure == f"S{n} x Z2"


def test_generators_decompose_and_generate():
    for n in (3, 4, 5):
        report = automorphism_group(build_boolean(n))
        assert all(a.base_perm is not None for a in report.generators)
        # closure of the generators reproduces the reported order
        perms = {tuple(range(2 ** n - 2))}
        frontier = [tuple(range(2 ** n - 2))]
        gens = [a.images for a in report.generators]
        while frontier:
            nxt = []
            for p in frontier:
                for q in gens:
                    r = tuple(p[i] for i in q)
                    if r not in perms:
                        perms.add(r)
                        nxt.append(r)
            frontier = nxt
        assert len(perms) == report.order


def test_explicit_generators_span_group():
    for n in (3, 4, 5, 6):
        swap = relabel_automorphism(n, [1, 0] + list(range(2, n)))
        cycle = relabel_automorphism(n, list(range(1, n)) + [0])
        comp = complement_automorphism(n)
        seen = {tuple(range(2 ** n - 2))}
        frontier = list(seen)
        gens = [swap.images, cycle.images, comp.images]
        while frontier:
            nxt = []
            for p in frontier:
                for q in gens:
                    r = tuple(p[i] for i in q)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        assert len(seen) == 2 * factorial(n)


def test_decomposition_is_group_isomorphism():
    # Composition of decomposed automorphisms multiplies the element
    # permutations and xors the complement flags.
    n = 4
    masks = tuple(build_boolean(n).vertices())
    report = automorphism_group(build_boolean(n))
    gens = list(report.generators)
    for a in gens[:6]:
        for b in gens[:6]:
            ab = compose(a, b)
            sigma, complemented = decompose_boolean(n, ab.images, masks)
            want_sigma = tuple(a.base_perm[b.base_perm[i]] for i in range(n))
            assert sigma == want_sigma
            assert complemented == (a.complemented ^ b.complemented)


def test_every_automorphism_fixes_or_mirrors_popcount():
    for n in (3, 4):
        masks = tuple(build_boolean(n).vertices())
        report = automorphism_group(build_boolean(n))
        # expand the whole group from generators (small here)
        perms = {tuple(range(len(masks)))}
        frontier = list(perms)
        gens = [a.images for a in report.generators]
        while frontier:
            nxt = []
            for p in frontier:
                for q in gens:
                    r = tuple(p[i] for i in q)
                    if r not in perms:
                        perms.add(r)
                        nxt.append(r)
            frontier = nxt
        assert len(perms) == report.order
        for p in perms:
            behaviors = {
                (masks[i].bit_count(), masks[p[i]].bit_count())
                for i in range(len(masks))
            }
            preserves = all(a == b for a, b in behaviors)
            mirrors = all(b == n - a for a, b in behaviors)
            assert preserves or mirrors


def test_vertex_orbits_are_mirrored_layers():
    for n in (4, 5, 6):
        masks = tuple(build_boolean(n).vertices())
        report = automorphism_group(build_boolean(n))
        parent = list(range(len(masks)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in report.generators:
            for i, j in enumerate(a.images):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        orbits = {}
        for i in range(len(masks)):
            orbits.setdefault(find(i), set()).add(masks[i])
        want = {}
        for m in masks:
            k = min(m.bit_count(), n - m.bit_count())
            want.setdefault(k, set()).add(m)
        assert sorted(map(sorted, orbits.values())) == sorted(map(sorted, want.values()))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decompose_boolean_inverts_relabel_and_complement(data):
    # A relabeling by sigma, complemented or not, decomposes back to
    # (sigma, flag); the same map with two vertices of one layer swapped is
    # no automorphism and must not decompose.
    n = data.draw(st.integers(3, 8))
    sigma = tuple(data.draw(st.permutations(range(n))))
    complemented = data.draw(st.booleans())
    auto = relabel_automorphism(n, sigma)
    if complemented:
        auto = compose(complement_automorphism(n), auto)
    masks = tuple(build_boolean(n).vertices())
    assert decompose_boolean(n, auto.images, masks) == (sigma, complemented)
    k = data.draw(st.integers(1, n - 1))
    layer = [i for i, m in enumerate(masks) if m.bit_count() == k]
    i, j = data.draw(st.lists(st.sampled_from(layer), min_size=2, max_size=2, unique=True))
    images = list(auto.images)
    images[i], images[j] = images[j], images[i]
    with pytest.raises(ValueError):
        decompose_boolean(n, tuple(images), masks)


def test_decompose_boolean_at_n2_reads_the_complement_as_a_swap():
    # At n = 2 the singletons are also the co-singletons, so complementing
    # and swapping the two points are one map, read as the swap.
    masks = tuple(build_boolean(2).vertices())
    swap = relabel_automorphism(2, (1, 0))
    assert complement_automorphism(2).images == swap.images == (1, 0)
    assert decompose_boolean(2, swap.images, masks) == ((1, 0), False)


def test_transitivity():
    for n, want in ((2, (True, True)), (3, (True, True)),
                    (4, (False, False)), (5, (False, False))):
        g = build_boolean(n)
        assert transitivity(g, automorphism_group(g)) == want


def test_dense_graph_is_refused_at_once():
    # The Boolean decomposition is read from the InclusionGraph, so its
    # DenseGraph, which carries no n, is not taken for the same graph.
    g = build_boolean(4)
    report = automorphism_group(g)
    assert report.structure == "S4 x Z2"
    with pytest.raises(AttributeError):
        automorphism_group(g.dense())
    with pytest.raises(AttributeError):
        transitivity(g.dense(), report)


def test_generic_graph_group():
    # The 3-vertex path has exactly the identity and the leaf swap.
    g = build_from_family(enumerate_left_ideals(null_semigroup(3)))
    report = automorphism_group(g)
    assert report.order == 2
    assert report.structure == "other"
    assert all(a.base_perm is None for a in report.generators)


def test_aut_cap():
    with pytest.raises(TooLargeError):
        automorphism_group(build_boolean(8), cap=100)


def test_raw_graph_orders_match_known_groups():
    cases = [
        (nx.petersen_graph(), 120),
        (nx.cycle_graph(5), 10),
        (nx.cycle_graph(8), 16),
        (nx.complete_graph(5), 120),
        (nx.complete_bipartite_graph(3, 3), 72),
        (nx.hypercube_graph(3), 48),
        (nx.disjoint_union(nx.complete_graph(3), nx.complete_graph(3)), 72),
        (nx.path_graph(4), 2),
        (nx.star_graph(4), 24),
        (nx.bull_graph(), 2),
        (nx.empty_graph(5), 120),
    ]
    for G, want in cases:
        G = nx.convert_node_labels_to_integers(G)
        adj = adj_from_edges(G.number_of_nodes(), G.edges())
        assert _stabilizer_chain(adj)[0] == want


def test_aut_cap_refuses_before_materializing():
    g = build_boolean(13)
    with pytest.raises(TooLargeError, match="automorphism cap 100"):
        automorphism_group(g, cap=100)
    assert g._dense is None


@st.composite
def raw_graphs(draw, max_vertices=12):
    nv = draw(st.integers(0, max_vertices))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    density = draw(st.sampled_from((0.0, 0.15, 0.3, 0.5, 0.8, 1.0)))
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return nv, [p for p, x in zip(pairs, coins) if x < density]


def complete(nv):
    return nv, [(u, v) for u in range(nv) for v in range(u + 1, nv)]


@settings(max_examples=300, deadline=None)
@given(raw_graphs())
@example((0, []))
@example((1, []))
@example((7, []))
@example(complete(2))
@example(complete(9))
@example((6, [(0, 1), (2, 3), (4, 5)]))
def test_group_matches_extension_oracle(graph):
    # Same order, generators (lexicographically first witnesses, in the
    # same order) and structure as the search without individualisation.
    nv, edges = graph
    adj = adj_from_edges(nv, edges)
    order, maps = _stabilizer_chain(adj)
    assert (order, maps) == automorphism_group_by_extension(adj)
    assert _transitivity(adj, maps) == transitivity_by_edge_orbits(adj, maps)


@settings(max_examples=150, deadline=None)
@given(raw_graphs(max_vertices=9))
@example((0, []))
@example((1, []))
@example((5, []))
@example(complete(5))
def test_group_order_matches_networkx_isomorphism_count(graph):
    # networkx lists the automorphisms one by one, at about 0.2 ms each, so
    # it stops after 5!: a larger group (up to 9! on the edgeless or
    # complete graph) is only checked to be larger.
    nv, edges = graph
    G = nx.Graph()
    G.add_nodes_from(range(nv))
    G.add_edges_from(edges)
    limit = factorial(5)
    count = sum(1 for _ in islice(GraphMatcher(G, G).isomorphisms_iter(), limit + 1))
    order = _stabilizer_chain(adj_from_edges(nv, edges))[0]
    assert order == count if count <= limit else order > limit


@pytest.mark.parametrize("n", range(2, 8))
def test_boolean_group_matches_extension_oracle(n):
    # The crown certificate's order and transitivity are the search's; its
    # three generators are automorphisms of the adjacency.
    g = build_boolean(n)
    report = automorphism_group(g)
    verdicts = transitivity(g, report)
    adj = g.dense().adj
    order, maps = automorphism_group_by_extension(adj)
    assert report.order == order
    assert verdicts == transitivity_by_edge_orbits(adj, maps)
    assert all(a.base_perm is not None for a in report.generators)
    for a in report.generators:
        assert sorted(a.images) == list(range(len(adj)))
        assert all(sum(1 << a.images[j] for j in bits(adj[i])) == adj[a.images[i]]
                   for i in range(len(adj)))


@pytest.mark.parametrize("n", range(2, 11))
def test_boolean_route_matches_the_search(n):
    g = build_boolean(n)
    report = automorphism_group(g)
    verdicts = transitivity(g, report)
    assert (g._dense is None) == (n >= 3)
    adj = g.dense().adj
    order, maps = _stabilizer_chain(adj)
    assert (report.order, verdicts) == (order, _transitivity(adj, maps))
    if n >= 3:
        assert report.structure == f"S{n} x Z2"
        assert [(a.base_perm, a.complemented) for a in report.generators] == [
            ((1, 0, *range(2, n)), False), ((*range(1, n), 0), False),
            (tuple(range(n)), True)]


@pytest.mark.parametrize("corruption,match", [
    ("symmetry._complement = corrupt", "breaks the decomposition"),
    ("symmetry._stabilizer_chain = lambda adj: (1, [])", "has 1 automorphisms, not 2·5!"),
    ("symmetry._neighbours_in = lambda u, crown: 0", "two vertices have the same neighbours"),
    ("symmetry._orbits = lambda n, maps: list(range(n))",
     "transitivity certificate failed: layer 1 meets two vertex orbits"),
])
def test_aut_certificate_checks_survive_python_O(corruption, match):
    # Each corrupted step of the crown certificate raises RuntimeError, so
    # ``aut`` exits 3, also when python -O strips assert statements.
    script = (
        "import sys\n"
        "from idealgraph import symmetry\n"
        "from idealgraph.cli import main\n"
        "real = symmetry._complement\n"
        "def corrupt(*args):\n"
        "    a = real(*args)\n"
        "    images = list(a.images)\n"
        "    images[0], images[1] = images[1], images[0]\n"
        "    return a._replace(images=tuple(images))\n"
        f"{corruption}\n"
        "print(sys.flags.optimize)\n"
        "sys.exit(main(['aut', '--n', '5']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "1\n")
    assert proc.stderr.startswith("error: internal failure: RuntimeError: ")
    assert match in proc.stderr


def test_transitivity_matches_edge_orbits_on_named_graphs():
    # Vertex- and edge-transitive, vertex- but not edge-transitive, and edge-
    # but not vertex-transitive graphs, where a single class of edges between
    # vertex orbits leaves the verdict to the union-find over edges.
    cases = [
        (nx.petersen_graph(), (True, True)),
        (nx.circular_ladder_graph(6), (True, False)),
        (nx.complete_bipartite_graph(3, 4), (False, True)),
        (nx.star_graph(5), (False, True)),
        (nx.path_graph(4), (False, False)),
        (nx.empty_graph(4), (True, True)),
    ]
    for G, want in cases:
        G = nx.convert_node_labels_to_integers(G)
        adj = adj_from_edges(G.number_of_nodes(), G.edges())
        _, maps = _stabilizer_chain(adj)
        assert _transitivity(adj, maps) == want
        assert transitivity_by_edge_orbits(adj, maps) == want


def test_long_path_has_no_recursion_error():
    # One level per vertex would overflow a recursive search.
    order, maps = _stabilizer_chain(adj_from_edges(1100, [(i, i + 1) for i in range(1099)]))
    assert order == 2
    assert maps[0] == tuple(range(1099, -1, -1))


def test_long_cycle_group_is_dihedral():
    adj = adj_from_edges(300, [(i, (i + 1) % 300) for i in range(300)])
    order, maps = _stabilizer_chain(adj)
    assert order == 600
    assert _transitivity(adj, maps) == (True, True)
