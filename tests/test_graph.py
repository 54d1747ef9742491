"""Inclusion graph construction, degrees, the Boolean bridge, and export."""

import functools
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraph import (
    CayleyTable,
    DenseGraph,
    OutOfRangeError,
    TooLargeError,
    TruncatedFamilyError,
    UnknownVertexError,
    build_boolean,
    build_from_family,
    cyclic_group,
    enumerate_left_ideals,
    export_graph,
    join_irreducibles,
    null_semigroup,
    rectangular_band,
    right_zero,
)
from idealgraph import graph
from idealgraph.catalog import small_semigroup_corpus
from idealgraph.graph import _meets, bits, command_vertex_cap, containment_adjacency, transpose
from idealgraph.semigroup import IdealFamily, LeftIdeal
from idealgraph.theorems import builtin_corpus
from oracles import (benchmark_tables, containment_by_pairwise_scan, export_dot_document,
                     export_json_document, holed_right_zero_4, longest_chain_levels,
                     pairwise_inclusion_graph, shuffled_table, shuffled_tables)


def test_build_from_family_null_semigroup_is_path():
    g = build_from_family(enumerate_left_ideals(null_semigroup(3)))
    assert g.vertex_count == 3
    assert g.edge_count() == 2
    # {z} is the center: adjacent to both two-element ideals.
    assert sorted(g.neighbors(0b001)) == [0b011, 0b101]
    assert g.neighbors(0b011) == [0b001]


def test_build_from_family_group_is_empty():
    g = build_from_family(enumerate_left_ideals(cyclic_group(3)))
    assert g.vertex_count == 0
    assert g.edge_count() == 0


def test_build_from_family_right_zero_three_is_c6():
    g = build_from_family(enumerate_left_ideals(right_zero(3)))
    assert g.vertex_count == 6
    assert g.edge_count() == 6
    assert all(g.degree(v) == 2 for v in g.vertices())
    # Connected 2-regular graph on 6 vertices: the 6-cycle.
    dense = g.dense()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in bits(dense.adj[u]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == 6


def test_build_from_family_rejects_truncated():
    fam = enumerate_left_ideals(right_zero(5), cap=5)
    with pytest.raises(TruncatedFamilyError):
        build_from_family(fam)


def test_build_boolean_sizes():
    assert build_boolean(2).vertex_count == 2
    assert build_boolean(2).edge_count() == 0
    assert build_boolean(3).vertex_count == 6
    assert build_boolean(3).edge_count() == 6
    assert build_boolean(4).vertex_count == 14


def test_build_boolean_range():
    with pytest.raises(OutOfRangeError):
        build_boolean(1)
    with pytest.raises(OutOfRangeError):
        build_boolean(63)
    assert build_boolean(62).vertex_count == 2 ** 62 - 2


def test_boolean_edge_count_closed_form():
    for n in range(2, 9):
        expected = sum(
            math.comb(n, k) * ((2 ** k - 2) + (2 ** (n - k) - 2))
            for k in range(1, n)
        ) // 2
        assert build_boolean(n).edge_count() == expected


def test_vertex_degree_formula_examples():
    g4 = build_boolean(4)
    assert g4.degree(0b0001) == 6
    assert g4.degree(0b0011) == 4
    g5 = build_boolean(5)
    assert g5.degree(0b00011) == 8


def test_vertex_degree_counts_match_neighbors():
    for n in (2, 3, 4, 5, 6):
        g = build_boolean(n)
        for v in g.vertices():
            assert g.degree(v) == len(g.neighbors(v))


def test_vertex_degree_unknown_vertex():
    g = build_boolean(3)
    with pytest.raises(UnknownVertexError):
        g.degree(0b111)
    with pytest.raises(UnknownVertexError):
        g.degree(0)


def test_equal_popcount_never_adjacent():
    for n in (3, 4, 5, 6):
        g = build_boolean(n)
        vs = list(g.vertices())
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if vs[i].bit_count() == vs[j].bit_count():
                    assert not g.adjacent(vs[i], vs[j])


def test_handshake():
    for n in (2, 3, 4, 5, 6, 7):
        g = build_boolean(n)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count()


def boolean_coordinates(t):
    """(|J|, the family's J-codes) when J is an antichain, else None."""
    joins = join_irreducibles(t)
    if not joins.antichain:
        return None
    return len(joins.masks), enumerate_left_ideals(t).codes


def test_boolean_bridge_right_zero():
    for n in range(2, 11):
        assert boolean_coordinates(right_zero(n)) == (n, tuple(build_boolean(n).vertices()))


def test_boolean_bridge_rectangular_band():
    # 2x3 band: 3 minimal left ideals of size 2 each; relabeled family is
    # the full Boolean model on 3 points.
    assert boolean_coordinates(rectangular_band(2, 3)) == (3, tuple(build_boolean(3).vertices()))
    # Relabeled, as well.
    for a, b in ((2, 3), (3, 4)):
        for seed in range(4):
            t = shuffled_table(rectangular_band(a, b), seed)
            assert boolean_coordinates(t) == (b, tuple(build_boolean(b).vertices()))


def test_boolean_families_list_their_codes_in_canonical_order():
    # When J is an antichain of one size, as in every such table here, the
    # J-codes come in (popcount, code) order, the order of Boolean vertices:
    # an ideal's size is its code's popcount times that size.
    tables = [t for t, _ in small_semigroup_corpus(4)] + benchmark_tables(seeds=(101,))
    boolean_ns = []
    for t in tables:
        found = boolean_coordinates(t)
        if found is None:
            continue
        n, codes = found
        assert len(set(map(int.bit_count, join_irreducibles(t).masks))) == 1
        boolean_ns.append(n)
        assert codes == tuple(sorted(codes, key=lambda c: (c.bit_count(), c)))
    assert (len(tables), len(boolean_ns), max(boolean_ns)) == (225, 19, 10)


def test_boolean_bridge_rejects_non_boolean_families():
    joins = join_irreducibles(null_semigroup(3))
    assert not joins.antichain
    with pytest.raises(RuntimeError):  # {0} lies in both other members of J
        joins.unions()


def test_export_json_n2():
    doc = json.loads(export_graph(build_boolean(2), "json"))
    assert doc["mode"] == "boolean"
    assert doc["n"] == 2
    assert len(doc["vertices"]) == 2
    assert doc["edges"] == []


def test_export_json_n3_edge_count():
    doc = json.loads(export_graph(build_boolean(3), "json"))
    assert len(doc["edges"]) == 6
    ids = [v["id"] for v in doc["vertices"]]
    assert ids == list(range(6))
    masks = [v["mask"] for v in doc["vertices"]]
    assert masks == [1, 2, 4, 3, 5, 6]
    assert all(v["size"] == bin(v["mask"]).count("1") for v in doc["vertices"])


def test_export_empty_dot():
    g = build_from_family(enumerate_left_ideals(cyclic_group(3)))
    dot = export_graph(g, "dot")
    assert dot == "graph In {\n}\n"


def test_export_dot_names():
    dot = export_graph(build_boolean(3), "dot")
    assert dot.startswith("graph In {")
    assert "  I_1;" in dot
    assert "  I_23;" in dot
    assert "  I_1 -- I_12;" in dot


def test_export_deterministic():
    a = export_graph(build_boolean(5), "json")
    b = export_graph(build_boolean(5), "json")
    assert a == b
    assert export_graph(build_boolean(4), "dot") == export_graph(build_boolean(4), "dot")


def test_dense_cap_enforced():
    with command_vertex_cap(1000), pytest.raises(TooLargeError):
        build_boolean(24).dense()


def test_dense_cap_enforced_after_caching():
    g = build_boolean(10)
    assert g.dense().size == 1022
    with command_vertex_cap(10), pytest.raises(TooLargeError):
        g.dense()
    with command_vertex_cap(1022):
        assert g.dense() is g.dense()


def test_dense_graph_requires_masks():
    # Every materialized graph carries the masks its containment order is
    # read from; adjacency alone is no DenseGraph.
    with pytest.raises(TypeError):
        DenseGraph(adj=[0b10, 0b01])
    dense = build_boolean(3).dense()
    assert DenseGraph(adj=dense.adj, masks=dense.masks).containment == dense.containment


@st.composite
def down_set_codes(draw):
    """The nonempty proper down-sets, sorted by (popcount, code), of a random
    poset on up to seven bits, each bit above only lower ones: the codes of
    a complete ideal family over its join-irreducibles."""
    below = []
    for j in range(draw(st.integers(min_value=0, max_value=7))):
        lower = draw(st.integers(min_value=0, max_value=(1 << j) - 1))
        below.append(functools.reduce(int.__or__, (below[i] for i in bits(lower)), lower))
    full = (1 << len(below)) - 1
    return tuple(sorted((c for c in range(1, full) if all(below[j] & ~c == 0 for j in bits(c))),
                        key=lambda c: (c.bit_count(), c)))


def ring_family(ring):
    """The nonempty members of a ring of sets (closed under union and
    intersection, so a distributive lattice) as the complete ideal family of
    a semigroup in which every element outside their union, one at least,
    generates S: J is the join-irreducible members, each member's code the
    members of J inside it, and the extremes come from the pairwise scan."""
    masks = tuple(sorted(ring, key=lambda m: (m.bit_count(), m)))
    below, above = containment_by_pairwise_scan(masks)
    joins = [m for m, b in zip(masks, below)
             if m != functools.reduce(int.__or__, (masks[i] for i in bits(b)), 0)]
    order = functools.reduce(int.__or__, masks, 0).bit_length() + 1
    return IdealFamily(order, tuple(LeftIdeal(m, m.bit_count(), True) for m in masks),
                       tuple(i for i, b in enumerate(below) if not b),
                       tuple(i for i, a in enumerate(above) if not a), False,
                       tuple(sum(1 << k for k, j in enumerate(joins) if j & m == j)
                             for m in masks))


@settings(max_examples=150, deadline=None)
@given(down_set_codes())
def test_dense_matches_pairwise_scan(codes):
    assert containment_adjacency(codes) == pairwise_inclusion_graph(codes).adj
    assert column_reads(codes) == [len(codes) + 1] * 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=(1 << 6) - 1), min_size=1, max_size=5))
def test_dense_matches_pairwise_scan_on_union_closed_families(generators):
    # The generators closed under union and intersection, so the members are
    # element masks and the codes come from the join-irreducibles among them.
    ring = set(generators)
    while (grown := ring | {a | b for a in ring for b in ring}
           | {a & b for a in ring for b in ring} - {0}) != ring:
        ring = grown
    fam = ring_family(ring)
    dense = build_from_family(fam).dense()
    assert dense.masks == fam.masks
    assert dense.adj == pairwise_inclusion_graph(fam.masks).adj


def test_boolean_dense_matches_adjacent():
    for n in range(2, 9):
        g = build_boolean(n)
        dense = g.dense()
        for i, u in enumerate(dense.masks):
            want = sum(1 << j for j, v in enumerate(dense.masks) if g.adjacent(u, v))
            assert dense.adj[i] == want


def test_degree_closed_form_for_huge_layers():
    # Layers too large to enumerate use the closed form directly.
    g = build_boolean(62)
    v = (1 << 31) - 1  # the first 31 elements
    assert g.degree(v) == (2 ** 31 - 2) + (2 ** 31 - 2)
    assert g.degree(0b1) == (2 ** 1 - 2) + (2 ** 61 - 2)


def refuse_dense(monkeypatch):
    """Make ``InclusionGraph.dense`` raise: a Boolean export reads the masks."""
    def refuse(self):
        raise AssertionError("a Boolean export built the adjacency")

    monkeypatch.setattr(graph.InclusionGraph, "dense", refuse)


@pytest.mark.parametrize("n", range(2, 10))
def test_export_json_matches_json_dumps_boolean(n, monkeypatch):
    refuse_dense(monkeypatch)
    g = build_boolean(n)
    assert export_graph(g, "json") == export_json_document(g)


@pytest.mark.parametrize("n", range(2, 12))
def test_boolean_upper_rows_are_the_containment_rows(n):
    # Each row's superset masks, as indices, are the set bits of above[i] in
    # index order; rows come last first, one for each vertex with a superset.
    g = build_boolean(n)
    masks = tuple(g.vertices())
    index = {m: i for i, m in enumerate(masks)}
    rows = list(graph.boolean_upper_rows(n, masks))
    above = g.dense().containment.above
    assert [i for i, _ in rows] == [i for i in reversed(range(len(masks))) if above[i]]
    for i, up in rows:
        assert [index[m] for m in up] == bits(above[i])


def test_boolean_export_keeps_the_vertex_cap():
    with command_vertex_cap(5), pytest.raises(TooLargeError):
        export_graph(build_boolean(4))
    with command_vertex_cap(5), pytest.raises(TooLargeError):
        export_graph(build_boolean(4), "dot")


def edge_case_graphs():
    """The empty graph of a group and the edgeless one of right-zero 2."""
    empty = build_from_family(enumerate_left_ideals(cyclic_group(3)))
    edgeless = build_from_family(enumerate_left_ideals(right_zero(2)))
    assert (empty.vertex_count, edgeless.vertex_count, edgeless.edge_count()) == (0, 2, 0)
    return empty, edgeless


def test_export_json_matches_json_dumps_edge_cases():
    for g in edge_case_graphs():
        assert export_graph(g, "json") == export_json_document(g)


def lattice_graphs():
    """The graphs of ``lattice_families`` and Boolean n = 2..6."""
    return ([build_from_family(fam) for fam in lattice_families()]
            + [build_boolean(n) for n in range(2, 7)])


def test_export_json_matches_json_dumps_mask_families():
    for g in lattice_graphs():
        assert export_graph(g, "json") == export_json_document(g)


@pytest.mark.parametrize("n", range(2, 11))
def test_export_dot_matches_per_edge_writer_boolean(n, monkeypatch):
    # From n = 10 on, the member labels of a name are joined by "_". Compared
    # as lists of lines: pytest's diff of two megabyte strings takes minutes.
    refuse_dense(monkeypatch)
    g = build_boolean(n)
    assert export_graph(g, "dot").splitlines(True) == export_dot_document(g).splitlines(True)


def test_export_dot_matches_per_edge_writer_edge_cases():
    for g in edge_case_graphs():
        assert export_graph(g, "dot") == export_dot_document(g)


def test_export_dot_matches_per_edge_writer_mask_families():
    for g in lattice_graphs():
        assert export_graph(g, "dot") == export_dot_document(g)


# --- the containment order ---------------------------------------------------

def check_containment_order(masks):
    """``transpose`` of ``masks`` as given, and the order of their inclusion
    graph with its chain levels, against the pairwise scan and the
    longest-chain DP."""
    columns = transpose(masks)
    assert columns == [sum(1 << i for i, m in enumerate(masks) if m >> e & 1)
                       for e in range(max(masks, default=0).bit_length())]
    dense = pairwise_inclusion_graph(masks)
    order = dense.containment
    assert (order.below, order.above) == containment_by_pairwise_scan(dense.masks)
    assert (order.down, order.up) == longest_chain_levels(dense.masks)


def blow_up(mask, width):
    """Each element e of ``mask`` becomes the ``width`` elements of block e,
    so every block is one repeated column."""
    return sum(((1 << width) - 1) << width * e for e in bits(mask))


def fence(zigzags):
    """The singletons {0}, ..., {k} and the pairs {i, i+1}: a zigzag poset of
    height 2 with no least element, and from k = 2 on two singletons with
    no upper bound, so it is no lattice."""
    return tuple([1 << i for i in range(zigzags + 1)]
                 + [3 << i for i in range(zigzags)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), unique=True, max_size=40))
def test_containment_order_matches_oracles_on_random_families(masks):
    # Unsorted, and with the empty mask sometimes among them.
    check_containment_order(tuple(masks))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=(1 << 6) - 1), unique=True, max_size=30),
       st.integers(min_value=2, max_value=4))
def test_containment_order_matches_oracles_with_repeated_columns(masks, width):
    blown = tuple(blow_up(m, width) for m in masks)
    assert len(set(transpose(blown))) == len(set(transpose(masks)))
    check_containment_order(blown)


@pytest.mark.parametrize("zigzags", [1, 2, 5, 13])
def test_containment_order_matches_oracles_on_fences(zigzags):
    masks = fence(zigzags)
    check_containment_order(masks)
    order = pairwise_inclusion_graph(masks).containment
    assert sorted(order.down) == [1] * (zigzags + 1) + [2] * zigzags
    # Passed as codes, a fence of two zigzags or more is no family of
    # down-sets: {2} with the lowest element outside it, {0, 2}, is no
    # member, so the subsets pass finds no parent and the build refuses.
    if zigzags >= 2:
        with pytest.raises(RuntimeError, match="has no stored parent"):
            containment_adjacency(masks)
    else:
        assert containment_adjacency(masks) == pairwise_inclusion_graph(masks).adj


def lattice_families():
    """Complete ideal families: the built-in corpus, with its empty
    families, and the shuffled tables."""
    tables = [t for t, _ in builtin_corpus()[0]] + shuffled_tables()
    return [enumerate_left_ideals(t) for t in tables]


def test_containment_order_of_tables_and_boolean_families():
    # Ideal families, built on their codes, against the pairwise scan of
    # their element masks; Boolean families, whose masks are their codes;
    # and a family with a hole, which has no graph of its own.
    families = [enumerate_left_ideals(t) for t in (
        rectangular_band(3, 4), null_semigroup(5), right_zero(5))]
    families += lattice_families()
    assert len(families) == 3 + 228 + 12
    for fam in families:
        assert build_from_family(fam).dense().adj == pairwise_inclusion_graph(fam.masks).adj
        check_containment_order(fam.masks)
    for n in (2, 3, 6):
        masks = tuple(build_boolean(n).vertices())
        assert containment_adjacency(masks) == pairwise_inclusion_graph(masks).adj
        check_containment_order(masks)
    holed = holed_right_zero_4()
    with pytest.raises(RuntimeError, match="code 0x7 has no stored parent 0x3"):
        containment_adjacency(holed.codes)
    check_containment_order(holed.masks)


def test_containment_order_of_empty_and_one_vertex_families():
    assert containment_adjacency(()) == []
    assert transpose(()) == []
    assert containment_adjacency((0b1,)) == [0]
    # The null semigroup of order 2 has one nontrivial left ideal, {0}.
    one = build_from_family(enumerate_left_ideals(null_semigroup(2))).dense()
    assert (one.masks, one.containment) == ((0b1,), ([0], [0], [1], [1]))
    for mask in (0, 0b1, 0b10110):
        assert pairwise_inclusion_graph((mask,)).containment == ([0], [0], [1], [1])
    empty = build_from_family(enumerate_left_ideals(cyclic_group(3))).dense()
    assert empty.containment == ([], [], [], [])


class CountingColumns(dict):
    """Columns that count their reads. ``_meets`` reads ``cols[0]`` once to
    start and one column for each code, one AND on its parent's: a pass
    reads len(codes) + 1 columns."""

    reads = 0

    def __getitem__(self, bit):
        self.reads += 1
        return super().__getitem__(bit)


def column_reads(codes) -> list[int]:
    """The columns ``containment_adjacency(codes)`` reads in its supersets
    and its subsets pass."""
    reads = []

    def counting(codes, cols, highest=False):
        counted = CountingColumns(cols)
        out = _meets(codes, counted, highest)
        reads.append(counted.reads)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_meets", counting)
        containment_adjacency(codes)
    return reads


def check_chain(fam):
    """A chain family, each ideal one element larger than the last: J is
    the whole chain, so the i-th code is the lowest i + 1 bits. Its graph
    joins every vertex to every other (as the pairwise scan also gives),
    and its codes cost one column read per code and side."""
    width = len(fam.codes)
    everyone = (1 << width) - 1
    assert fam.codes == tuple((2 << i) - 1 for i in range(width))
    dense = build_from_family(fam).dense()
    order = dense.containment
    for i in range(width):
        assert dense.adj[i] == everyone ^ (1 << i)
        assert order.below[i] == (1 << i) - 1
    assert order.down == list(range(1, width + 1))
    assert order.up == list(range(width, 0, -1))
    assert column_reads(fam.codes) == [width + 1] * 2


def chain_family(elements):
    """The chain that adds ``elements`` one at a time, as the ideal family of
    a semigroup with one more element, which generates it."""
    masks = tuple(itertools.accumulate(1 << e for e in elements))
    return IdealFamily(len(masks) + 1, tuple(LeftIdeal(m, m.bit_count(), True) for m in masks),
                       (0,), (len(masks) - 1,), False,
                       tuple((2 << i) - 1 for i in range(len(masks))))


@pytest.mark.parametrize("reverse", [False, True])
def test_containment_order_of_a_chain_over_1000_columns(reverse):
    # Both orders of adding the elements: lowest first, where the masks are
    # the codes, and highest first.
    check_chain(chain_family(range(999, -1, -1) if reverse else range(1000)))


def test_containment_order_of_a_shuffled_chain():
    elements = list(range(1000))
    random.Random(5).shuffle(elements)
    check_chain(chain_family(elements))


def test_containment_order_of_a_chain_table():
    # min on 0 < 1 < ... < 39, relabeled: the left ideals are the proper
    # initial segments, each principal, and the family's codes are their
    # down-sets.
    m = 40
    t = shuffled_table(CayleyTable(m, tuple(tuple(min(a, b) for b in range(m))
                                            for a in range(m))), 7)
    fam = enumerate_left_ideals(t)
    assert len(fam.ideals) == m - 1
    assert containment_adjacency(fam.codes) == pairwise_inclusion_graph(fam.masks).adj
    check_chain(fam)


@pytest.mark.parametrize("n", [3, 8, 11])
def test_boolean_family_costs_one_column_read_per_mask_and_side(n):
    masks = tuple(build_boolean(n).vertices())
    assert column_reads(masks) == [len(masks) + 1] * 2


def test_ideal_families_cost_one_column_read_per_mask_and_side():
    for fam in lattice_families():
        assert column_reads(fam.codes) == [len(fam.codes) + 1] * 2
