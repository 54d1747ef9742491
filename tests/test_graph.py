"""Inclusion graph construction, degrees, the Boolean bridge, and export."""

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
    InclusionGraph,
    OutOfRangeError,
    TooLargeError,
    TruncatedFamilyError,
    UnknownVertexError,
    build_boolean,
    build_from_family,
    cyclic_group,
    enumerate_left_ideals,
    export_graph,
    minimal_ideal_coordinates,
    null_semigroup,
    rectangular_band,
    right_zero,
)
from idealgraph import graph
from idealgraph.graph import _meets, bits, command_vertex_cap, containment_adjacency, transpose
from idealgraph.theorems import builtin_corpus
from oracles import (containment_by_pairwise_scan, export_dot_document, export_json_document,
                     longest_chain_levels, shuffled_table, shuffled_tables)


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


def test_boolean_bridge_right_zero():
    for n in range(2, 11):
        fam = enumerate_left_ideals(right_zero(n))
        got_n, coords = minimal_ideal_coordinates(fam)
        assert got_n == n
        assert coords == tuple(build_boolean(n).vertices())


def test_boolean_bridge_rectangular_band():
    # 2x3 band: 3 minimal left ideals of size 2 each; relabeled family is
    # the full Boolean model on 3 points.
    fam = enumerate_left_ideals(rectangular_band(2, 3))
    got_n, coords = minimal_ideal_coordinates(fam)
    assert got_n == 3
    assert coords == tuple(build_boolean(3).vertices())


def test_boolean_bridge_rejects_non_boolean_families():
    fam = enumerate_left_ideals(null_semigroup(3))
    with pytest.raises(ValueError):
        minimal_ideal_coordinates(fam)


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


def pairwise_adjacency(masks):
    """Oracle: two distinct masks are adjacent iff one contains the other."""
    return [sum(1 << j for j, v in enumerate(masks) if j != i and u & v in (u, v))
            for i, u in enumerate(masks)]


def union_closure(generators):
    family = set(generators)
    frontier = list(family)
    while frontier:
        x = frontier.pop()
        for p in generators:
            if x | p not in family:
                family.add(x | p)
                frontier.append(x | p)
    return family


masks_st = st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=40)


@settings(max_examples=150, deadline=None)
@given(masks_st)
def test_dense_matches_pairwise_scan(masks):
    dense = InclusionGraph("generic", vertices=tuple(masks)).dense()
    assert dense.adj == pairwise_adjacency(dense.masks)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=(1 << 8) - 1), min_size=1, max_size=6))
def test_dense_matches_pairwise_scan_on_union_closed_families(generators):
    dense = InclusionGraph("generic", vertices=tuple(union_closure(generators))).dense()
    assert dense.adj == pairwise_adjacency(dense.masks)


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


@pytest.mark.parametrize("n", range(2, 10))
def test_export_json_matches_json_dumps_boolean(n):
    g = build_boolean(n)
    assert export_graph(g, "json") == export_json_document(g)


def test_export_json_matches_json_dumps_edge_cases():
    empty = build_from_family(enumerate_left_ideals(cyclic_group(3)))
    assert empty.vertex_count == 0
    antichain = InclusionGraph("generic", vertices=(0b0011, 0b0101, 0b1001, 0b0110))
    assert antichain.edge_count() == 0
    for g in (empty, antichain):
        assert export_graph(g, "json") == export_json_document(g)


@settings(max_examples=150, deadline=None)
@given(masks_st)
def test_export_json_matches_json_dumps_mask_families(masks):
    g = InclusionGraph("generic", vertices=tuple(masks))
    assert export_graph(g, "json") == export_json_document(g)


@pytest.mark.parametrize("n", range(2, 11))
def test_export_dot_matches_per_edge_writer_boolean(n):
    # From n = 10 on, the member labels of a name are joined by "_". Compared
    # as lists of lines: pytest's diff of two megabyte strings takes minutes.
    g = build_boolean(n)
    assert export_graph(g, "dot").splitlines(True) == export_dot_document(g).splitlines(True)


def test_export_dot_matches_per_edge_writer_edge_cases():
    empty = build_from_family(enumerate_left_ideals(cyclic_group(3)))
    antichain = InclusionGraph("generic", vertices=(0b0011, 0b0101, 0b1001, 0b0110))
    for g in (empty, antichain):
        assert export_graph(g, "dot") == export_dot_document(g)


@settings(max_examples=150, deadline=None)
@given(masks_st)
def test_export_dot_matches_per_edge_writer_mask_families(masks):
    g = InclusionGraph("generic", vertices=tuple(masks))
    assert export_graph(g, "dot") == export_dot_document(g)


# --- the containment order ---------------------------------------------------

def check_containment_order(masks):
    """The builders on ``masks`` as given, and the order of their graph with
    its chain levels, against the pairwise scan and the longest-chain DP."""
    below, above = containment_by_pairwise_scan(masks)
    columns = transpose(masks)
    assert columns == [sum(1 << i for i, m in enumerate(masks) if m >> e & 1)
                       for e in range(max(masks, default=0).bit_length())]
    assert containment_adjacency(masks) == [b | a for b, a in zip(below, above)]
    dense = InclusionGraph("generic", vertices=masks).dense()
    order = dense.containment
    assert (order.below, order.above) == containment_by_pairwise_scan(dense.masks)
    assert dense.adj == [b | a for b, a in zip(order.below, order.above)]
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
    # No lattice: from 2 zigzags on, codes of the subsets pass miss and AND
    # their own columns.
    assert (column_reads(masks)[1] > len(masks) + 1) == (zigzags >= 2)
    order = InclusionGraph("generic", vertices=masks).dense().containment
    assert sorted(order.down) == [1] * (zigzags + 1) + [2] * zigzags


def lattice_families():
    """Complete ideal families: the built-in corpus, with its empty
    families, and the shuffled tables."""
    tables = [t for t, _ in builtin_corpus()[0]] + shuffled_tables()
    return [enumerate_left_ideals(t) for t in tables]


def test_containment_order_of_tables_and_boolean_families():
    # Ideal families passed as their element masks, not their codes, and a
    # family with a hole: right-zero 4 without {0, 1}.
    families = [enumerate_left_ideals(t).masks for t in (
        rectangular_band(3, 4), null_semigroup(5), right_zero(5))]
    families += [fam.masks for fam in lattice_families()]
    families += [tuple(build_boolean(n).vertices()) for n in (2, 3, 6)]
    families.append(tuple(m for m in enumerate_left_ideals(right_zero(4)).masks if m != 0b11))
    assert len(families) == 3 + 228 + 12 + 3 + 1
    for masks in families:
        check_containment_order(masks)


def test_containment_order_of_empty_and_one_vertex_families():
    assert containment_adjacency(()) == []
    assert transpose(()) == []
    for mask in (0, 0b1, 0b10110):
        assert containment_adjacency((mask,)) == [0]
        order = InclusionGraph("generic", vertices=(mask,)).dense().containment
        assert order == ([0], [0], [1], [1])
    empty = build_from_family(enumerate_left_ideals(cyclic_group(3))).dense()
    assert empty.containment == ([], [], [], [])


class CountingColumns(dict):
    """Columns that count their reads. ``_meets`` reads ``cols[0]`` once to
    start, one column for each code one AND from a stored code, and
    ``cols[0]`` with every column of a code that misses, three or more; so
    a pass reads len(codes) + 1 columns iff no code misses."""

    reads = 0

    def __getitem__(self, bit):
        self.reads += 1
        return super().__getitem__(bit)


def column_reads(masks) -> list[int]:
    """The columns ``containment_adjacency(masks)`` reads in its supersets
    and its subsets pass."""
    reads = []

    def counting(codes, cols, highest=False):
        counted = CountingColumns(cols)
        out = _meets(codes, counted, highest)
        reads.append(counted.reads)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_meets", counting)
        containment_adjacency(masks)
    return reads


def check_chain(masks, codes):
    """A chain of masks, each one larger than the last, and its codes: the
    chain's down-sets, so the i-th code is the lowest i + 1 bits. The
    masks, passed as codes, and the codes give the chain's adjacency (every
    other vertex, which the pairwise scan also gives), and the codes cost
    one column read per code and side."""
    width = len(masks)
    everyone = (1 << width) - 1
    assert codes == tuple((2 << i) - 1 for i in range(width))
    for adj in (containment_adjacency(masks), containment_adjacency(codes)):
        order = DenseGraph(adj, masks).containment
        for i in range(width):
            assert adj[i] == everyone ^ (1 << i)
            assert order.below[i] == (1 << i) - 1
        assert order.down == list(range(1, width + 1))
        assert order.up == list(range(width, 0, -1))
    assert column_reads(codes) == [width + 1] * 2


def chain_of(elements):
    """The chain that adds ``elements`` one at a time, and its down-set
    codes."""
    masks = tuple(itertools.accumulate(1 << e for e in elements))
    return masks, tuple((2 << i) - 1 for i in range(len(masks)))


@pytest.mark.parametrize("reverse", [False, True])
def test_containment_order_of_a_chain_over_1000_columns(reverse):
    # Both orders of adding the elements: lowest first, where the masks are
    # the codes, and highest first.
    check_chain(*chain_of(range(999, -1, -1) if reverse else range(1000)))


def test_containment_order_of_a_shuffled_chain():
    elements = list(range(1000))
    random.Random(5).shuffle(elements)
    check_chain(*chain_of(elements))


def test_containment_order_of_a_chain_table():
    # min on 0 < 1 < ... < 39, relabeled: the left ideals are the proper
    # initial segments, each principal, and the family's codes are their
    # down-sets.
    m = 40
    t = shuffled_table(CayleyTable(m, tuple(tuple(min(a, b) for b in range(m))
                                            for a in range(m))), 7)
    fam = enumerate_left_ideals(t)
    assert len(fam.ideals) == m - 1
    assert containment_adjacency(fam.masks) == containment_adjacency(fam.codes) == [
        b | a for b, a in zip(*containment_by_pairwise_scan(fam.masks))]
    check_chain(fam.masks, fam.codes)


@pytest.mark.parametrize("n", [3, 8, 11])
def test_boolean_family_costs_one_column_read_per_mask_and_side(n):
    masks = tuple(build_boolean(n).vertices())
    assert column_reads(masks) == [len(masks) + 1] * 2


def test_ideal_families_cost_one_column_read_per_mask_and_side():
    for fam in lattice_families():
        assert column_reads(fam.codes) == [len(fam.codes) + 1] * 2
