"""Bitset Hopcroft-Karp and König cover against the adjacency-list oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraph import build_boolean
from idealgraph.bipartite import hopcroft_karp, koenig_cover
from idealgraph.graph import bits
from oracles import hopcroft_karp_lists, koenig_cover_lists


def flags_to_bitset(flags):
    return sum(1 << i for i, f in enumerate(flags) if f)


def assert_matches_oracle(n_left, n_right, adj):
    lists = [bits(a) for a in adj]
    got = hopcroft_karp(n_left, n_right, adj)
    want = hopcroft_karp_lists(n_left, n_right, lists)
    assert got == want
    size, match_l, match_r = got
    left, right = koenig_cover(n_left, n_right, adj, match_l, match_r)
    want_left, want_right = koenig_cover_lists(n_left, n_right, lists, match_l, match_r)
    assert (left, right) == (flags_to_bitset(want_left), flags_to_bitset(want_right))
    # König: the cover has exactly one end of each matched edge and covers
    # every edge.
    assert left.bit_count() + right.bit_count() == size
    for u, a in enumerate(adj):
        assert left >> u & 1 or a & ~right == 0


@st.composite
def bipartite_bitsets(draw):
    n_left = draw(st.integers(0, 14))
    n_right = draw(st.integers(0, 14))
    density = draw(st.sampled_from((0.1, 0.25, 0.5, 0.9)))
    rows = draw(st.lists(st.lists(st.floats(0, 1), min_size=n_right, max_size=n_right),
                         min_size=n_left, max_size=n_left))
    adj = [sum(1 << v for v, x in enumerate(row) if x < density) for row in rows]
    return n_left, n_right, adj


@settings(max_examples=300, deadline=None)
@given(bipartite_bitsets())
def test_bitset_kernels_match_list_oracle(case):
    assert_matches_oracle(*case)


def test_bitset_kernels_match_list_oracle_on_containment():
    # The Dilworth split graph of independence_number: left u to right v for
    # every strict superset v of u. Greedy leaves free vertices, so the
    # phases and the König reach do real work here.
    for n in range(2, 9):
        dense = build_boolean(n).dense()
        above = dense.containment.above
        assert_matches_oracle(dense.size, dense.size, above)


def test_long_augmenting_path():
    # Left i sees right i and i+1, left k sees right 0. Greedy matches left
    # i to right i and leaves left k free; the only augmenting path runs
    # k, 0, 0, 1, 1, ..., k-1, k through every vertex.
    k = 7
    adj = [(1 << i) | (1 << (i + 1)) for i in range(k)] + [1]
    assert_matches_oracle(k + 1, k + 1, adj)
    size, _, _ = hopcroft_karp(k + 1, k + 1, adj)
    assert size == k + 1


def test_augmenting_paths_advance_one_layer_at_a_time():
    # Found by random search: a DFS that may also descend to a deeper BFS
    # layer still finds a perfect matching of the left side here, but a
    # different one.
    adj = [65, 274, 194, 2192, 5, 65, 136, 9]
    assert_matches_oracle(8, 12, adj)
    assert hopcroft_karp(8, 12, adj)[1] == [0, 8, 1, 4, 2, 6, 7, 3]
