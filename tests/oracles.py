"""Straightforward references for the optimized kernels: the semigroup
layer's associativity test, the isomorphism classes of order <= 5 by
orderly generation and the text of the package's class file written from
them, every labeled semigroup table of a small order (against which the
isomorphism classes are checked), the union closure of
an ideal family by a scan of every pair of members, tables relabeled by
a permutation of their elements (among them the benchmark's tables), the
nontrivial left ideals of a table by closing its principal left ideals
under union, the containment order
of a family of masks by a test of every pair and its longest chains by a
dynamic program over the masks in order of size, the inclusion graph of
any family of masks, lattice or not (``pairwise_inclusion_graph``; the
package builds them only from lattices) and a family with a hole, which
it refuses to build, graphs with any
adjacency (``adj_from_edges``; the package builds only inclusion graphs),
the diameter and girth by a BFS from every vertex, Hopcroft-Karp and König
over adjacency lists,
the graph export through ``json.dumps`` and as DOT one line per edge (both
with edges from a scan of every pair of masks), clique, chromatic,
independence and domination numbers of raw graphs from tables over all
vertex subsets, the odd-hole search one cycle length at a time by a
recursive induced-path extension, the generic branch-and-bound clique
search and exact colouring search, which take any graph, the blossom
matching that scans every vertex per contraction, the automorphism search
by recursive extension, and edge transitivity by a union-find over all
edges. The graph oracles take adjacency bitsets, ``adj[v]`` holding the
neighbours of vertex v."""

import itertools
import json
import math
import random
from collections import deque

from idealgraph import (CayleyTable, enumerate_left_ideals, null_semigroup, rectangular_band,
                        right_zero, right_zero_with_identity)
from idealgraph.graph import DenseGraph, bits
from idealgraph.semigroup import IdealFamily
from idealgraph.symmetry import _orbits


def first_nonassociative_triple(rows):
    """The lexicographically first (a, b, c) with (ab)c != a(bc), or None,
    by scanning every triple of the raw table."""
    m = len(rows)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return a, b, c
    return None


def cell_consistent(table, i, j):
    """Whether the partial table stays associative after cell (i, j) was set.

    Only the triples the new cell completes are checked, the ones whose four
    lookups xy, yz, (xy)z and x(yz) have just become defined; every other
    defined triple passed when its last cell was set. Undefined cells are -1.
    """
    span = range(len(table))
    v = table[i][j]
    ti, tj, tv = table[i], table[j], table[v]
    # (x, y) = (i, j): xy is the new cell.
    for z in span:
        yz = tj[z]
        if yz >= 0:
            left, right = tv[z], ti[yz]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (y, z) = (i, j): yz is the new cell.
    for tx in table:
        xy = tx[i]
        if xy >= 0:
            left, right = table[xy][j], tx[v]
            if left >= 0 and right >= 0 and left != right:
                return False
    for y in span:
        ty, yj = table[y], table[y][j]
        # xy = i and z = j: (xy)z is the new cell.
        if yj >= 0:
            for tx in table:
                if tx[y] == i and tx[yj] >= 0 and tx[yj] != v:
                    return False
        # x = i and yz = j: x(yz) is the new cell.
        iy = ti[y]
        if iy >= 0:
            tiy = table[iy]
            for z in span:
                if ty[z] == j and tiy[z] >= 0 and tiy[z] != v:
                    return False
    return True


def lex_leaders(m):
    """One table per isomorphism class of m-element semigroups, with its
    orbit size m!/|Aut(S)|, in lexicographic order.

    Orderly generation (Distler, Jefferson, Kelsey & Kotthoff, CP 2012):
    backtracking over the cells in row-major order keeps a partial table
    only if no relabeling sigma gives a smaller row-major prefix. The
    relabeled table holds sigma(T[sigma^-1 a][sigma^-1 b]) at (a, b); it is
    compared with T cell by cell, stopping at the first cell it leaves
    undefined. A sigma found larger stays larger in every completion and is
    dropped; an undecided one resumes at that cell after the next
    assignment. Each completed table is thus the least of its orbit, and the
    sigma still equal on it are its automorphisms. Isomorphisms only: an
    anti-isomorphism (transpose) swaps left and right ideals.
    """
    n = m * m
    table = [[-1] * m for _ in range(m)]
    flat = [-1] * n
    cells = [(i, j) for i in range(m) for j in range(m)]
    relabelings = []
    for sigma in itertools.permutations(range(m)):
        inv = sorted(range(m), key=sigma.__getitem__)
        src = [inv[a] * m + inv[b] for a, b in cells]
        if src != list(range(n)):
            relabelings.append((sigma, src, 0))

    def rec(k, undecided):
        if k == n:
            # Every sigma left compared equal on all cells: |Aut| - 1 of them.
            automorphisms = 1 + len(undecided)
            yield CayleyTable(m, tuple(map(tuple, table))), math.factorial(m) // automorphisms
            return
        i, j = cells[k]
        for v in range(m):
            table[i][j] = flat[k] = v
            if not cell_consistent(table, i, j):
                continue
            still = []
            for sigma, src, c in undecided:
                while c <= k and src[c] <= k and sigma[flat[src[c]]] == flat[c]:
                    c += 1
                if c > k or src[c] > k:
                    # Equal on every defined cell, or stopped at an undefined one.
                    still.append((sigma, src, c))
                elif sigma[flat[src[c]]] < flat[c]:
                    break  # a smaller relabeled prefix: prune
            else:
                yield from rec(k + 1, still)
        table[i][j] = flat[k] = -1

    yield from rec(0, relabelings)


CLASS_FILE_HEADER = """\
# The semigroups of order 1 to 5 up to isomorphism, one class per line.
# Each line is the class's orbit size m!/|Aut(S)|, a space, and the m*m
# cells of its lexicographically least table as digits in row-major order.
# Lines are in (order, lexicographic) order. Written by lex_leaders in
# tests/oracles.py: orderly generation (Distler, Jefferson, Kelsey &
# Kotthoff, CP 2012).
"""


def class_file_text(max_order=5):
    """The text of the package's class file, ``idealgraph/small_semigroups.txt``,
    from ``lex_leaders``. To rewrite the file, from the root of a checkout::

        PYTHONPATH=src:tests python -c 'import oracles, sys; sys.stdout.write(
            oracles.class_file_text())' > src/idealgraph/small_semigroups.txt
    """
    lines = [f"{w} {''.join(str(x) for row in t.rows for x in row)}\n"
             for m in range(1, max_order + 1) for t, w in lex_leaders(m)]
    return CLASS_FILE_HEADER + "".join(lines)


def enumerate_associative_tables(m):
    """All labeled associative m x m tables, in lexicographic order, by
    backtracking in row-major order that checks only the triples each new
    cell completes. Practical for m <= 4 (counts 1, 8, 113, 3492)."""
    table = [[-1] * m for _ in range(m)]
    cells = [(i, j) for i in range(m) for j in range(m)]

    def rec(k):
        if k == len(cells):
            yield CayleyTable(m, tuple(tuple(row) for row in table))
            return
        i, j = cells[k]
        for v in range(m):
            table[i][j] = v
            if cell_consistent(table, i, j):
                yield from rec(k + 1)
        table[i][j] = -1

    yield from rec(0)


def enumerate_by_full_recheck(m):
    """Labeled associative m x m tables by backtracking in row-major order,
    re-checking every defined triple after each cell assignment."""
    table = [[-1] * m for _ in range(m)]

    def consistent():
        for x in range(m):
            for y in range(m):
                for z in range(m):
                    xy, yz = table[x][y], table[y][z]
                    if xy >= 0 and yz >= 0:
                        left, right = table[xy][z], table[x][yz]
                        if left >= 0 and right >= 0 and left != right:
                            return False
        return True

    cells = [(i, j) for i in range(m) for j in range(m)]

    def rec(k):
        if k == len(cells):
            yield CayleyTable(m, tuple(tuple(row) for row in table))
            return
        i, j = cells[k]
        for v in range(m):
            table[i][j] = v
            if consistent():
                yield from rec(k + 1)
        table[i][j] = -1

    yield from rec(0)


def relabeled(rows, sigma):
    """The table of the same semigroup with element x renamed sigma[x]."""
    m = len(rows)
    inv = [0] * m
    for x, y in enumerate(sigma):
        inv[y] = x
    return tuple(tuple(sigma[rows[inv[a]][inv[b]]] for b in range(m)) for a in range(m))


def shuffled_table(t, seed):
    """``t`` with its elements renamed by a permutation drawn from ``seed``."""
    sigma = list(range(t.order))
    random.Random(seed).shuffle(sigma)
    return CayleyTable(t.order, relabeled(t.rows, sigma))


def magma_closure(rows, elements):
    """Smallest set holding ``elements`` and every product of two members."""
    closed = set(elements)
    while True:
        grown = closed | {rows[x][y] for x in closed for y in closed}
        if grown == closed:
            return closed
        closed = grown


def shuffled_tables():
    """Seeded relabelings of tables whose element columns come out of
    order, repeated (L-classes of 3 elements) and empty (the identity
    generates S)."""
    return [shuffled_table(t, seed) for t in (
        rectangular_band(3, 4), null_semigroup(6), right_zero_with_identity(4))
        for seed in range(4)]


def benchmark_tables(seeds=(101, 102)):
    """Seeded relabelings of the band, right-zero and null tables the
    benchmark's corpus builds."""
    return [shuffled_table(t, seed) for t in (
        rectangular_band(12, 8), rectangular_band(3, 10), rectangular_band(40, 5),
        rectangular_band(6, 6), right_zero(9), right_zero_with_identity(8),
        null_semigroup(10)) for seed in seeds]


def holed_right_zero_4():
    """Right-zero of order 4 has every proper subset as a left ideal; without
    {0, 1} the family is not closed under the union of {0} and {1}. The
    codes are the complete family's, so the code of {0, 1, 2} has no parent
    and the package builds no graph of it."""
    family = enumerate_left_ideals(right_zero(4))
    kept = [k for k, i in enumerate(family.ideals) if i.members != 0b0011]
    ideals = tuple(family.ideals[k] for k in kept)
    return IdealFamily(4, ideals, tuple(range(4)),
                       tuple(k for k, i in enumerate(ideals) if i.size == 3), False,
                       tuple(family.codes[k] for k in kept))


def left_ideals_by_union_closure(t):
    """(masks, minimal indices, maximal indices) of the nontrivial left
    ideals of ``t``, masks sorted by (size, mask): the union closure of the
    distinct principal left ideals by a breadth-first search that ORs every
    ideal found with every principal ideal. An ideal is minimal iff it is a
    principal ideal generated by each of its elements, and X is maximal iff
    X | p is X or S for every principal ideal p."""
    full = t.full_mask
    generators = t.l_class_by_ideal
    principals = sorted(generators)
    found = {p for p in principals if p != full}
    queue = sorted(found)
    while queue:
        x = queue.pop()
        for p in principals:
            y = x | p
            if y != full and y not in found:
                found.add(y)
                queue.append(y)
    masks = sorted(found, key=lambda m: (m.bit_count(), m))
    return (masks,
            tuple(i for i, x in enumerate(masks) if generators.get(x) == x),
            tuple(i for i, x in enumerate(masks)
                  if all(x | p in (x, full) for p in principals)))


def union_closed_pairwise(masks, full):
    """Whether ``masks`` together with ``full`` are closed under union, by
    the union of every unordered pair of distinct members (a | a = a and
    a | b = b | a)."""
    closed = {*masks, full}
    return all(closed.issuperset(map(a.__or__, masks[i + 1:]))
               for i, a in enumerate(masks))


def containment_by_pairwise_scan(masks):
    """(below, above): for each mask, the bitsets of the indices of the
    masks strictly inside and strictly containing it, by testing every pair."""
    below = [sum(1 << j for j, v in enumerate(masks) if v != u and v & u == v) for u in masks]
    above = [sum(1 << j for j, v in enumerate(masks) if v != u and v & u == u) for u in masks]
    return below, above


def pairwise_inclusion_graph(masks):
    """The inclusion graph of any family of masks (a fence, an antichain, a
    family with a hole): a ``DenseGraph`` over the distinct masks sorted by
    (popcount, mask), with adjacency from ``containment_by_pairwise_scan``."""
    masks = tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))
    below, above = containment_by_pairwise_scan(masks)
    return DenseGraph([b | a for b, a in zip(below, above)], masks)


def longest_chain_levels(masks):
    """(down, up): for each mask, the number of masks in a longest chain of
    strict containments ending and starting at it. A strict subset is
    smaller, so one pass over the masks in order of size settles ``down``
    and one in reverse settles ``up``, each mask compared with every mask
    the pass has already settled."""
    order = sorted(range(len(masks)), key=lambda i: masks[i].bit_count())
    down = [1] * len(masks)
    up = [1] * len(masks)
    for a, i in enumerate(order):
        for j in order[:a]:
            if masks[j] != masks[i] and masks[j] & masks[i] == masks[j]:
                down[i] = max(down[i], down[j] + 1)
    for a, i in reversed(list(enumerate(order))):
        for j in order[a + 1:]:
            if masks[j] != masks[i] and masks[j] & masks[i] == masks[i]:
                up[i] = max(up[i], up[j] + 1)
    return down, up


def adj_from_edges(n_vertices, edges):
    """Adjacency bitsets of the graph on vertices 0..n_vertices-1 with
    ``edges``, which need not be an inclusion graph."""
    adj = [0] * n_vertices
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops are not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def complement_adj(adj):
    """Adjacency bitsets of the complement graph."""
    full = (1 << len(adj)) - 1
    return [full & ~a & ~(1 << i) for i, a in enumerate(adj)]


def diameter_per_source(adj):
    """Largest eccentricity by a bitset BFS from every vertex; inf when
    disconnected, 0 on fewer than two vertices."""
    n = len(adj)
    allv = (1 << n) - 1
    diam = 0
    for s in range(n):
        seen = 1 << s
        frontier = seen
        d = 0
        while seen != allv:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & ~seen
            if not frontier:
                return math.inf
            seen |= frontier
            d += 1
        if d > diam:
            diam = d
    return diam


def girth_per_vertex_bfs(adj):
    """Length of a shortest cycle by a queue BFS from every vertex that
    closes a cycle at each non-tree edge; inf for forests."""
    n = len(adj)
    best = math.inf
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for w in bits(adj[u]):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def hopcroft_karp_lists(n_left, n_right, adj):
    """Hopcroft-Karp over adjacency lists: ``adj[u]`` lists the right
    neighbours of left vertex u in ascending order. Returns (size, match_left,
    match_right) with -1 for unmatched."""
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    for u in range(n_left):
        for v in adj[u]:
            if match_r[v] == -1:
                match_l[u] = v
                match_r[v] = u
                break
    dist = [0.0] * n_left

    def bfs():
        q = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = math.inf
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == math.inf:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(root: int):
        # Explicit stack; frames resume neighbor scans after failed descents.
        frames = [[root, 0]]
        chosen = []
        while frames:
            u, i = frames[-1]
            descended = False
            while i < len(adj[u]):
                v = adj[u][i]
                i += 1
                w = match_r[v]
                if w == -1:
                    chosen.append(v)
                    for (uu, _), vv in zip(frames, chosen):
                        match_l[uu] = vv
                        match_r[vv] = uu
                    return True
                if dist[w] == dist[u] + 1:
                    frames[-1][1] = i
                    chosen.append(v)
                    frames.append([w, 0])
                    descended = True
                    break
            if not descended:
                dist[u] = math.inf
                frames.pop()
                if chosen:
                    chosen.pop()
        return False

    size = sum(1 for u in range(n_left) if match_l[u] != -1)
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


def koenig_cover_lists(n_left, n_right, adj, match_l, match_r):
    """König cover over adjacency lists, as (left, right) lists of flags:
    the left vertices not reached by alternating paths from the unmatched
    left vertices, and the right vertices reached."""
    reach_l = [False] * n_left
    reach_r = [False] * n_right
    q = deque(u for u in range(n_left) if match_l[u] == -1)
    for u in q:
        reach_l[u] = True
    while q:
        u = q.popleft()
        for v in adj[u]:
            if not reach_r[v]:
                reach_r[v] = True
                w = match_r[v]
                if w != -1 and not reach_l[w]:
                    reach_l[w] = True
                    q.append(w)
    left_cover = [not reach_l[u] for u in range(n_left)]
    right_cover = [reach_r[v] for v in range(n_right)]
    return left_cover, right_cover


def edges_by_pairwise_scan(masks):
    """The edges (i, j), i < j, of the inclusion graph on ``masks`` listed in
    canonical (popcount, mask) order, by testing every pair for containment."""
    return [(i, j) for i, a in enumerate(masks) for j in range(i + 1, len(masks))
            if a & masks[j] == a]


def export_json_document(g):
    """The JSON export of ``g`` by ``json.dumps`` of the whole document."""
    masks = tuple(g.vertices())
    doc = {
        "mode": g.mode,
        "n": g.n,
        "vertices": [
            {"id": i, "mask": m, "size": m.bit_count()}
            for i, m in enumerate(masks)
        ],
        "edges": [[u, v] for u, v in edges_by_pairwise_scan(masks)],
    }
    return json.dumps(doc, indent=2) + "\n"


def dot_vertex_name(mask, boolean_n):
    """I_ followed by the members of ``mask``: 1-based and unseparated in a
    Boolean model on at most nine points, else joined by "_" (0-based for
    generic graphs)."""
    members = [b for b in range(mask.bit_length()) if mask >> b & 1]
    if boolean_n is None:
        return "I_" + "_".join(str(b) for b in members)
    return "I_" + ("" if boolean_n <= 9 else "_").join(str(b + 1) for b in members)


def export_dot_document(g):
    """The DOT export of ``g``, one line per vertex and then one per edge."""
    masks = tuple(g.vertices())
    lines = ["graph In {"]
    for m in masks:
        lines.append(f"  {dot_vertex_name(m, g.n)};")
    for u, v in edges_by_pairwise_scan(masks):
        lines.append(f"  {dot_vertex_name(masks[u], g.n)} -- {dot_vertex_name(masks[v], g.n)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def raw_graph_numbers(nv, edges):
    """(clique, chromatic, independence, domination number) of the raw graph
    on vertices 0..nv-1 with ``edges``, from tables over all 2^nv vertex
    subsets. Chromatic: the least k for which the k-tuples of independent
    sets covering every vertex number more than zero, counted by
    inclusion-exclusion over the independent subsets of each vertex subset
    (Björklund, Husfeldt & Koivisto 2009)."""
    adj = [0] * nv
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    size = 1 << nv
    clique = [True] * size
    indep = [True] * size
    cover = [0] * size
    n_indep = [1] * size  # independent subsets of S, the empty one included
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        clique[s] = clique[rest] and adj[v] & rest == rest
        indep[s] = indep[rest] and not adj[v] & rest
        cover[s] = cover[rest] | adj[v] | low
        n_indep[s] = n_indep[rest] + n_indep[rest & ~adj[v]]
    full = size - 1
    omega = max(s.bit_count() for s in range(size) if clique[s])
    alpha = max(s.bit_count() for s in range(size) if indep[s])
    gamma = min(s.bit_count() for s in range(size) if cover[s] == full)
    chi = next(k for k in range(nv + 1)
               if sum((-1) ** (nv - s.bit_count()) * n_indep[s] ** k
                      for s in range(size)) > 0)
    return omega, chi, alpha, gamma


def _find_hole_of_length(n: int, adj: list[int], length: int) -> list[int] | None:
    """Induced cycle of exactly `length`, anchored at its smallest vertex."""
    for a in range(n):
        above = ((1 << n) - 1) & ~((1 << (a + 1)) - 1)
        f = adj[a] & above
        while f:
            b = f & -f
            first = b.bit_length() - 1
            f ^= b
            allowed = above & ~adj[a] & ~(1 << first)
            res = _extend_induced_path(adj, a, [a, first], allowed, length)
            if res is not None:
                return res
    return None


def _extend_induced_path(adj, a, path, allowed, length):
    head = path[-1]
    if len(path) == length - 1:
        cand = adj[head] & adj[a]
        for v in path[1:-1]:
            cand &= ~adj[v]
        for v in path:
            cand &= ~(1 << v)
        cand &= ~((1 << (a + 1)) - 1)
        cand &= ~((1 << (path[1] + 1)) - 1)  # orient the cycle: closer > second
        if cand:
            w = (cand & -cand).bit_length() - 1
            return path + [w]
        return None
    ext = adj[head] & allowed
    while ext:
        b = ext & -ext
        w = b.bit_length() - 1
        ext ^= b
        res = _extend_induced_path(adj, a, path + [w],
                                   allowed & ~adj[head] & ~b, length)
        if res is not None:
            return res
    return None


def max_clique_bb(adj: list[int]) -> tuple[int, list[int]]:
    """Branch and bound maximum clique with greedy-coloring bounds."""
    n = len(adj)
    best_size = 0
    best: list[int] = []

    def color_sort(cand: int) -> list[tuple[int, int]]:
        order = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                avail ^= b
                avail &= ~adj[v]
                rest ^= b
                order.append((v, color))
        return order

    def expand(current: list[int], cand: int) -> None:
        nonlocal best_size, best
        order = color_sort(cand)
        for v, color in reversed(order):
            if len(current) + color <= best_size:
                return
            current.append(v)
            new_cand = cand & adj[v]
            if new_cand:
                expand(current, new_cand)
            elif len(current) > best_size:
                best_size = len(current)
                best = current[:]
            current.pop()
            cand &= ~(1 << v)

    expand([], (1 << n) - 1)
    return best_size, best


def exact_chromatic(adj: list[int]) -> tuple[int, list[int]]:
    """Exact chromatic number: clique lower bound, then k-coloring search."""
    if not adj:
        return 0, []
    lb, _ = max_clique_bb(adj)
    k = max(lb, 1)
    while True:
        colors = k_coloring(adj, k)
        if colors is not None:
            return k, colors
        k += 1


def k_coloring(adj: list[int], k: int) -> list[int] | None:
    """Backtracking k-coloring in saturation order; None if infeasible.

    The search keeps an explicit stack of [vertex, colour, neighbours newly
    forbidden that colour] frames, so its depth is not bounded by the
    recursion limit.
    """
    n = len(adj)
    colors = [0] * n  # 1..k when assigned
    forbidden = [0] * n  # bitmask of colors 1..k seen on neighbors

    def pick() -> int:
        bestv = -1
        key = (-1, -1)
        for v in range(n):
            if colors[v] == 0:
                sat = forbidden[v].bit_count()
                deg = adj[v].bit_count()
                if (sat, deg) > key:
                    key = (sat, deg)
                    bestv = v
        return bestv

    stack = [[pick(), 0, []]]
    while stack:
        frame = stack[-1]
        v, c, touched = frame
        if c:  # undo the colour that failed below this frame
            colors[v] = 0
            for w in touched:
                forbidden[w] &= ~(1 << (c - 1))
        c += 1
        while c <= k and (forbidden[v] >> (c - 1)) & 1:
            c += 1
        if c > k:
            stack.pop()
            continue
        colors[v] = c
        touched = []
        m = adj[v]
        while m:
            b = m & -m
            w = b.bit_length() - 1
            m ^= b
            if colors[w] == 0 and not (forbidden[w] >> (c - 1)) & 1:
                forbidden[w] |= 1 << (c - 1)
                touched.append(w)
        frame[1], frame[2] = c, touched
        if len(stack) == n:
            return colors
        stack.append([pick(), 0, []])
    return None


def maximum_matching_full_scan(n, adj):
    """Maximum matching by blossom contraction, scanning all n vertices for
    the members of each contracted blossom. Returns ``mate``."""
    mate = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n

    def lca(a, b):
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if mate[x] == -1:
                break
            x = parent[mate[x]]
        y = b
        while True:
            y = base[y]
            if seen[y]:
                return y
            y = parent[mate[y]]

    def mark_path(v, b, child, in_blossom):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting_path(root):
        nonlocal parent, base, in_queue
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        in_queue[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            m = adj[v]
            while m:
                b = m & -m
                m ^= b
                to = b.bit_length() - 1
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    cur = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not in_queue[i]:
                                in_queue[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        return to
                    if not in_queue[mate[to]]:
                        in_queue[mate[to]] = True
                        q.append(mate[to])
        return -1

    def augment(finish):
        u = finish
        while u != -1:
            pv = parent[u]
            next_u = mate[pv]
            mate[u] = pv
            mate[pv] = u
            u = next_u

    free = (1 << n) - 1
    for v in range(n):
        if free >> v & 1:
            m = adj[v] & free
            if m:
                to = (m & -m).bit_length() - 1
                mate[v] = to
                mate[to] = v
                free ^= 1 << v | 1 << to
    for v in range(n):
        if mate[v] == -1:
            finish = find_augmenting_path(v)
            if finish != -1:
                augment(finish)
    return mate


def refine_colors_from_degrees(adj):
    """The coarsest equitable colouring finer than the degrees, with colours
    named in order of first appearance."""
    n = len(adj)
    color = [a.bit_count() for a in adj]
    while True:
        sig = [(color[i], tuple(sorted(color[j] for j in bits(adj[i]))))
               for i in range(n)]
        remap = {}
        new = []
        for s in sig:
            if s not in remap:
                remap[s] = len(remap)
            new.append(remap[s])
        if new == color:
            return color
        color = new


def find_extension_recursive(adj, color, prefix):
    """Complete a partial vertex map to the lexicographically first
    automorphism by recursion over the vertices in order, or None."""
    n = len(adj)
    perm = [-1] * n
    used = 0
    for s, t in prefix.items():
        if color[s] != color[t] or (used >> t) & 1:
            return None
        perm[s] = t
        used |= 1 << t
    items = list(prefix.items())
    for i in range(len(items)):
        a, b = items[i]
        for j in range(i + 1, len(items)):
            c, d = items[j]
            if ((adj[a] >> c) & 1) != ((adj[b] >> d) & 1):
                return None

    def consistent(v, w):
        if color[v] != color[w]:
            return False
        for x in range(n):
            y = perm[x]
            if y >= 0 and ((adj[v] >> x) & 1) != ((adj[w] >> y) & 1):
                return False
        return True

    def rec(v):
        nonlocal used
        if v == n:
            return True
        if perm[v] != -1:
            return rec(v + 1)
        for w in range(n):
            if not (used >> w) & 1 and consistent(v, w):
                perm[v] = w
                used |= 1 << w
                if rec(v + 1):
                    return True
                used &= ~(1 << w)
                perm[v] = -1
        return False

    if rec(0):
        return tuple(perm)
    return None


def automorphism_group_by_extension(adj):
    """(group order, generating vertex maps) by a stabiliser chain over the
    vertex order: at every level, one recursive extension search per vertex
    of the level's colour class, with no individualisation and no early
    stop."""
    n = len(adj)
    color = refine_colors_from_degrees(adj)
    order = 1
    perms = []
    fixed = {}
    for v in range(n):
        orbit = 0
        for w in range(n):
            if color[w] != color[v]:
                continue
            prefix = dict(fixed)
            prefix[v] = w
            perm = find_extension_recursive(adj, color, prefix)
            if perm is not None:
                orbit += 1
                if w != v:
                    perms.append(perm)
        order *= orbit
        fixed[v] = v
    return order, perms


def transitivity_by_edge_orbits(adj, maps):
    """(vertex transitive, edge transitive) from union-finds over all
    vertices and all edges under the vertex maps ``maps``."""
    vertex_transitive = len(set(_orbits(len(adj), maps))) <= 1
    edges = [(u, v) for u in range(len(adj)) for v in bits(adj[u]) if u < v]
    if not edges:
        return vertex_transitive, True
    eidx = {e: i for i, e in enumerate(edges)}
    edge_maps = []
    for m in maps:
        edge_maps.append(tuple(eidx[(min(m[u], m[v]), max(m[u], m[v]))]
                               for u, v in edges))
    return vertex_transitive, len(set(_orbits(len(edges), edge_maps))) <= 1
