"""Exact graph invariants.

Inclusion graphs are comparability graphs of the containment order, so
cliques are chains and independent sets are antichains. The solvers use
that: longest chains for clique and chromatic number, Dilworth via
bipartite matching for independence, the extremes of the order for diameter
and girth. Every answer's witnesses are checked on every call in O(V)
bitset operations (McConnell, Mehlhorn, Näher & Schweitzer 2011): a chain
that is a clique and chain levels that colour properly give ω = χ, an
antichain and as many chains covering the vertices give α, a triangle gives
girth 3, a pair that far apart bounds a diameter of 2 or 3 from below, a
dominating set's closed neighbourhoods cover every vertex, and an odd hole
or antihole is an odd cycle with no chord. The chain certificate is kept
with its graph, so ω and χ check it once. A planar
embedding is checked by tracing its faces (``planar.check_rotation``), a
Kuratowski witness edge by edge. A failed check raises RuntimeError.

Every solver takes an inclusion graph, an ``InclusionGraph`` or the
``DenseGraph`` it materializes, and labels its witnesses by vertex mask.
The kernels under them (matching, domination, girth BFS, K3,3 and odd-hole
searches, path addition) read only adjacency bitsets.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import TooLargeError
from .graph import DenseGraph, bits
from .report import INFINITY, SELECTIONS, InvariantReport, _assemble, selected_document

DOMINATION_CAP = 1 << 16


def _dense(g) -> DenseGraph:
    if isinstance(g, DenseGraph):
        return g
    return g.dense()


def _labels(dense: DenseGraph, idxs):
    return tuple(dense.masks[i] for i in idxs)


def _low(m: int) -> int:
    """Position of the lowest set bit of ``m``."""
    return (m & -m).bit_length() - 1


# ---------------------------------------------------------------------------
# connectivity / distances


def _components(adj: list[int]) -> list[int]:
    """The vertex bitset of each connected component, by bitset BFS."""
    n = len(adj)
    seen = 0
    comps = []
    for s in range(n):
        if (seen >> s) & 1:
            continue
        comp = 1 << s
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def connectivity(g) -> tuple[int, int | float]:
    """(number of components, diameter); diameter is inf unless connected.

    The diameter comes from the extremes of the containment order
    (``_diameter_extremes``), and the pair of vertices found that far apart
    is checked as a lower witness: they are not adjacent, and from distance
    3 on they have no common neighbour either. Only a disconnected graph
    has its components counted.
    """
    dense = _dense(g)
    n = dense.size
    if n == 0:
        return 0, INFINITY
    adj = dense.adj
    full = (1 << n) - 1
    if all(a | (1 << v) == full for v, a in enumerate(adj)):
        return 1, (1 if n > 1 else 0)  # complete
    found = _diameter_extremes(dense)
    if found is None:
        return len(_components(adj)), INFINITY
    diam, u, v = found
    if u == v or adj[u] >> v & 1 or diam >= 3 and adj[u] & adj[v]:
        raise RuntimeError(
            f"diameter certificate failed: {dense.masks[u]} and "
            f"{dense.masks[v]} are closer than {diam}")
    return 1, diam


def _extremes(adj: list[int]) -> int:
    """Bitset of the minimal and maximal vertices of an inclusion graph's
    containment order. Vertices are indexed along a linear extension of
    containment (see ``DenseGraph.containment``), so these are the vertices
    with no lower or no higher neighbour; every other vertex is the middle
    of a 3-chain."""
    ext = 0
    for v, a in enumerate(adj):
        if not a & ((1 << v) - 1) or not a >> (v + 1):
            ext |= 1 << v
    return ext


def _diameter_extremes(dense: DenseGraph) -> tuple[int, int, int] | None:
    """(diameter, u, v) of a graph that is not complete, from the extremes
    (minimal and maximal vertices) of its containment order, with v outside
    u's ball of radius diameter - 1; None when the graph is complete or
    disconnected.

    The inner vertices of a shortest path alternate up and down the order,
    so each can be replaced by an extreme above or below it: the ball of
    radius r + 1 is the ball of radius r together with the closed
    neighbourhoods N[e] of its extremes e, N[e] being the closed up-set of a
    minimal e and the closed down-set of a maximal one. This is exact in any
    finite poset. Radius 2 takes the extremes in N[u]; radius 3 the union of
    far[e] over them, far[e] being the union of N[f] over the extremes f
    adjacent to e. A vertex costs one OR per extreme comparable to it, n in
    the Boolean model. A ball still short after radius 3 keeps growing from
    the extremes it has newly reached, and one that stops growing short of
    every vertex means the graph is disconnected.
    """
    adj = dense.adj
    n = len(adj)
    full = (1 << n) - 1
    extremes = _extremes(adj)
    far: list[int] = []
    diam = 1
    pair = None
    for u, a in enumerate(adj):
        closed = a | 1 << u
        if closed == full:
            continue
        ext = closed & extremes
        if diam < 3:
            if diam == 1:
                diam, pair = 2, (u, _low(full & ~closed))
            acc = 0
            for v in bits(ext):
                acc |= adj[v] | 1 << v
            if acc == full:
                continue
            diam, pair = 3, (u, _low(full & ~acc))
            far = [0] * n
            for v in bits(extremes):
                for f in bits(adj[v] & extremes):
                    far[v] |= adj[f] | 1 << f
        acc = 0
        m = ext
        while m:
            b = m & -m
            acc |= far[b.bit_length() - 1]
            if acc == full:
                break
            m ^= b
        if acc == full:
            continue
        inner, ball, r = 0, acc | closed, 3
        while ball != full:
            grown = ball
            for e in bits(ball & ~inner & extremes):
                grown |= adj[e] | 1 << e
            if grown == ball:
                return None
            inner, ball = ball, grown
            r += 1
        if r > diam:
            diam, pair = r, (u, _low(full & ~inner))
    return None if pair is None else (diam, *pair)


def girth(g) -> int | float:
    """Length of a shortest cycle; inf for forests.

    Three nested sets are a triangle, so an inclusion graph whose
    containment order has a 3-chain has girth 3, and the triangle is
    checked edge by edge. A BFS decides every other graph.
    """
    dense = _dense(g)
    if dense.size < 3:
        return INFINITY
    triangle = _triangle(dense.adj)
    if triangle is None:
        return _girth_bfs(dense.adj)
    a, v, b = triangle
    adj = dense.adj
    if not (adj[a] >> v & 1 and adj[v] >> b & 1 and adj[a] >> b & 1):
        raise RuntimeError(
            f"girth certificate failed: {_labels(dense, triangle)} is not a triangle")
    return 3


def _triangle(adj: list[int]) -> tuple[int, int, int] | None:
    """A 3-chain of an inclusion graph's containment order: the first vertex
    that is not extreme, between its lowest neighbours below and above it
    (index order is a linear extension of containment); None when the
    order has no 3-chain."""
    for v, a in enumerate(adj):
        below = a & ((1 << v) - 1)
        above = a >> (v + 1)
        if below and above:
            return _low(below), v, v + 1 + _low(above)
    return None


def _girth_bfs(adj: list[int]) -> int | float:
    """Length of a shortest cycle by BFS from every vertex; inf for forests.

    Each BFS grows layer by layer on bitsets. An edge inside layer k closes
    a cycle of at most 2k + 1 vertices, and a vertex of layer k + 1 with two
    neighbours in layer k one of at most 2k + 2. A root on a shortest cycle
    finds its length exactly, so the least find over all roots is the girth.
    """
    best = INFINITY
    for root in range(len(adj)):
        if best == 3:
            break
        seen = layer = 1 << root
        k = 0
        while layer and 2 * k + 1 < best:
            once = twice = 0
            odd = False
            m = layer
            while m:
                b = m & -m
                m ^= b
                nb = adj[b.bit_length() - 1]
                if nb & layer:
                    odd = True
                    break
                nb &= ~seen
                twice |= once & nb
                once |= nb
            if odd:
                best = 2 * k + 1
                break
            if twice:
                best = min(best, 2 * k + 2)
                break
            seen |= once
            layer = once
            k += 1
    return best


# ---------------------------------------------------------------------------
# chain / antichain machinery (containment order from ``DenseGraph.containment``)


def _chain(dense: DenseGraph, length: int) -> list[int]:
    """The chain of ``length`` vertices that is smallest by mask at each step.

    Each step takes the smallest-mask candidate that still starts a chain of
    the remaining length; the first candidates are all vertices, later ones
    the strict supersets of the previous step.
    """
    order = dense.containment
    cands = range(dense.size)
    chain: list[int] = []
    while len(chain) < length:
        need = length - len(chain)
        cur = min((j for j in cands if order.up[j] >= need),
                  key=dense.masks.__getitem__)
        chain.append(cur)
        cands = bits(order.above[cur])
    return chain


def _certified_chain(dense: DenseGraph) -> list[int]:
    """A longest chain, checked with the Mirsky colouring as the witnesses
    of ω = χ = k, where k is the longest chain length ``max(down)``.

    The chain is k vertices, each strictly inside the next, so ω ≥ k.
    Colouring vertex i with ``down[i]`` in 1..k makes each colour class
    independent, so χ ≤ k. With ω ≤ χ both equal k.

    Built and checked once per graph and kept in its ``__dict__``, as
    ``DenseGraph.containment`` is, so clique and chromatic number share it.
    """
    kept = vars(dense).get("certified_chain")
    if kept is not None:
        return kept
    adj = dense.adj
    _, above, down, _ = dense.containment
    k = max(down)
    cls = [0] * (k + 1)
    for i, d in enumerate(down):
        cls[d] |= 1 << i
    for i, d in enumerate(down):
        if d < 1 or adj[i] & cls[d]:
            raise RuntimeError(
                f"colouring certificate failed: {dense.masks[i]} has colour {d} "
                "and a neighbour of that colour")
    chain = _chain(dense, k)
    if len(chain) != k or any(not above[a] >> b & 1 for a, b in zip(chain, chain[1:])):
        raise RuntimeError(
            f"clique certificate failed: {_labels(dense, chain)} is not a chain "
            f"of {k} vertices")
    vars(dense)["certified_chain"] = chain
    return chain


def clique_number(g) -> tuple[int, tuple]:
    """(clique number, witness clique) of an inclusion graph.

    Cliques are chains, so the clique number is the longest chain length;
    the witness is a longest chain, certified by ``_certified_chain``.
    """
    dense = _dense(g)
    if dense.size == 0:
        return 0, ()
    chain = _certified_chain(dense)
    return len(chain), _labels(dense, chain)


def chromatic_number(g) -> tuple[int, dict]:
    """(chromatic number, proper coloring keyed by vertex mask) of an
    inclusion graph.

    Layering by longest-chain length colors it with exactly clique-number
    colors, which is optimal since a chain of that length is a clique; both
    are certified by ``_certified_chain``.
    """
    dense = _dense(g)
    if dense.size == 0:
        return 0, {}
    chi = len(_certified_chain(dense))
    down = dense.containment.down
    return chi, {dense.masks[i]: down[i] for i in range(dense.size)}


def independence_number(g) -> tuple[int, tuple]:
    """(independence number, witness antichain) of an inclusion graph.

    Independent sets are antichains; the width is computed by Dilworth's
    theorem as |V| minus a maximum matching in the split bipartite graph of
    the containment relation. The König cover gives an antichain of that
    size, a lower witness, and the matching's links split the vertices into
    as many chains, an upper witness; both are checked.
    """
    dense = _dense(g)
    n = dense.size
    if n == 0:
        return 0, ()
    from .bipartite import hopcroft_karp, koenig_cover
    # Left copy u -> right copy v for every comparable pair u < v.
    above = dense.containment.above
    size, match_l, match_r = hopcroft_karp(n, n, above)
    alpha = n - size
    left_cover, right_cover = koenig_cover(n, n, above, match_l, match_r)
    antichain = ((1 << n) - 1) & ~(left_cover | right_cover)
    witness = bits(antichain)
    if len(witness) != alpha:
        raise RuntimeError("König antichain extraction is inconsistent")
    if any(dense.adj[i] & antichain for i in witness):
        raise RuntimeError("König antichain has comparable members")
    _check_chain_partition(dense, match_l, alpha)
    return alpha, _labels(dense, witness)


def _check_chain_partition(dense: DenseGraph, match_l: list[int], alpha: int) -> None:
    """Check that the links u -> ``match_l[u]`` split the vertices into
    ``alpha`` chains, so that no antichain is larger.

    Each link must be a containment and enter a vertex no other link
    enters. Links then climb the linear extension of the order, so they form
    disjoint chains covering every vertex, one from each vertex no link
    enters.
    """
    above = dense.containment.above
    entered = [False] * len(above)
    for u, v in enumerate(match_l):
        if v < 0:
            continue
        if not above[u] >> v & 1 or entered[v]:
            raise RuntimeError(
                f"independence certificate failed: the link {dense.masks[u]} -> "
                f"{dense.masks[v]} is not a containment or enters a vertex twice")
        entered[v] = True
    if entered.count(False) != alpha:
        raise RuntimeError(
            f"independence certificate failed: {entered.count(False)} chains, "
            f"not {alpha}")


def maximum_matching(g) -> tuple[int, tuple, bool]:
    """(matching number, matched pairs, is perfect) via blossom search.

    The pairs are checked before they are returned: ``mate`` must be
    symmetric, so the pairs are disjoint, and each pair must be an edge.
    That no larger matching exists rests on the blossom search alone.
    """
    from .matching import matching_edges, maximum_matching_adj
    dense = _dense(g)
    n = dense.size
    mate = maximum_matching_adj(n, dense.adj)
    if len(mate) != n:
        raise RuntimeError(f"matching certificate failed: {len(mate)} mates for {n} vertices")
    for v, w in enumerate(mate):
        if w == -1:
            continue
        if not (0 <= w < n and mate[w] == v):
            raise RuntimeError(f"matching certificate failed: mate is not symmetric at "
                               f"{dense.masks[v]}")
        if not dense.adj[v] >> w & 1:
            raise RuntimeError(f"matching certificate failed: the pair ({dense.masks[v]}, "
                               f"{dense.masks[w]}) is not an edge")
    pairs = matching_edges(mate)
    size = len(pairs)
    return (size,
            tuple((dense.masks[u], dense.masks[v]) for u, v in pairs),
            dense.size > 0 and 2 * size == dense.size)


def domination_number(g, cap: int = DOMINATION_CAP) -> tuple[int, tuple]:
    """(domination number, witness) by iterative-deepening set cover
    over closed neighborhoods (``_dominating_set``).

    The witness is checked before it is returned: the union of its closed
    neighbourhoods must be every vertex.
    """
    _check_domination_cap(g, cap)
    dense = _dense(g)
    n = dense.size
    if n == 0:
        return 0, ()
    witness = _dominating_set(dense.adj)
    uncovered = (1 << n) - 1
    for i in witness:
        uncovered &= ~(dense.adj[i] | 1 << i)
    if uncovered:
        raise RuntimeError(
            f"domination certificate failed: {_labels(dense, witness)} leaves "
            f"{dense.masks[_low(uncovered)]} undominated")
    return len(witness), _labels(dense, witness)


def _check_domination_cap(g, cap: int) -> None:
    """Raise TooLargeError when ``g`` has more vertices than ``cap``; read
    off the vertex count, before the build, which takes about n²/8 bytes."""
    n = g.size if isinstance(g, DenseGraph) else g.vertex_count
    if n > cap:
        raise TooLargeError(f"{n} vertices exceed the domination cap {cap}")


def _dominating_set(adj: list[int]) -> list[int]:
    """A smallest dominating set of a nonempty graph, sorted.

    Each depth branches on an uncovered vertex with the fewest potential
    dominators and tries them lowest first. The search keeps an explicit
    stack of the candidates still to try at each depth, so its depth is not
    bounded by the recursion limit.
    """
    n = len(adj)
    closed = [adj[i] | (1 << i) for i in range(n)]
    allv = (1 << n) - 1
    max_closed = max(c.bit_count() for c in closed)

    def candidates(covered: int, budget: int) -> int:
        # The dominators of the branching vertex; none when the budget
        # cannot cover what is left.
        uncovered = allv & ~covered
        if uncovered.bit_count() > budget * max_closed:
            return 0
        best_cands = None
        m = uncovered
        while m:
            b = m & -m
            m ^= b
            cands = closed[b.bit_length() - 1]
            cnt = cands.bit_count()
            if best_cands is None or cnt < best_cands.bit_count():
                best_cands = cands
                if cnt == 1:
                    break
        return best_cands

    lower = max(1, math.ceil(n / max_closed))
    for k in range(lower, n + 1):
        chosen: list[int] = []
        covers = [0]
        todo = [candidates(0, k)]
        while todo:
            m = todo[-1]
            if not m:
                todo.pop()
                covers.pop()
                if chosen:
                    chosen.pop()
                continue
            b = m & -m
            todo[-1] = m ^ b
            w = b.bit_length() - 1
            covered = covers[-1] | closed[w]
            if covered == allv:
                return sorted(chosen + [w])
            chosen.append(w)
            covers.append(covered)
            todo.append(candidates(covered, k - len(chosen)))
    raise RuntimeError("unreachable: the whole vertex set dominates")


def structural_flags(g) -> tuple[bool, bool, bool]:
    """(eulerian, bipartite, triangulated), the last two from the
    containment order.

    Eulerian: connected with even degrees. An inclusion graph is a
    comparability graph, so χ = ω, the longest chain length: it is bipartite
    iff no chain has three vertices. Three pairwise comparable vertices are
    a 3-chain, so a vertex lies on a triangle iff a 3-chain passes through
    it, ``down + up >= 4``; triangulated means every vertex does, in a
    nonempty graph.
    """
    dense = _dense(g)
    adj = dense.adj
    _, _, down, up = dense.containment
    eulerian = len(_components(adj)) == 1 and all(a.bit_count() % 2 == 0 for a in adj)
    triangulated = dense.size > 0 and all(d + u >= 4 for d, u in zip(down, up))
    return eulerian, max(down, default=0) <= 2, triangulated


# ---------------------------------------------------------------------------
# planarity


class PlanarityResult(NamedTuple):
    planar: bool
    method: str  # "k5-chain", "k33-subgraph" or "path-addition"
    embedding: dict | None = None
    kuratowski_edges: tuple = ()
    kuratowski_kind: str | None = None  # "K5" or "K3,3" subdivision


def planarity(g) -> PlanarityResult:
    """Exact planarity with a checked embedding or Kuratowski witness.

    A chain of five pairwise-comparable vertices is a K5 outright, so an
    inclusion graph whose containment order is that deep is decided from
    the order. Otherwise three vertices with three common neighbours are a
    K3,3 subgraph. Path addition (``planar.embedding``) decides every other
    graph; its rotation system is checked by tracing its faces, and a
    nonplanar graph gets its witness by edge deletion. That search is
    bounded: the left ideals of S with the empty set and S are closed under
    union and intersection, a distributive lattice. Without a 5-chain of
    vertices it has length at most 5, hence at most 2^5 elements (Birkhoff),
    so an ``InclusionGraph``, which is always such a lattice, reaches path
    addition with at most 30 vertices; a bare ``DenseGraph`` may be any
    comparability graph, of any size. Every witness is checked edge by edge
    before it is reported.
    """
    dense = _dense(g)
    if max(dense.containment.down, default=0) >= 5:
        return _nonplanar(
            dense, tuple(combinations(sorted(_chain(dense, 5)), 2)), "k5-chain")
    k33 = _k33_subgraph(dense.adj)
    if k33 is not None:
        return _nonplanar(dense, k33, "k33-subgraph")
    from . import planar
    rotation = planar.embedding(dense.adj)
    if rotation is None:
        return _nonplanar(dense, planar.kuratowski_edges(dense.adj), "path-addition")
    planar.check_rotation(dense.adj, rotation)
    emb = {dense.masks[v]: [dense.masks[w] for w in rot]
           for v, rot in enumerate(rotation)}
    return PlanarityResult(planar=True, method="path-addition", embedding=emb)


def _k33_subgraph(adj: list[int]) -> tuple | None:
    """Edges of a K3,3 subgraph, or None: the lexicographically first
    a < b < c with three common neighbours, joined to the three lowest of
    them. With no loops, the common neighbours lie outside {a, b, c}. b and
    c share a neighbour with a, so only vertices within distance 2 of a are
    tried."""
    for a, na in enumerate(adj):
        near = 0
        m = na
        while m:
            bit = m & -m
            m ^= bit
            near |= adj[bit.bit_length() - 1]
        near >>= a + 1
        while near:
            bit = near & -near
            near ^= bit
            b = a + bit.bit_length()
            nab = na & adj[b]
            if nab.bit_count() < 3:
                continue
            rest = near
            while rest:
                bit = rest & -rest
                rest ^= bit
                c = a + bit.bit_length()
                common = nab & adj[c]
                if common.bit_count() >= 3:
                    return tuple(sorted((min(u, v), max(u, v))
                                        for u in (a, b, c) for v in bits(common)[:3]))
    return None


def _nonplanar(dense: DenseGraph, edges: tuple, method: str) -> PlanarityResult:
    """A nonplanar verdict from a Kuratowski witness, which is a proof of
    nonplanarity once checked: every witness edge is an edge of the graph,
    and the witness is a subdivision of K5 or K3,3 (Kuratowski 1930)."""
    for u, v in edges:
        if not dense.adj[u] >> v & 1:
            raise RuntimeError(
                f"planarity witness check failed: {method} witness edge "
                f"({dense.masks[u]}, {dense.masks[v]}) is not an edge")
    labeled = tuple((dense.masks[u], dense.masks[v]) for u, v in edges)
    return PlanarityResult(planar=False, method=method, kuratowski_edges=labeled,
                           kuratowski_kind=classify_kuratowski(edges))


def classify_kuratowski(edges) -> str:
    """Classify an edge set as a subdivision of K5 or K3,3.

    Suppresses degree-2 vertices and inspects the branch structure: every
    vertex must be a branch vertex or lie on a path between two of them,
    and the branch paths must form a K5, or a 3-regular graph on six
    vertices whose links all cross one bipartition (a K3,3, not a prism).
    A witness that is neither is an internal failure and raises
    RuntimeError.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    branch = {v for v, nb in adj.items() if len(nb) >= 3}
    degs = sorted(len(adj[v]) for v in branch)
    # Walk branch-to-branch paths through degree-2 vertices.
    links: set[tuple[int, int]] = set()
    inner: set[int] = set()
    for b in branch:
        for start in adj[b]:
            prev, cur = b, start
            while cur not in branch:
                nxts = [x for x in adj[cur] if x != prev]
                if len(nxts) != 1:
                    raise RuntimeError("Kuratowski witness is not a subdivision: "
                                       "stray vertex degree")
                inner.add(cur)
                prev, cur = cur, nxts[0]
            if b != cur:
                links.add((min(b, cur), max(b, cur)))
    if len(branch) + len(inner) == len(adj):
        if len(branch) == 5 and degs == [4] * 5 and len(links) == 10:
            return "K5"
        if len(branch) == 6 and degs == [3] * 6 and len(links) == 9:
            b0 = min(branch)
            side = {b0} | {v for v in branch if (min(b0, v), max(b0, v)) not in links}
            if len(side) == 3 and all((u in side) != (v in side) for u, v in links):
                return "K3,3"
    raise RuntimeError("Kuratowski witness is not a K5 or K3,3 subdivision")


# ---------------------------------------------------------------------------
# perfectness (odd hole / antihole search)


def perfectness(g, max_len: int) -> tuple[bool | None, tuple | None]:
    """Search induced odd cycles of length 5..max_len in g and its complement.

    Returns (True, None) when the search was exhaustive (max_len >= |V|) and
    found nothing; (False, witness) when an odd hole or antihole exists;
    (None, None) when the bounded search found nothing. Holes are searched
    before antiholes, each by ``_odd_hole``, one pass that closes every odd
    length as its induced paths grow. A witness is checked before it is
    returned: an odd cycle of length >= 5 in the graph searched, with no
    chord; a failed check raises RuntimeError.
    """
    dense = _dense(g)
    n = dense.size
    full = (1 << n) - 1
    co_adj = [full & ~a & ~(1 << i) for i, a in enumerate(dense.adj)]
    for kind, adj in (("hole", dense.adj), ("antihole", co_adj)):
        cycle = _odd_hole(adj, max_len)
        if cycle is not None:
            _check_hole(adj, cycle)
            return False, (kind, _labels(dense, cycle))
    if max_len >= n:
        return True, None
    return None, None


def _odd_hole(adj: list[int], max_len: int) -> list[int] | None:
    """An induced cycle of odd length 5..max_len, or None.

    A cycle is anchored at its smallest vertex a and oriented so that the
    vertex closing it is above the first vertex after a. One depth-first
    search per anchor grows induced paths a, first, ... on an explicit
    stack, one frame per path vertex after a with three bitsets: the
    vertices that may still extend the path (adjacent to its head), the
    vertices that may follow them (above a, adjacent to no path vertex),
    and the vertices adjacent to an inner path vertex, which may not close
    it. A path of an even number k of vertices closes a cycle of length
    k + 1 through any neighbour of a and of its head above ``first`` that
    no inner vertex blocks. A path is extended only while such a closer
    remains and it can still reach an even length that closes.
    """
    n = len(adj)
    longest = (max_len - 1) & ~1  # most path vertices before the closer
    full = (1 << n) - 1
    for a in range(n - 4):  # a hole has four vertices above its anchor
        above = full & ~((2 << a) - 1)
        free = above & ~adj[a]
        # The third and fourth vertices of a cycle through a are adjacent,
        # both above a and away from it.
        p2s = free
        while p2s and not adj[_low(p2s)] & free:
            p2s &= p2s - 1
        if not p2s:
            continue
        firsts = adj[a] & above
        while firsts:
            first = _low(firsts)
            firsts &= firsts - 1
            closers = firsts  # the closer is adjacent to a and above first
            if not closers & ~adj[first] or not free & ~adj[first]:
                # The closer may not touch first, an inner vertex of any
                # path of four or more; and a path of three must extend.
                continue
            path = [a, first]
            frames = [(adj[first] & free, free & ~adj[first], adj[first])]
            while frames:
                ext, allowed, blocked = frames[-1]
                if not ext:
                    frames.pop()
                    path.pop()
                    continue
                w = _low(ext)
                frames[-1] = (ext & (ext - 1), allowed, blocked)
                k = len(path) + 1  # vertices on the path ending at w, k >= 3
                if not k & 1:
                    close = closers & adj[w] & ~blocked
                    if close:
                        return path + [w, _low(close)]
                if k < longest and closers & ~(blocked | adj[w]):
                    nxt = adj[w] & allowed
                    if nxt and (k & 1 or allowed & ~adj[w]):
                        frames.append((nxt, allowed & ~adj[w], blocked | adj[w]))
                        path.append(w)
    return None


def _check_hole(adj: list[int], cycle: list[int]) -> None:
    """An odd hole certificate: distinct vertices, odd length >= 5, and each
    vertex adjacent, among the cycle's vertices, to exactly its two
    neighbours on the cycle."""
    k = len(cycle)
    on_cycle = sum(1 << v for v in cycle)
    if k < 5 or not k & 1 or on_cycle.bit_count() != k:
        raise RuntimeError(f"perfectness certificate failed: {cycle} is no odd "
                           "cycle of distinct vertices and length >= 5")
    for i, v in enumerate(cycle):
        if adj[v] & on_cycle != (1 << cycle[i - 1]) | (1 << cycle[(i + 1) % k]):
            raise RuntimeError(f"perfectness certificate failed: vertex {v} of "
                               f"{cycle} has a chord or a missing cycle edge")


# ---------------------------------------------------------------------------
# the aggregate report


def perfect_verdict(g) -> bool:
    """Whether the inclusion graph g is perfect: True, with no search.

    Every graph here is an inclusion graph, the comparability graph of set
    inclusion, and comparability graphs are perfect (Golumbic 1980, ch. 5).
    ``perfectness`` stays the bounded odd-hole and antihole search that the
    theorem suite checks this against. Nothing is built, but the vertex cap
    holds as it does for every other invariant.
    """
    if not isinstance(g, DenseGraph):
        g.check_cap()
    return True


def _answer(g, wanted, domination_cap: int) -> tuple[dict, dict, dict, DenseGraph | None]:
    """(values, witnesses, methods, adjacency) of the ``wanted`` flags (see
    ``report.SELECTIONS``) of the inclusion graph g, each solver run once.

    The adjacency is fetched once, by the first flag that needs it, and is
    None when none does (``--perfect`` builds nothing). The domination cap
    is compared with the vertex count before any build of its own.
    """
    dense = g if isinstance(g, DenseGraph) else None

    def adjacency() -> DenseGraph:
        nonlocal dense
        if dense is None:
            dense = g.dense()
        return dense

    values: dict = {}
    witnesses: dict = {}
    methods: dict = {}
    if "diameter" in wanted:
        values["components"], values["diameter"] = connectivity(adjacency())
        methods["connectivity"] = ("containment-extremes" if values["components"] == 1
                                   else "bitset-bfs")
    if "girth" in wanted:
        values["girth"] = girth(adjacency())
        methods["girth"] = "3-chain" if values["girth"] == 3 else "per-vertex-bfs"
    if "clique" in wanted:
        values["clique_number"], witnesses["clique"] = clique_number(adjacency())
        methods["clique"] = "chain-dp"
    if "chromatic" in wanted:
        values["chromatic_number"], witnesses["coloring"] = chromatic_number(adjacency())
        methods["chromatic"] = "chain-layering"
    if "independence" in wanted:
        values["independence_number"], witnesses["independent_set"] = \
            independence_number(adjacency())
        methods["independence"] = "dilworth-matching"
    if "matching" in wanted:
        values["matching_number"], witnesses["matching"], values["perfect_matching"] = \
            maximum_matching(adjacency())
        methods["matching"] = "blossom"
    if "domination" in wanted:
        _check_domination_cap(g, domination_cap)
        values["domination_number"], witnesses["dominating_set"] = \
            domination_number(adjacency(), cap=domination_cap)
        methods["domination"] = "iterative-deepening-cover"
    if "planarity" in wanted:
        res = planarity(adjacency())
        values["planar"] = res.planar
        if res.planar:
            witnesses["embedding"] = res.embedding
        else:
            values["kuratowski_kind"] = res.kuratowski_kind
            witnesses["kuratowski"] = {"kind": res.kuratowski_kind,
                                       "edges": res.kuratowski_edges}
        methods["planarity"] = res.method
    if "perfect" in wanted:
        values["perfect"] = perfect_verdict(g if dense is None else dense)
        methods["perfectness"] = "comparability"
    if "flags" in wanted:
        values["eulerian"], values["bipartite"], values["triangulated"] = \
            structural_flags(adjacency())
        methods["flags"] = "containment-order"
    return values, witnesses, methods, dense


def compute_report(g, *, domination_cap: int = DOMINATION_CAP) -> InvariantReport:
    """Run every invariant on the inclusion graph g and bundle the results."""
    values, witnesses, methods, dense = _answer(g, SELECTIONS, domination_cap)
    degrees = [a.bit_count() for a in dense.adj]
    return _assemble(values, witnesses, methods, vertex_count=dense.size,
                     edge_count=sum(degrees) // 2, isolated=0 in degrees)


def report_document(g, select=frozenset(), *, domination_cap: int = DOMINATION_CAP) -> dict:
    """The ``invariants`` document of the inclusion graph g: the whole
    report, or the values of the ``select``ed flags (see
    ``report.SELECTIONS``), each computed only when selected."""
    if not select:
        return compute_report(g, domination_cap=domination_cap).to_jsonable()
    return selected_document(_answer(g, select, domination_cap)[0], select)
