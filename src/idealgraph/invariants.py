"""Exact graph invariants.

Inclusion graphs are comparability graphs of the containment order, so
cliques are chains and independent sets are antichains; the primary solvers
exploit that (longest-chain DP for clique/chromatic, Dilworth via bipartite
matching for independence). Generic exact solvers run as cross-checks on
small graphs and as the only route for raw graphs without containment
structure.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .bipartite import hopcroft_karp, koenig_cover
from .errors import TooLargeError
from .graph import DenseGraph, bits
from .matching import matching_edges, maximum_matching_adj

INFINITY = math.inf

DIAMETER_CROSSCHECK_MAX = 64
GIRTH_CROSSCHECK_MAX = 64
CLIQUE_CROSSCHECK_MAX = 64
CHROMATIC_CROSSCHECK_MAX = 64
INDEPENDENCE_CROSSCHECK_MAX = 30
DOMINATION_CAP = 1 << 16


def _dense(g) -> DenseGraph:
    if isinstance(g, DenseGraph):
        return g
    return g.dense()


def _label(dense: DenseGraph, i: int):
    return dense.masks[i] if dense.masks is not None else i


def _labels(dense: DenseGraph, idxs):
    return tuple(_label(dense, i) for i in idxs)


# ---------------------------------------------------------------------------
# connectivity / distances


def _components(dense: DenseGraph) -> list[int]:
    n = dense.size
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
                nxt |= dense.adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def connectivity(g) -> tuple[int, int | float]:
    """(number of components, diameter); diameter is inf unless connected.

    An inclusion graph takes its diameter from the extremes of its
    containment order, cross-checked against the lockstep BFS on small
    graphs. Raw graphs, disconnected graphs and inclusion graphs of diameter
    above 3 take the component search and the lockstep BFS.
    """
    dense = _dense(g)
    n = dense.size
    if n == 0:
        return 0, INFINITY
    full = (1 << n) - 1
    if all(a | (1 << v) == full for v, a in enumerate(dense.adj)):
        return 1, (1 if n > 1 else 0)  # complete
    diam = _diameter_extremes(dense) if dense.masks is not None else None
    if diam is not None:
        if n <= DIAMETER_CROSSCHECK_MAX:
            check = _diameter_lockstep(dense)
            if check != diam:
                raise RuntimeError(
                    f"diameter cross-check failed: extremes {diam}, lockstep {check}")
        return 1, diam
    comps = _components(dense)
    if len(comps) != 1:
        return len(comps), INFINITY
    return 1, _diameter_lockstep(dense)


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


def _diameter_extremes(dense: DenseGraph) -> int | None:
    """Diameter of an inclusion graph from the extremes (minimal and maximal
    vertices) of its containment order; None when it exceeds 3 or is
    infinite.

    Two incomparable vertices are at distance 2 iff an extreme is adjacent
    to both: a minimal one below both or a maximal one above both. So the
    radius-2 ball of u is the union of the closed neighbourhoods N[e] of the
    extremes e in N[u]; N[e] is the closed up-set of a minimal e and the
    closed down-set of a maximal one. The radius-3 ball is the same union of
    far[e], the union of N[f] over the extremes f adjacent to e. Both are
    exact in any finite poset. A vertex costs one OR per extreme comparable
    to it, n in the Boolean model.
    """
    adj = dense.adj
    n = len(adj)
    if n <= 1:
        return 0
    full = (1 << n) - 1
    extremes = _extremes(adj)
    far: list[int] = []
    diam = 1
    for u, a in enumerate(adj):
        closed = a | 1 << u
        if closed == full:
            continue
        ext = closed & extremes
        if diam < 3:
            diam = 2
            acc = 0
            m = ext
            while m:
                b = m & -m
                v = b.bit_length() - 1
                acc |= adj[v] | b
                m ^= b
            if acc == full:
                continue
            diam = 3
            far = [0] * n
            m = extremes
            while m:
                b = m & -m
                v = b.bit_length() - 1
                m ^= b
                acc = 0
                e = adj[v] & extremes
                while e:
                    c = e & -e
                    acc |= adj[c.bit_length() - 1] | c
                    e ^= c
                far[v] = acc
        acc = 0
        m = ext
        while m:
            b = m & -m
            acc |= far[b.bit_length() - 1]
            if acc == full:
                break
            m ^= b
        if acc != full:
            return None
    return diam


def _diameter_lockstep(dense: DenseGraph) -> int | float:
    """Largest eccentricity, growing the balls of all vertices in lockstep.

    Each round turns every radius-r ball into the radius-(r+1) ball, the
    union of the balls of the vertex and its neighbours (multi-source BFS;
    Then et al. 2014). A vertex whose ball is full drops out, and its
    neighbour loop stops once the union is full, which is exact because
    balls only grow. That is about diameter passes over the edges instead
    of one BFS per vertex. Inf when some ball stops growing short of the
    full set (disconnected).
    """
    adj = dense.adj
    n = len(adj)
    if n <= 1:
        return 0
    full = (1 << n) - 1
    ball = [a | (1 << v) for v, a in enumerate(adj)]
    still_open = [v for v in range(n) if ball[v] != full]
    diam = 1
    while still_open:
        diam += 1
        grown = ball[:]
        next_open = []
        for v in still_open:
            acc = ball[v]
            m = adj[v]
            while m:
                b = m & -m
                acc |= ball[b.bit_length() - 1]
                if acc == full:
                    break
                m ^= b
            if acc == ball[v]:
                return INFINITY
            grown[v] = acc
            if acc != full:
                next_open.append(v)
        ball = grown
        still_open = next_open
    return diam


def girth(g) -> int | float:
    """Length of a shortest cycle; inf for forests.

    Three nested sets are a triangle, so an inclusion graph whose
    containment order has a 3-chain, a vertex with a strict subset and a
    strict superset, has girth 3. The BFS cross-checks that on small graphs
    and decides every other graph.
    """
    dense = _dense(g)
    if dense.size < 3:
        return INFINITY
    if dense.masks is not None and _extremes(dense.adj) != (1 << dense.size) - 1:
        if dense.size <= GIRTH_CROSSCHECK_MAX:
            check = _girth_bfs(dense)
            if check != 3:
                raise RuntimeError(f"girth cross-check failed: 3-chain 3, BFS {check}")
        return 3
    return _girth_bfs(dense)


def _girth_bfs(dense: DenseGraph) -> int | float:
    """Length of a shortest cycle by BFS from every vertex; inf for forests.

    Each BFS grows layer by layer on bitsets. An edge inside layer k closes
    a cycle of at most 2k + 1 vertices, and a vertex of layer k + 1 with two
    neighbours in layer k one of at most 2k + 2. A root on a shortest cycle
    finds its length exactly, so the least find over all roots is the girth.
    """
    adj = dense.adj
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


def clique_number(g) -> tuple[int, tuple]:
    """(clique number, witness clique).

    Cliques in an inclusion graph are chains, so the primary solver is a
    longest-chain DP; a branch-and-bound clique search cross-checks small
    graphs, and is the only solver for raw graphs.
    """
    dense = _dense(g)
    if dense.size == 0:
        return 0, ()
    if dense.masks is None:
        size, members = _max_clique_bb(dense)
        return size, _labels(dense, sorted(members))
    omega = max(dense.containment.down)
    chain = _chain(dense, omega)
    if dense.size <= CLIQUE_CROSSCHECK_MAX:
        check, _ = _max_clique_bb(dense)
        if check != omega:
            raise RuntimeError(
                f"clique cross-check failed: chain DP {omega}, search {check}")
    return omega, _labels(dense, chain)


def _max_clique_bb(dense: DenseGraph) -> tuple[int, list[int]]:
    """Branch and bound maximum clique with greedy-coloring bounds."""
    n = dense.size
    adj = dense.adj
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


def chromatic_number(g) -> tuple[int, dict]:
    """(chromatic number, proper coloring keyed by vertex).

    Layering by longest-chain length colors an inclusion graph with exactly
    clique-number colors, which is optimal since a chain of that length is a
    clique. An independent exact search cross-checks small graphs.
    """
    dense = _dense(g)
    if dense.size == 0:
        return 0, {}
    if dense.masks is None:
        k, colors = _exact_chromatic(dense)
        return k, {_label(dense, i): c for i, c in enumerate(colors)}
    down = dense.containment.down
    chi = max(down)
    coloring = {dense.masks[i]: down[i] for i in range(dense.size)}
    if dense.size <= CHROMATIC_CROSSCHECK_MAX:
        check, _ = _exact_chromatic(dense)
        if check != chi:
            raise RuntimeError(
                f"chromatic cross-check failed: layering {chi}, search {check}")
    return chi, coloring


def _exact_chromatic(dense: DenseGraph) -> tuple[int, list[int]]:
    """Exact chromatic number: clique lower bound, then k-coloring search."""
    n = dense.size
    if n == 0:
        return 0, []
    lb, _ = _max_clique_bb(dense)
    k = max(lb, 1)
    while True:
        colors = _k_coloring(dense, k)
        if colors is not None:
            return k, colors
        k += 1


def _k_coloring(dense: DenseGraph, k: int) -> list[int] | None:
    """Backtracking k-coloring in saturation order; None if infeasible.

    The search keeps an explicit stack of [vertex, colour, neighbours newly
    forbidden that colour] frames, so its depth is not bounded by the
    recursion limit.
    """
    n = dense.size
    adj = dense.adj
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


def independence_number(g) -> tuple[int, tuple]:
    """(independence number, witness antichain).

    Independent sets in an inclusion graph are antichains; the width is
    computed by Dilworth's theorem as |V| minus a maximum matching in the
    split bipartite graph of the containment relation, and the witness comes
    from the König cover. An exhaustive search cross-checks small graphs.
    """
    dense = _dense(g)
    n = dense.size
    if n == 0:
        return 0, ()
    if dense.masks is None:
        size, members = _max_clique_bb(dense.complement())
        return size, _labels(dense, sorted(members))
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
    if n <= INDEPENDENCE_CROSSCHECK_MAX:
        check, _ = _max_clique_bb(dense.complement())
        if check != alpha:
            raise RuntimeError(
                f"independence cross-check failed: Dilworth {alpha}, search {check}")
    return alpha, _labels(dense, witness)


def maximum_matching(g) -> tuple[int, tuple, bool]:
    """(matching number, matched pairs, is perfect) via blossom search."""
    dense = _dense(g)
    mate = maximum_matching_adj(dense.size, dense.adj)
    pairs = matching_edges(mate)
    size = len(pairs)
    return (size,
            tuple((_label(dense, u), _label(dense, v)) for u, v in pairs),
            dense.size > 0 and 2 * size == dense.size)


def domination_number(g, cap: int = DOMINATION_CAP) -> tuple[int, tuple]:
    """(domination number, witness) by iterative-deepening set cover
    over closed neighborhoods."""
    dense = _dense(g)
    n = dense.size
    if n > cap:
        raise TooLargeError(f"{n} vertices exceed the domination cap {cap}")
    if n == 0:
        return 0, ()
    closed = [dense.adj[i] | (1 << i) for i in range(n)]
    allv = (1 << n) - 1
    max_closed = max(c.bit_count() for c in closed)

    def search(k: int, covered: int, chosen: list[int]) -> list[int] | None:
        if covered == allv:
            return chosen[:]
        if k == 0:
            return None
        uncovered = allv & ~covered
        if uncovered.bit_count() > k * max_closed:
            return None
        # Branch on an uncovered vertex with the fewest potential dominators.
        bestv = -1
        best_cands = None
        m = uncovered
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            cands = closed[v]
            cnt = cands.bit_count()
            if best_cands is None or cnt < best_cands.bit_count():
                bestv = v
                best_cands = cands
                if cnt == 1:
                    break
        m = best_cands
        while m:
            b = m & -m
            w = b.bit_length() - 1
            m ^= b
            chosen.append(w)
            res = search(k - 1, covered | closed[w], chosen)
            if res is not None:
                return res
            chosen.pop()
        return None

    lower = max(1, math.ceil(n / max_closed))
    for k in range(lower, n + 1):
        res = search(k, 0, [])
        if res is not None:
            return k, _labels(dense, sorted(res))
    raise RuntimeError("unreachable: the whole vertex set dominates")


def structural_flags(g) -> tuple[bool, bool, bool]:
    """(eulerian, bipartite, triangulated)."""
    dense = _dense(g)
    n = dense.size
    comps = _components(dense)
    eulerian = len(comps) == 1 and all(dense.degree(i) % 2 == 0 for i in range(n))
    # 2-coloring BFS
    color = [-1] * n
    bipartite = True
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        q = deque([s])
        while q and bipartite:
            u = q.popleft()
            m = dense.adj[u]
            while m:
                b = m & -m
                w = b.bit_length() - 1
                m ^= b
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    q.append(w)
                elif color[w] == color[u]:
                    bipartite = False
                    break
        if not bipartite:
            break
    triangulated = n > 0
    for v in range(n):
        on_triangle = False
        m = dense.adj[v]
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            if dense.adj[v] & dense.adj[u] & ~(1 << v) & ~(1 << u):
                on_triangle = True
                break
        if not on_triangle:
            triangulated = False
            break
    return eulerian, bipartite, triangulated


# ---------------------------------------------------------------------------
# planarity


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    method: str  # "k5-chain", "k33-subgraph" or "left-right"
    embedding: dict | None = None
    kuratowski_edges: tuple = ()
    kuratowski_kind: str | None = None  # "K5" or "K3,3" subdivision


def planarity(g) -> PlanarityResult:
    """Exact planarity with a combinatorial embedding or Kuratowski witness.

    A chain of five pairwise-comparable vertices is a K5 outright, so an
    inclusion graph whose containment order is that deep is decided without
    networkx. Otherwise three vertices with three common neighbours are a
    K3,3 subgraph. Left-right decides every other graph; its counterexample
    extraction re-tests planarity per edge, so it runs only when no K3,3
    subgraph exists. networkx is imported only on the left-right path.
    Every witness is checked edge by edge before it is reported.
    """
    dense = _dense(g)
    if dense.masks is not None and max(dense.containment.down, default=0) >= 5:
        return _nonplanar(
            dense, tuple(combinations(sorted(_chain(dense, 5)), 2)), "k5-chain")
    k33 = _k33_subgraph(dense.adj)
    if k33 is not None:
        return _nonplanar(dense, k33, "k33-subgraph")
    import networkx as nx
    G = _nx_graph(dense)
    ok, cert = nx.check_planarity(G, counterexample=False)
    if ok:
        data = cert.get_data()
        emb = {_label(dense, v): [_label(dense, w) for w in nbrs]
               for v, nbrs in sorted(data.items())}
        return PlanarityResult(planar=True, method="left-right", embedding=emb)
    cert = nx.algorithms.planarity.get_counterexample(G)
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in cert.edges()))
    return _nonplanar(dense, edges, "left-right")


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


def _nx_graph(dense: DenseGraph):
    import networkx as nx
    G = nx.Graph()
    G.add_nodes_from(range(dense.size))
    G.add_edges_from(dense.edge_list())
    return G


def _nonplanar(dense: DenseGraph, edges: tuple, method: str) -> PlanarityResult:
    """A nonplanar verdict from a Kuratowski witness, which is a proof of
    nonplanarity once checked: every witness edge is an edge of the graph,
    and the witness is a subdivision of K5 or K3,3 (Kuratowski 1930)."""
    for u, v in edges:
        if not dense.adj[u] >> v & 1:
            raise RuntimeError(
                f"planarity witness check failed: {method} witness edge "
                f"({_label(dense, u)}, {_label(dense, v)}) is not an edge")
    labeled = tuple((_label(dense, u), _label(dense, v)) for u, v in edges)
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
    (None, None) when the bounded search found nothing.
    """
    dense = _dense(g)
    n = dense.size
    hole = _find_odd_hole(dense, max_len)
    if hole is not None:
        return False, ("hole", _labels(dense, hole))
    anti = _find_odd_hole(dense.complement(), max_len)
    if anti is not None:
        return False, ("antihole", _labels(dense, anti))
    if max_len >= n:
        return True, None
    return None, None


def _find_odd_hole(dense: DenseGraph, max_len: int) -> list[int] | None:
    n = dense.size
    adj = dense.adj
    for length in range(5, max_len + 1, 2):
        if length > n:
            break
        res = _find_hole_of_length(n, adj, length)
        if res is not None:
            return res
    return None


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


# ---------------------------------------------------------------------------
# the aggregate report


@dataclass
class InvariantReport:
    vertex_count: int
    edge_count: int
    connected: bool
    components: int
    diameter: int | float
    girth: int | float
    clique_number: int
    chromatic_number: int
    independence_number: int
    vertex_cover_number: int
    matching_number: int
    edge_cover_number: int | None
    domination_number: int
    eulerian: bool
    bipartite: bool
    triangulated: bool
    planar: bool
    perfect: bool | None
    witnesses: dict = field(default_factory=dict)
    methods: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        """Stable-key-order dict, so identical runs serialize identically."""
        def enc(x):
            if x is INFINITY:
                return "inf"
            return x
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "connected": self.connected,
            "components": self.components,
            "diameter": enc(self.diameter),
            "girth": enc(self.girth),
            "clique_number": self.clique_number,
            "chromatic_number": self.chromatic_number,
            "independence_number": self.independence_number,
            "vertex_cover_number": self.vertex_cover_number,
            "matching_number": self.matching_number,
            "edge_cover_number": self.edge_cover_number,
            "domination_number": self.domination_number,
            "eulerian": self.eulerian,
            "bipartite": self.bipartite,
            "triangulated": self.triangulated,
            "planar": self.planar,
            "perfect": self.perfect,
            "witnesses": _jsonify(self.witnesses),
            "methods": dict(sorted(self.methods.items())),
        }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    return obj


def perfect_verdict(g) -> tuple[bool | None, tuple | None, str]:
    """(perfect, odd hole or antihole witness, method).

    An inclusion graph is the comparability graph of set inclusion, and
    comparability graphs are perfect (Golumbic 1980, ch. 5), so it is
    perfect at every size; the odd-hole search cross-checks that wherever
    it is exhaustive. A raw graph takes the search alone.
    """
    dense = _dense(g)
    n = dense.size
    # Exhaustive only when cheap: the induced-path enumeration explodes on
    # large dense complements, so big raw graphs get no verdict.
    max_len = n if n <= 14 else (11 if n <= 32 else 0)
    if dense.masks is not None:
        if max_len >= n:
            check, witness = perfectness(dense, max_len)
            if check is not True:
                raise RuntimeError(
                    f"perfectness cross-check failed: comparability graph, search {witness}")
        return True, None, "comparability"
    if max_len == 0:
        return None, None, "skipped-size"
    verdict, witness = perfectness(dense, max_len)
    return verdict, witness, f"odd-hole-search<=({max_len})"


def compute_report(g, *, domination_cap: int = DOMINATION_CAP) -> InvariantReport:
    """Run every invariant on g and bundle the results."""
    dense = _dense(g)
    n = dense.size
    edge_count = sum(dense.degree(i) for i in range(n)) // 2
    witnesses: dict = {}
    methods: dict = {}

    components, diameter = connectivity(dense)
    methods["connectivity"] = ("containment-extremes"
                               if dense.masks is not None and diameter <= 3
                               else "bitset-bfs")
    gr = girth(dense)
    methods["girth"] = ("3-chain" if dense.masks is not None and gr == 3
                        else "per-vertex-bfs")
    omega, clique = clique_number(dense)
    methods["clique"] = ("chain-dp" if dense.masks is not None else "branch-and-bound")
    witnesses["clique"] = clique
    chi, coloring = chromatic_number(dense)
    methods["chromatic"] = ("chain-layering" if dense.masks is not None else "exact-search")
    witnesses["coloring"] = coloring
    alpha, antichain = independence_number(dense)
    methods["independence"] = ("dilworth-matching" if dense.masks is not None
                               else "exact-search")
    witnesses["independent_set"] = antichain
    mnum, pairs, perfect_matching = maximum_matching(dense)
    methods["matching"] = "blossom"
    witnesses["matching"] = pairs
    isolated = any(dense.degree(i) == 0 for i in range(n))
    edge_cover = None if (isolated or n == 0) else n - mnum
    gamma, dom = domination_number(dense, cap=domination_cap)
    methods["domination"] = "iterative-deepening-cover"
    witnesses["dominating_set"] = dom
    eulerian, bipartite_flag, triangulated = structural_flags(dense)
    methods["flags"] = "bfs"
    planar_res = planarity(dense)
    methods["planarity"] = planar_res.method
    if planar_res.planar:
        witnesses["embedding"] = planar_res.embedding
    else:
        witnesses["kuratowski"] = {
            "kind": planar_res.kuratowski_kind,
            "edges": planar_res.kuratowski_edges,
        }
    perfect, hole_witness, methods["perfectness"] = perfect_verdict(dense)
    if hole_witness is not None:
        witnesses[hole_witness[0]] = hole_witness[1]

    report = InvariantReport(
        vertex_count=n,
        edge_count=edge_count,
        connected=components <= 1,
        components=components,
        diameter=diameter if n > 0 else INFINITY,
        girth=gr,
        clique_number=omega,
        chromatic_number=chi,
        independence_number=alpha,
        vertex_cover_number=n - alpha,
        matching_number=mnum,
        edge_cover_number=edge_cover,
        domination_number=gamma,
        eulerian=eulerian,
        bipartite=bipartite_flag,
        triangulated=triangulated,
        planar=planar_res.planar,
        perfect=perfect,
        witnesses=witnesses,
        methods=methods,
    )
    if report.independence_number + report.vertex_cover_number != n:
        raise RuntimeError("identity failed: independence + vertex cover != order")
    if report.clique_number > report.chromatic_number:
        raise RuntimeError("identity failed: clique number exceeds chromatic number")
    if edge_cover is not None and report.matching_number + edge_cover != n:
        raise RuntimeError("identity failed: matching + edge cover != order")
    return report
