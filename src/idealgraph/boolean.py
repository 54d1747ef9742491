"""Invariants of the Boolean model read off its masks, each with a checked
certificate and no adjacency.

The vertices are the nonempty proper subsets of [n], the inclusion graph of
a completely simple semigroup with n minimal left ideals. From ``MIN_N`` on,
every number ``invariants`` reports has a witness that can be written down
from the masks and checked against the subset predicate alone, as the
checker of a certifying algorithm does (McConnell, Mehlhorn, Näher &
Schweitzer 2011). So nothing here builds the V²/8-byte adjacency of
``InclusionGraph.dense``:

- ω = χ: the canonical chain {1} ⊂ {1, 2} ⊂ ... ⊂ [n-1] is a clique, and
  colouring each vertex by its size uses as many colours, each class an
  antichain (distinct sets of one size are incomparable).
- α: the layer of size ⌈n/2⌉ is an antichain, and as many symmetric chains
  (de Bruijn, Tengbergen & Kruyswijk 1951) partition the vertices.
- The matching: consecutive pairs along symmetric chains, perfect.
- γ = 2: {1} and [n] ∖ {1} dominate, and every vertex has an incomparable
  vertex, so no one vertex does.
- Diameter 3, girth 3, the K5 on the chain, the flags and perfectness
  follow from the order as the dense solvers read them.

The same builders and checkers give ``construct`` its certificates: the
chain, the dominating pair, the perfect matching, and the matchings between
layers k and k + 1 (the k- and (k+1)-subsets), read off the symmetric chains.

Every check raises RuntimeError. Below ``MIN_N`` the canonical chain has
fewer than five vertices, and the dense solvers answer (at most 30
vertices).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import NotIndependentError, OutOfRangeError
from .graph import build_boolean
from .report import INFINITY, MIN_N, SELECTIONS, _assemble, selected_document


def _comparable(a: int, b: int) -> bool:
    """Whether ``a`` and ``b`` are adjacent: distinct, one inside the other."""
    c = a & b
    return a != b and (c == a or c == b)


def symmetric_chains(n: int) -> list[list[int]]:
    """A symmetric chain decomposition of all subsets of [n], by de
    Bruijn's recursion (``de_bruijn_step``) from the one chain of ∅. The
    first chain runs from ∅ to [n] through the prefixes."""
    chains = [[0]]
    for e in range(n):
        chains = de_bruijn_step(chains, e)
    return chains


def de_bruijn_step(chains: list[list[int]], e: int) -> list[list[int]]:
    """The symmetric chains of the subsets of [e + 1] grown from ``chains``,
    those of [e]: each chain c_1 ⊂ ... ⊂ c_t gives c_1 ⊂ ... ⊂ c_t ⊂
    c_t + {e + 1} and, if t > 1, c_1 + {e + 1} ⊂ ... ⊂ c_{t-1} + {e + 1}.
    ``chains`` are left as they are."""
    bit = 1 << e
    grown = []
    for c in chains:
        grown.append(c + [c[-1] | bit])
        if len(c) > 1:
            grown.append([m | bit for m in c[:-1]])
    return grown


def check_chain_partition(chains, n: int) -> None:
    """Check that ``chains`` are chains of vertices that together hold each
    vertex exactly once: each member strictly inside the next, the ends
    inside (∅, [n]), and a mark per vertex."""
    full = (1 << n) - 1
    marks = bytearray(full + 1)
    total = 0
    for chain in chains:
        if not (chain and 0 < chain[0] and chain[-1] < full) or any(
                a & b != a or a == b for a, b in zip(chain, chain[1:])):
            raise RuntimeError(
                f"independence certificate failed: {chain} is not a chain of vertices")
        total += len(chain)
        for m in chain:
            marks[m] = 1
    if total != full - 1 or marks.count(1) != full - 1:
        raise RuntimeError(
            f"independence certificate failed: the chains hold {total} members and "
            f"{marks.count(1)} distinct vertices, not each of the {full - 1} once")


def _need_three(n: int) -> None:
    if n < 3:
        raise OutOfRangeError(f"need n >= 3, got {n}")


def perfect_matching(n: int, chains: list[list[int]] | None = None) -> list[tuple[int, int]]:
    """A perfect matching of the Boolean inclusion graph (n >= 3), sorted and
    checked edge by edge: consecutive pairs along the symmetric ``chains``,
    ``symmetric_chains(n)`` for odd n and ``symmetric_chains(n - 1)`` for
    even n, built within the range and the vertex cap if not given.

    Odd n: every chain of ``symmetric_chains(n)`` has an even number of
    members once the first loses ∅ and [n]. Even n: the halves without and
    with element n are each such a decomposition of [n-1], whose chains are
    even but for the first: {1} ⊂ ... ⊂ [n-1] below and {n} ⊂ ... ⊂ [n]
    ∖ {n-1} above (without [n]). These two are paired from the other end, and
    the one edge ({1}, [n] ∖ {n-1}) joins what they leave.
    """
    _need_three(n)
    full = (1 << n) - 1
    if chains is None:
        build_boolean(n).check_cap()
        chains = symmetric_chains(n if n % 2 else n - 1)
    if n % 2:
        first, *rest = chains
        chains = [first[1:-1], *rest]
        pairs = []
    else:
        bit = 1 << (n - 1)
        first, *rest = chains
        chains = [first[2:], *rest, [m | bit for m in first[:-2]],
                  *([m | bit for m in c] for c in rest)]
        pairs = [(1, full ^ (bit >> 1))]
    for c in chains:
        pairs += zip(c[::2], c[1::2])
    pairs.sort()
    check_matching(pairs, n)
    return pairs


def check_matching(pairs, n: int) -> None:
    """Check that ``pairs`` is a perfect matching: each pair a strict
    containment of vertices, no vertex in two pairs, every vertex in one."""
    full = (1 << n) - 1
    marks = bytearray(full + 1)
    for a, b in pairs:
        if not (0 < a and b < full and a & b == a and a != b) or marks[a] or marks[b]:
            raise RuntimeError(f"matching certificate failed: the pair ({a}, {b}) is "
                               "not a containment of vertices or meets another pair")
        marks[a] = marks[b] = 1
    if 2 * len(pairs) != full - 1:
        raise RuntimeError(f"matching certificate failed: {len(pairs)} pairs do not "
                           f"cover {full - 1} vertices")


def check_colouring(colouring: dict, n: int, colours: int) -> None:
    """Check that ``colouring`` gives every vertex a colour in 1..``colours``
    and that the members of each colour class have one size, so no two of
    them are nested."""
    full = (1 << n) - 1
    size = [0] * (colours + 1)  # size[c]: the size of colour c's members
    for m, c in colouring.items():
        if not (0 < m < full and 1 <= c <= colours):
            raise RuntimeError(
                f"colouring certificate failed: {m} has colour {c} of 1..{colours}")
        k = m.bit_count()
        if size[c] != k:
            if size[c]:
                raise RuntimeError(f"colouring certificate failed: colour {c} holds "
                                   f"{m} and a set of another size")
            size[c] = k
    if len(colouring) != full - 1:
        raise RuntimeError(f"colouring certificate failed: {len(colouring)} of "
                           f"{full - 1} vertices coloured")


def check_domination(pair: tuple[int, int], witnesses, n: int) -> None:
    """Check that ``pair`` dominates every vertex and that ``witnesses``,
    pairs (v, w), give each vertex v a vertex w incomparable to it, so that
    no one vertex dominates. The pairs are read once, so they may stream."""
    full = (1 << n) - 1
    s, r = pair
    marks = bytearray(full + 1)
    for v, w in witnesses:
        if not (0 < v < full and 0 < w < full) or w == v or _comparable(v, w):
            raise RuntimeError(
                f"domination certificate failed: {w} is no vertex incomparable to {v}")
        if v != s and v != r and not (_comparable(v, s) or _comparable(v, r)):
            raise RuntimeError(
                f"domination certificate failed: {pair} leaves {v} undominated")
        marks[v] = 1
    if marks.count(1) != full - 1:
        raise RuntimeError(f"domination certificate failed: {marks.count(1)} of "
                           f"{full - 1} vertices have an incomparable witness")


def check_far_pair(u: int, v: int, vertices) -> None:
    """Check that ``u`` and ``v`` are at distance at least 3: not adjacent,
    and no vertex is adjacent to both."""
    if _comparable(u, v) or any(_comparable(w, u) and _comparable(w, v) for w in vertices):
        raise RuntimeError(f"diameter certificate failed: {u} and {v} are closer than 3")


class _Masks:
    """The certificates of one Boolean graph, each built and checked once,
    when first read."""

    def __init__(self, g):
        self.g = g
        self.n = n = g.n
        self.full = (1 << n) - 1

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.g.vertices())

    @cached_property
    def chain(self) -> list[int]:
        """The canonical chain, checked to be a clique."""
        chain = [(1 << k) - 1 for k in range(1, self.n)]
        if not (0 < chain[0] and chain[-1] < self.full) or any(
                not _comparable(a, b) for a, b in zip(chain, chain[1:])):
            raise RuntimeError(f"clique certificate failed: {chain} is not a chain")
        return chain

    @cached_property
    def colouring(self) -> dict[int, int]:
        """Each vertex coloured by its size, checked to use no more colours
        than the chain has vertices: then ω = χ = the chain's length."""
        colouring = {m: m.bit_count() for m in self.vertices}
        check_colouring(colouring, self.n, len(self.chain))
        return colouring

    @cached_property
    def lower_chains(self) -> list[list[int]]:
        """``symmetric_chains(n - 1)``, the one recursion of a report."""
        return symmetric_chains(self.n - 1)

    @cached_property
    def chains(self) -> list[list[int]]:
        """``symmetric_chains(n)``, one de Bruijn step from ``lower_chains``."""
        return de_bruijn_step(self.lower_chains, self.n - 1)

    @cached_property
    def antichain(self) -> tuple[int, ...]:
        """The layer of size ⌈n/2⌉, as many vertices as the symmetric chains
        that partition the vertices: a largest antichain."""
        k = (self.n + 1) // 2
        layer = tuple(m for m in self.vertices if m.bit_count() == k)
        first, *rest = self.chains
        chains = [first[1:-1], *rest]
        check_chain_partition(chains, self.n)
        if len(chains) != len(layer) or len(set(layer)) != len(layer):
            raise RuntimeError(f"independence certificate failed: {len(layer)} "
                               f"members of layer {k}, {len(chains)} chains")
        return layer

    @cached_property
    def dominating_set(self) -> tuple[int, int]:
        pair = (1, self.full ^ 1)
        # v less its lowest member, plus its lowest non-member
        check_domination(pair, ((v, v ^ (v & -v) ^ (~v & (v + 1)))
                                for v in range(1, self.full)), self.n)
        return pair

    @cached_property
    def diameter(self) -> int:
        """3, from the singletons and co-singletons.

        Upper bound: for vertices x, y take a in x and b outside y with
        a != b; then x ⊇ {a} ⊂ [n] ∖ {b} ⊇ y is a walk of at most 3 edges.
        Only x = {a}, y = [n] ∖ {a} has no such a, b, and {a} ⊂ {a, c} ⊃ {c}
        ⊂ [n] ∖ {a} joins them. Both kinds of step are checked. Lower bound,
        checked as ``invariants.connectivity`` checks its farthest pair: {1}
        and [n] ∖ {1} are not adjacent and no vertex is adjacent to both.
        """
        n, full = self.n, self.full
        for a in range(n):
            single = 1 << a
            other = 1 if a else 2  # {c}, c != a
            if any(not _comparable(single, full ^ 1 << b) for b in range(n) if b != a) or not (
                    _comparable(single, single | other) and _comparable(single | other, other)
                    and _comparable(other, full ^ single)):
                raise RuntimeError(f"diameter certificate failed: no walk of 3 edges "
                                   f"from {single} to every co-singleton")
        check_far_pair(1, full ^ 1, self.vertices)
        return 3

    @cached_property
    def girth(self) -> int:
        a, b, c = self.chain[:3]
        if not (_comparable(a, b) and _comparable(b, c) and _comparable(a, c)):
            raise RuntimeError(f"girth certificate failed: {(a, b, c)} is not a triangle")
        return 3

    @cached_property
    def kuratowski(self) -> dict:
        """The K5 on the chain's first five vertices, checked edge by edge."""
        edges = tuple(combinations(self.chain[:5], 2))
        if len(edges) != 10 or not all(_comparable(a, b) for a, b in edges):
            raise RuntimeError(
                f"planarity witness check failed: {edges} is not a K5")
        return {"kind": "K5", "edges": edges}

    @cached_property
    def flags(self) -> tuple[bool, bool, bool]:
        """(eulerian, bipartite, triangulated) from the order, as
        ``invariants.structural_flags`` reads them: a vertex of size k has
        2^k - 2 neighbours below and 2^(n-k) - 2 above, a longest chain of k
        vertices ending at it and of n - k starting at it; every size
        1..n-1 occurs. The graph is connected: its ``diameter`` is finite."""
        n = self.n
        sizes = range(1, n)
        eulerian = self.diameter < INFINITY and all(
            ((1 << k) - 2 + (1 << (n - k)) - 2) % 2 == 0 for k in sizes)
        return eulerian, max(sizes) <= 2, all(k + (n - k) >= 4 for k in sizes)


class LayerMatching(NamedTuple):
    """A matching of covers between layers k and k + 1 that saturates one of
    them: ``covers`` is "lower" when every k-subset is matched, "upper" when
    every (k+1)-subset is."""

    n: int
    k: int
    covers: str
    pairs: tuple[tuple[int, int], ...]  # (k-subset, (k+1)-superset), sorted


def certificates(n: int) -> _Masks:
    """The certificates of the Boolean graph on n points, each built and
    checked when first read; OutOfRangeError outside [2, ``MAX_BOOLEAN_N``]
    and TooLargeError past the vertex cap, as for a command's graph."""
    g = build_boolean(n)
    g.check_cap()
    return _Masks(g)


def canonical_maximum_chain(n: int) -> list[int]:
    """The canonical chain {1} ⊂ {1, 2} ⊂ ... ⊂ [n-1], a maximum clique."""
    return certificates(n).chain


def canonical_dominating_set(n: int) -> tuple[int, int]:
    """{1} and [n] ∖ {1}, a smallest dominating set (n >= 3)."""
    _need_three(n)
    return certificates(n).dominating_set


def layer_matching(n: int, k: int) -> LayerMatching:
    """The consecutive pairs (a, b) of the symmetric chains with |a| = k,
    sorted and checked by ``check_layer_matching``.

    A chain runs from size i to n - i. Through layer k with k < ⌊n/2⌋ it
    also passes layer k + 1 (k + 1 <= n - k - 1 <= n - i), and through
    layer k + 1 with k >= ⌊n/2⌋ it also passes layer k (i <= n - k - 1 <=
    k). So the pairs saturate layer k in the first case, layer k + 1 in the
    second.
    """
    if not 1 <= k <= n - 2:
        raise OutOfRangeError(f"need 1 <= k <= n-2, got n={n} k={k}")
    pairs = []
    for c in certificates(n).chains:
        i = k - c[0].bit_count()  # the index of the chain's k-subset
        if 0 <= i < len(c) - 1:
            pairs.append((c[i], c[i + 1]))
    pairs.sort()
    matching = LayerMatching(n, k, "lower" if k < n // 2 else "upper", tuple(pairs))
    check_layer_matching(matching)
    return matching


def check_layer_matching(matching: LayerMatching) -> None:
    """Check that ``matching`` pairs k-subsets with (k+1)-supersets, no mask
    twice, and saturates the layer prescribed for (n, k): layer k when k <
    ⌊n/2⌋, layer k + 1 otherwise."""
    n, k, covers, pairs = matching
    full = (1 << n) - 1
    marks = bytearray(full + 1)
    for a, b in pairs:
        if not (0 < a < b < full and a & b == a and a.bit_count() == k
                and b.bit_count() == k + 1) or marks[a] or marks[b]:
            raise RuntimeError(f"layer matching certificate failed: the pair ({a}, {b}) "
                               f"is no cover from layer {k} or meets another pair")
        marks[a] = marks[b] = 1
    side, size = ("lower", comb(n, k)) if k < n // 2 else ("upper", comb(n, k + 1))
    if covers != side or len(pairs) != size:
        raise RuntimeError(f"layer matching certificate failed: {len(pairs)} pairs "
                           f"covering the {covers} side, not the {size} of the {side}")


def normalize_independent_set(n: int, vertices) -> frozenset[int]:
    """An independent set of the same size in layer ⌊n/2⌋: each member
    goes to the member of that size on its symmetric chain. A chain holds at
    most one member of an antichain, so no two members share an image, and
    distinct sets of one size are independent."""
    members = frozenset(vertices)
    full = (1 << n) - 1
    for m in members:
        if not 0 < m < full:
            raise OutOfRangeError(f"mask {m} is not a nonempty proper subset")
    if any(_comparable(a, b) for a, b in combinations(members, 2)):
        raise NotIndependentError("input is not an antichain")
    p = n // 2
    image = frozenset(c[p - c[0].bit_count()] for c in certificates(n).chains
                      if not members.isdisjoint(c))
    if len(image) != len(members) or any(m.bit_count() != p for m in image):
        raise RuntimeError(f"normalization failed: {len(members)} members map to "
                           f"{len(image)} sets, not all of size {p}")
    return image


_METHODS = {
    "connectivity": "singletons-and-cosingletons",
    "girth": "3-chain",
    "clique": "canonical-chain",
    "chromatic": "popcount-layering",
    "independence": "symmetric-chains",
    "matching": "symmetric-chain-pairs",
    "domination": "canonical-pair",
    "flags": "containment-order",
    "planarity": "k5-chain",
    "perfectness": "comparability",
}


def report_document(g, select=frozenset()) -> dict:
    """The ``invariants`` document of the Boolean graph ``g`` (n >= MIN_N):
    the whole report, or the values of the ``select``ed flags (see
    ``report.SELECTIONS``), each certificate built only when needed. The
    vertex cap holds as for the dense route."""
    if g.n < MIN_N:
        raise ValueError(f"the mask route needs n >= {MIN_N}, got {g.n}")
    g.check_cap()
    m = _Masks(g)
    wanted = select or SELECTIONS
    values: dict = {}
    witnesses: dict = {}
    if "diameter" in wanted:
        values["components"], values["diameter"] = 1, m.diameter
    if "girth" in wanted:
        values["girth"] = m.girth
    if "clique" in wanted:
        values["clique_number"] = len(m.chain)
        witnesses["clique"] = tuple(m.chain)
    if "chromatic" in wanted:
        values["chromatic_number"] = max(m.colouring.values())
        witnesses["coloring"] = m.colouring
    if "independence" in wanted:
        values["independence_number"] = len(m.antichain)
        witnesses["independent_set"] = m.antichain
    if "matching" in wanted:
        pairs = perfect_matching(m.n, m.chains if m.n % 2 else m.lower_chains)
        values["matching_number"] = len(pairs)
        values["perfect_matching"] = 2 * len(pairs) == m.full - 1
        witnesses["matching"] = tuple(pairs)
    if "domination" in wanted:
        values["domination_number"] = len(m.dominating_set)
        witnesses["dominating_set"] = m.dominating_set
    if "planarity" in wanted:
        values["planar"], values["kuratowski_kind"] = False, m.kuratowski["kind"]
        witnesses["kuratowski"] = m.kuratowski
    if "perfect" in wanted:
        values["perfect"] = True  # comparability graphs (see invariants.perfect_verdict)
    if "flags" in wanted:
        values["eulerian"], values["bipartite"], values["triangulated"] = m.flags
    if select:
        return selected_document(values, select)
    return _assemble(
        values, witnesses, _METHODS, vertex_count=len(m.vertices),
        # each edge counted at its upper end, a vertex of size k over 2^k - 2 others
        edge_count=sum((1 << v.bit_count()) - 2 for v in m.vertices),
        isolated=False).to_jsonable()
