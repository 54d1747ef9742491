"""Explicit constructions on the Boolean model.

Layer ``k`` means all k-element subsets of [n]; consecutive layers induce a
biregular bipartite graph under containment. These routines build concrete
certificates: layer matchings saturating the smaller prescribed side, a
middle-layer normalization of independent sets, a perfect matching of the
whole graph (from symmetric chains), and canonical dominating sets and chains.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import boolean
from .bipartite import hopcroft_karp
from .errors import NotIndependentError, OutOfRangeError


def layer(n: int, k: int) -> list[int]:
    """All k-subsets of [n] as masks, ascending."""
    out = []
    for combo in combinations(range(n), k):
        m = 0
        for b in combo:
            m |= 1 << b
        out.append(m)
    out.sort()
    return out


def _supersets_one_more(n: int, m: int) -> list[int]:
    full = (1 << n) - 1
    rest = full & ~m
    out = []
    t = rest
    while t:
        b = t & -t
        out.append(m | b)
        t ^= b
    out.sort()
    return out


class LayerGraph(NamedTuple):
    """Bipartite containment graph between layers k and k+1."""

    n: int
    k: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def edges(self) -> list[tuple[int, int]]:
        return [(m, s) for m in self.lower for s in _supersets_one_more(self.n, m)]


class LayerMatching(NamedTuple):
    """A matching between consecutive layers saturating one side.

    ``covers`` is "lower" when every k-subset is matched, "upper" when every
    (k+1)-subset is.
    """

    n: int
    k: int
    covers: str
    pairs: tuple[tuple[int, int], ...]  # (k-subset, (k+1)-superset)

    def as_map(self) -> dict[int, int]:
        if self.covers == "lower":
            return {a: b for a, b in self.pairs}
        return {b: a for a, b in self.pairs}


def layer_graph(n: int, k: int) -> LayerGraph:
    if not (2 <= n and 1 <= k <= n - 2):
        raise OutOfRangeError(f"need 1 <= k <= n-2, got n={n} k={k}")
    return LayerGraph(n=n, k=k, lower=tuple(layer(n, k)), upper=tuple(layer(n, k + 1)))


def _saturating_matching(n: int, lower: list[int], upper: list[int],
                         from_lower: bool) -> list[tuple[int, int]]:
    """Match every vertex of the prescribed side into the other layer."""
    upper_index = {m: i for i, m in enumerate(upper)}
    lower_index = {m: i for i, m in enumerate(lower)}
    if from_lower:
        adj = []
        for m in lower:
            row = 0
            for s in _supersets_one_more(n, m):
                if s in upper_index:
                    row |= 1 << upper_index[s]
            adj.append(row)
        size, match_l, _ = hopcroft_karp(len(lower), len(upper), adj)
        if size != len(lower):
            raise RuntimeError("layer matching failed to saturate the lower side")
        return [(lower[i], upper[match_l[i]]) for i in range(len(lower))]
    adj = []
    for m in upper:
        row = 0
        s = (m - 1) & m
        while s:
            if s in lower_index:
                row |= 1 << lower_index[s]
            s = (s - 1) & m
        adj.append(row)
    size, match_l, _ = hopcroft_karp(len(upper), len(lower), adj)
    if size != len(upper):
        raise RuntimeError("layer matching failed to saturate the upper side")
    return [(lower[match_l[i]], upper[i]) for i in range(len(upper))]


def layer_matching(n: int, k: int) -> LayerMatching:
    """Hall matching between layers k and k+1.

    Saturates layer k when k <= floor(n/2) - 1, layer k+1 otherwise; both
    directions exist because the bipartite layer graph is biregular with the
    prescribed side no larger than the other.
    """
    lg = layer_graph(n, k)
    p = n // 2
    if k <= p - 1:
        pairs = _saturating_matching(n, list(lg.lower), list(lg.upper), True)
        covers = "lower"
    else:
        pairs = _saturating_matching(n, list(lg.lower), list(lg.upper), False)
        covers = "upper"
    return LayerMatching(n=n, k=k, covers=covers, pairs=tuple(sorted(pairs)))


def _is_antichain(masks) -> bool:
    ms = list(masks)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            a, b = ms[i], ms[j]
            if a & b == a or a & b == b:
                return False
    return True


def normalize_independent_set(n: int, vertices) -> frozenset[int]:
    """Push an independent set into the middle layer, preserving its size.

    Repeatedly replaces the members in the lowest layer by their images
    under a fixed saturating layer matching (rising passes), then does the
    mirror from the top (falling passes). The result is a same-size
    independent subset of layer floor(n/2).
    """
    U = frozenset(vertices)
    for m in U:
        if not (0 < m < (1 << n) - 1):
            raise OutOfRangeError(f"mask {m} is not a nonempty proper subset")
    if not _is_antichain(U):
        raise NotIndependentError("input is not an antichain")
    p = n // 2
    cur = set(U)
    for k in range(1, p):
        phi = layer_matching(n, k)
        if phi.covers != "lower":
            raise RuntimeError(f"layer matching {k} -> {k + 1} does not cover layer {k}")
        mapping = phi.as_map()
        in_layer = {m for m in cur if m.bit_count() == k}
        cur = (cur - in_layer) | {mapping[m] for m in in_layer}
        if len(cur) != len(U) or not _is_antichain(cur):
            raise RuntimeError("rising pass broke the antichain invariant")
    for k in range(n - 2, p - 1, -1):
        phi = layer_matching(n, k)
        if phi.covers != "upper":
            raise RuntimeError(f"layer matching {k} -> {k + 1} does not cover layer {k + 1}")
        mapping = phi.as_map()
        in_layer = {m for m in cur if m.bit_count() == k + 1}
        cur = (cur - in_layer) | {mapping[m] for m in in_layer}
        if len(cur) != len(U) or not _is_antichain(cur):
            raise RuntimeError("falling pass broke the antichain invariant")
    if any(m.bit_count() != p for m in cur):
        raise RuntimeError(f"normalized set left layer {p}")
    return frozenset(cur)


def perfect_matching(n: int) -> list[tuple[int, int]]:
    """A perfect matching of the Boolean inclusion graph, 2^(n-1) - 1 edges,
    sorted: consecutive pairs along symmetric chains, checked edge by edge
    (``boolean.perfect_matching``, the matching ``invariants --n N``
    reports)."""
    if n < 3:
        raise OutOfRangeError("need n >= 3")
    return boolean.perfect_matching(n)


def canonical_dominating_set(n: int) -> tuple[int, int]:
    """The two-vertex dominating set {first singleton, everything-but-first}."""
    if n < 3:
        raise OutOfRangeError("need n >= 3")
    full = (1 << n) - 1
    single = 1
    rest = full & ~1
    for m in range(1, full):
        if m in (single, rest):
            continue
        adj_single = m != single and ((m & single) == single or (m & single) == m)
        adj_rest = m != rest and ((m & rest) == rest or (m & rest) == m)
        if not (adj_single or adj_rest):
            raise RuntimeError(f"vertex {m} is not dominated")
    return (single, rest)


def canonical_maximum_chain(n: int) -> list[int]:
    """The nested chain {1} in {1,2} in ... in {1..n-1}; a maximum clique."""
    if n < 2:
        raise OutOfRangeError("need n >= 2")
    return [(1 << k) - 1 for k in range(1, n)]
