"""The inclusion graph of a family of sets.

Vertices are bit masks; two vertices are adjacent iff one strictly contains
the other. Generic mode holds a complete ideal family (a distributive
lattice with the empty set and S), Boolean mode represents all nonempty
proper subsets of [n] implicitly, so graphs with 2^n - 2 vertices stay
cheap until an algorithm genuinely needs the vertex set in memory. There is
one materialized graph kind, ``DenseGraph``: adjacency bitsets together
with the masks they join, so every graph carries the containment order its
solvers read.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import OutOfRangeError, TooLargeError, TruncatedFamilyError, UnknownVertexError

if TYPE_CHECKING:  # annotations only: a Boolean graph needs no semigroup code
    from .semigroup import CayleyTable, IdealFamily

DEFAULT_VERTEX_CAP = 1 << 22
MAX_BOOLEAN_N = 62

_command_cap: int | None = None  # set by command_vertex_cap


def vertex_cap() -> int:
    """Hard cap on materialized vertex counts: the running command's (see
    ``command_vertex_cap``), else IDEALGRAPH_MAX_VERTICES, else the default."""
    if _command_cap is not None:
        return _command_cap
    env = os.environ.get("IDEALGRAPH_MAX_VERTICES")
    if not env:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise OutOfRangeError(
            f"IDEALGRAPH_MAX_VERTICES must be a positive integer, got {env!r}")
    return cap


@contextmanager
def command_vertex_cap(cap: int | None = None):
    """Fix the vertex cap for the block: ``cap``, or the environment's, read
    once here rather than on every ``dense()`` call. The previous cap is back
    afterwards."""
    global _command_cap
    saved = _command_cap
    _command_cap = cap if cap is not None else vertex_cap()
    try:
        yield
    finally:
        _command_cap = saved


def check_vertex_count(count: int) -> None:
    """Raise TooLargeError when ``count`` vertices exceed the vertex cap."""
    limit = vertex_cap()
    if count > limit:
        raise TooLargeError(f"{count} vertices exceed the cap of {limit}")


def bits(m: int) -> list[int]:
    """Positions of the set bits of ``m``, lowest first."""
    out = []
    while m:
        b = m & -m
        out.append(b.bit_length() - 1)
        m ^= b
    return out


class Containment(NamedTuple):
    """Strict containment among the vertices of an inclusion graph.

    ``below[i]`` and ``above[i]`` are bitsets of the vertices strictly inside
    and strictly containing vertex i; ``down[i]`` and ``up[i]`` count the
    vertices of a longest chain ending and starting at i.
    """

    below: list[int]
    above: list[int]
    down: list[int]
    up: list[int]


def _chain_levels(rel: list[int], order) -> list[int]:
    """Longest-chain levels in one sweep (Mirsky 1971). ``order`` lists the
    elements so that each comes after every element of its ``rel``; each
    takes 1 + the highest level among them, found by scanning the level sets
    down from the top. With rel = below in index order, the length of a
    longest chain ending at i."""
    level = [0] * len(rel)
    tiers = [0]  # tiers[k]: the elements at level k; level 0 stays empty
    for i in order:
        r = rel[i]
        k = len(tiers) - 1
        while k and not tiers[k] & r:
            k -= 1
        k += 1
        level[i] = k
        if k == len(tiers):
            tiers.append(1 << i)
        else:
            tiers[k] |= 1 << i
    return level


class DenseGraph:
    """Materialized inclusion graph: index-based adjacency bitsets and the
    vertex masks (index -> set mask, sorted by (popcount, mask)).

    Every graph is the comparability graph of its masks' containment, which
    ``containment`` reads off the adjacency.
    """

    def __init__(self, adj: list[int], masks: tuple[int, ...]):
        self.adj = adj
        self.masks = masks

    @property
    def size(self) -> int:
        return len(self.adj)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    @cached_property
    def containment(self) -> Containment:
        """The containment order, built once per graph.

        Vertices are sorted by (popcount, mask), so index order is a linear
        extension of containment: a neighbour at a lower index is a strict
        subset, one at a higher index a strict superset. One sweep each way
        gives the chain levels.
        """
        n = len(self.adj)
        below = [a & ((1 << i) - 1) for i, a in enumerate(self.adj)]
        above = [a >> (i + 1) << (i + 1) for i, a in enumerate(self.adj)]
        return Containment(below, above, _chain_levels(below, range(n)),
                           _chain_levels(above, range(n - 1, -1, -1)))


def transpose(masks) -> list[int]:
    """The element columns of a sequence of masks: column e is the bitset of
    the indices i with element e in ``masks[i]``.

    Each mask is written once as k little-endian bytes, and the joined bytes
    are read as one integer with mask i at bit 8k*i. In its binary text,
    element e of every mask recurs at stride 8k, so column e is one strided
    slice of that text, read back by ``int(..., 2)``.
    """
    if not masks:
        return []
    w = max(masks).bit_length()
    k = (w + 7) >> 3
    data = bytes(masks) if k == 1 else b"".join(
        map(int.to_bytes, masks, repeat(k), repeat("little")))
    stride = k << 3
    # The bit above the last mask fixes the width: text is "0b1" + 8k*len(masks) digits.
    text = bin(int.from_bytes(data, "little") | 1 << stride * len(masks))
    return [int(text[stride + 2 - e::stride], 2) for e in range(w)]


def _meets(codes: list[int], cols: dict[int, int], highest: bool = False) -> list[int]:
    """For each code in turn, the AND of ``cols[b]`` over its set bits b
    (``cols[0]``, the AND over no bits, is every position).

    The ANDs are memoised per code, and a code's is one AND on that of its
    parent, the code with its lowest bit cleared, or its highest when
    ``highest``, which a sorted family of down-sets always lists earlier
    (see ``containment_adjacency``); a code without one raises RuntimeError.
    """
    memo = {0: cols[0]}
    get = memo.get
    out = []
    for code in codes:
        b = 1 << code.bit_length() >> 1 if highest else code & -code
        x = get(code ^ b)
        if x is None:
            raise RuntimeError(f"code {code:#x} has no stored parent {code ^ b:#x}")
        x &= cols[b]
        memo[code] = x
        out.append(x)
    return out


def containment_adjacency(codes) -> list[int]:
    """Adjacency bitsets of strict containment among distinct codes.

    The codes are the nonempty proper down-sets, sorted by size, of a poset
    on bits in linear-extension order: a complete ideal family's J-codes
    (see ``enumerate_left_ideals``), or a Boolean family's masks. One
    ``transpose`` gives each bit's column; the codes containing a code are
    those in every column of its bits, the codes inside it those in no
    column outside it (see ``_meets``), taken in index order and in
    reverse. Clearing a code's highest bit or adding the lowest bit outside
    it gives a code done already: one AND per code and side. Any other list
    of codes raises RuntimeError.
    """
    columns = transpose(codes)
    everyone = (1 << len(codes)) - 1
    holds = {1 << k: c for k, c in enumerate(columns)}
    misses = {b: everyone ^ c for b, c in holds.items()}
    holds[0] = misses[0] = everyone
    adj = _meets(codes, holds, highest=True)
    full = (1 << len(columns)) - 1
    inside = _meets([full ^ c for c in reversed(codes)], misses)
    inside.reverse()
    for i, x in enumerate(inside):
        adj[i] = (adj[i] | x) ^ (1 << i)  # each meet holds the code itself
    return adj


def _mask_sort_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


class InclusionGraph:
    """Inclusion graph over set masks, in ``boolean`` mode or ``generic`` mode
    from a complete ideal family: always a distributive lattice without its
    bottom and top, so with no 5-chain it has at most 30 vertices (see
    ``invariants.planarity``); a bare ``DenseGraph`` may be any comparability
    graph."""

    def __init__(self, mode: str, n: int | None = None,
                 family: IdealFamily | None = None):
        if mode == "boolean":
            if n is None:
                raise ValueError("boolean mode needs n")
            self.n = n
            self.family = self._vertices = None
        elif mode == "generic":
            self.n = None
            self.family = family
            self._vertices = family.masks  # in vertex order
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self._index: dict[int, int] | None = None
        self._dense: DenseGraph | None = None

    @property
    def vertex_count(self) -> int:
        if self.mode == "boolean":
            return (1 << self.n) - 2
        return len(self._vertices)

    def vertices(self):
        """Masks in canonical (popcount, mask) order."""
        if self.mode == "generic":
            yield from self._vertices
            return
        n = self.n
        limit = 1 << n
        for k in range(1, n):
            m = (1 << k) - 1
            while m < limit:  # Gosper's hack: next mask of equal popcount
                yield m
                c = m & -m
                r = m + c
                m = (((r ^ m) >> 2) // c) | r

    def has_vertex(self, mask: int) -> bool:
        if self.mode == "boolean":
            return 0 < mask < (1 << self.n) - 1
        return mask in self._vertex_index()

    def _vertex_index(self) -> dict[int, int]:
        if self._index is None:
            self._index = {m: i for i, m in enumerate(self.vertices())}
        return self._index

    def adjacent(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if not (self.has_vertex(u) and self.has_vertex(v)):
            raise UnknownVertexError(f"{u} or {v} not in graph")
        uv = u & v
        return uv == u or uv == v

    def neighbors(self, v: int) -> list[int]:
        """Neighbor masks of v, sorted canonically."""
        if not self.has_vertex(v):
            raise UnknownVertexError(str(v))
        if self.mode == "generic":
            return [u for u in self._vertices
                    if u != v and ((u & v) == u or (u & v) == v)]
        below = []
        s = (v - 1) & v
        while s:
            below.append(s)
            s = (s - 1) & v
        full = (1 << self.n) - 1
        above = []
        rest = full & ~v
        t = (rest - 1) & rest  # skip t == rest, whose union with v is the full set
        while t:
            above.append(v | t)
            t = (t - 1) & rest
        return sorted(below, key=_mask_sort_key) + sorted(above, key=_mask_sort_key)

    def degree(self, v: int) -> int:
        if not self.has_vertex(v):
            raise UnknownVertexError(str(v))
        if self.mode == "generic":
            return len(self.neighbors(v))
        k = v.bit_count()
        n = self.n
        # Count explicitly while cheap; the closed form covers huge layers.
        if (1 << k) + (1 << (n - k)) <= (1 << 24):
            count = 0
            s = (v - 1) & v
            while s:
                count += 1
                s = (s - 1) & v
            full = (1 << n) - 1
            rest = full & ~v
            t = (rest - 1) & rest
            while t:
                count += 1
                t = (t - 1) & rest
            return count
        return ((1 << k) - 2) + ((1 << (n - k)) - 2)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in self.vertices()) // 2

    def check_cap(self) -> None:
        """Raise TooLargeError when the graph has more vertices than the
        vertex cap (see ``vertex_cap``) lets a command materialize."""
        check_vertex_count(self.vertex_count)

    def dense(self) -> DenseGraph:
        """Materialize adjacency bitsets once; refuses above the vertex cap."""
        self.check_cap()
        if self._dense is None:
            masks = tuple(self.vertices())
            codes = masks if self.family is None else self.family.codes
            self._dense = DenseGraph(containment_adjacency(codes), masks)
        return self._dense


def build_from_family(family: IdealFamily) -> InclusionGraph:
    """One vertex per nontrivial left ideal, edges by containment of J-codes."""
    if family.truncated:
        raise TruncatedFamilyError("family was truncated; graph would be incomplete")
    return InclusionGraph("generic", family=family)


def build_from_table(t: CayleyTable) -> InclusionGraph:
    """The graph of all nontrivial left ideals of ``t``.

    Refuses before the walk when J has a layer of w members of one size
    with 2^w - 2 past the ideal cap: their nonempty subsets generate 2^w - 1
    distinct left ideals (see ``JoinIrreducibles.widest_layer``), all but
    perhaps S nontrivial, so the walk would stop at the cap.
    """
    from .semigroup import DEFAULT_IDEAL_CAP, enumerate_left_ideals, join_irreducibles
    w = join_irreducibles(t).widest_layer
    if (1 << w) - 2 > DEFAULT_IDEAL_CAP:
        raise TruncatedFamilyError(
            f"{w} principal left ideals of one size give at least 2^{w} - 2 left "
            f"ideals, past the ideal cap of {DEFAULT_IDEAL_CAP}")
    return build_from_family(enumerate_left_ideals(t))


def build_boolean(n: int) -> InclusionGraph:
    """Containment graph on the nonempty proper subsets of an n-element set."""
    if not 2 <= n <= MAX_BOOLEAN_N:
        raise OutOfRangeError(f"n must be in [2, {MAX_BOOLEAN_N}], got {n}")
    return InclusionGraph("boolean", n=n)


def _vertex_name(mask: int, boolean_n: int | None) -> str:
    bits = [b for b in range(mask.bit_length()) if (mask >> b) & 1]
    if boolean_n is not None:
        labels = [str(b + 1) for b in bits]
        sep = "" if boolean_n <= 9 else "_"
    else:
        labels = [str(b) for b in bits]
        sep = "_"
    return "I_" + sep.join(labels)


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _adjacency_rows(adj: list[int], tails: list[str]):
    """(i, the tails of i's upper neighbours in index order) for each row i
    of ``adj`` with one, last row first.

    No object is made per edge: a row's upper neighbours become 0/1 selector
    bytes, and ``compress`` picks their tails.
    """
    for i in range(len(adj) - 1, -1, -1):
        up = adj[i] >> (i + 1)
        if up:
            yield i, compress(tails[i + 1:], bin(up)[:1:-1].encode().translate(_BITS))


def boolean_upper_rows(n: int, masks: tuple[int, ...]):
    """(i, the masks of vertex i's upper neighbours in index order) for each
    vertex of the Boolean model on [n] with one, last vertex first; ``masks``
    are the vertices in index order.

    The upper neighbours of u with complement c, |c| = k >= 2, are u | t for
    the nonempty proper subsets t of c. As u | t and u | t' compare as t and
    t' do, their index order is the (popcount, mask) order of the k-bit
    patterns of t in c: one ``itemgetter`` per k over the Boolean k-vertex
    order picks it from D_c, the list of u | t over every t inside c in
    pattern order. With h the highest bit of c, c ^ h is the complement of
    u | h, and D_c doubles that vertex's list: D_(c^h) with h cleared (the
    patterns without h), then D_(c^h) itself. Walked last to first, the rows
    come in layers of growing |c|, and only the lists of the previous layer
    that a list of the next doubles are kept: those of c without element n.
    """
    full = (1 << n) - 1
    top = 1 << (n - 1)
    picks = {k: itemgetter(*build_boolean(k).vertices()) for k in range(2, n)}
    prev, layer, size = {}, {0: [full]}, 0
    for i in range(len(masks) - 1, -1, -1):
        c = full ^ masks[i]
        k = c.bit_count()
        if k != size:
            prev, layer, size = layer, {}, k
        h = 1 << (c.bit_length() - 1)
        parent = prev[c ^ h]
        d = [x ^ h for x in parent] + parent
        if c < top:
            layer[c] = d
        if k > 1:
            yield i, picks[k](d)


def _rows(g: InclusionGraph, masks: tuple[int, ...], tails: list[str]):
    """The edge rows of ``g`` for ``_edge_parts``, with ``tails`` by vertex
    index: read off the masks in Boolean mode, off the adjacency in generic
    mode."""
    if g.mode == "generic":
        return _adjacency_rows(g.dense().adj, tails)
    by_mask = [""] * (1 << g.n)
    for m, t in zip(masks, tails):
        by_mask[m] = t
    # each row has at least two upper neighbours, so itemgetter gives a tuple
    return ((i, itemgetter(*up)(by_mask)) for i, up in boolean_upper_rows(g.n, masks))


def _edge_parts(rows, heads: list[str], sep: str) -> list[str]:
    """Every edge i < j written as ``heads[i] + tails[j] + sep``, in (i, j)
    order, as pieces whose concatenation is the text: three per row with an
    edge (head, the row's remaining edges, sep). ``rows`` gives each such
    row, last first, as i and the tails of its upper neighbours in index
    order; one join per row writes them, and the pieces, gathered back to
    front, are reversed once.
    """
    parts = []
    for i, tails in rows:
        head = heads[i]
        parts += (sep, (sep + head).join(tails), head)
    parts.reverse()
    return parts


def export_graph(g: InclusionGraph, fmt: str = "json") -> str:
    """Deterministic JSON or DOT rendering of the graph.

    The JSON text is exactly ``json.dumps(doc, indent=2) + "\\n"`` of the
    document {mode, n, vertices: [{id, mask, size}], edges: [[u, v]]}, written
    directly: with ``indent`` set, ``json.dumps`` falls back to its
    pure-Python encoder, which dominates the export of large graphs. In both
    formats the edges are written row by row (see ``_edge_parts``), each
    vertex's index or name formatted once, and the text is one join of the
    header, vertex and edge pieces. A Boolean graph's rows come from its
    masks (``boolean_upper_rows``), with no adjacency; a generic graph's from
    its dense adjacency. Both refuse graphs above the vertex cap.
    """
    g.check_cap()
    masks = tuple(g.vertices())
    if fmt == "json":
        parts = ['{\n  "mode": "%s",\n  "n": %s,\n  "vertices": ['
                 % (g.mode, "null" if g.n is None else g.n)]
        parts += ['\n    {\n      "id": %d,\n      "mask": %d,\n      "size": %d\n    },'
                  % (i, m, m.bit_count()) for i, m in enumerate(masks)]
        if masks:
            parts[-1] = parts[-1][:-1]  # no comma after the last vertex
            parts.append("\n  ]")
        else:
            parts.append("]")
        idx = range(len(masks))
        edges = _edge_parts(_rows(g, masks, ["%d\n    ]" % j for j in idx]),
                            ["    [\n      %d,\n      " % i for i in idx], ",\n")
        if edges:
            edges[-1] = "\n  ]"  # the last edge's separator closes the list
            parts.append(',\n  "edges": [\n')
            parts += edges
            parts.append("\n}\n")
        else:
            parts.append(',\n  "edges": []\n}\n')
        return "".join(parts)
    if fmt == "dot":
        names = [_vertex_name(m, g.n) for m in masks]
        parts = ["graph In {\n", *[f"  {name};\n" for name in names]]
        parts += _edge_parts(_rows(g, masks, [f"{name};" for name in names]),
                             [f"  {name} -- " for name in names], "\n")
        parts.append("}\n")
        return "".join(parts)
    raise ValueError(f"unknown format {fmt!r}")
