"""Automorphisms of inclusion graphs.

For the Boolean model the full group is generated by bit relabelings and
set complementation; this module builds those maps explicitly, computes the
automorphism group of an inclusion graph exactly, and decides vertex and
edge transitivity from the computed orbits.

A table's graph (and Boolean n = 2) goes through a search: a stabilizer
chain whose levels individualise the fixed vertices and refine the
colouring, with an explicit-stack bitset search for each witness map; the
order is the product of the coset counts. It and the transitivity count
read only adjacency bitsets (``_stabilizer_chain``, ``_transitivity``).

The Boolean model from n = 3 on takes no search and builds no adjacency
(``_boolean_group``). Its group is certified from the masks, each step
checked with a raise: the vertices of largest degree are exactly M, the
singletons and co-singletons, so every automorphism permutes M; each vertex
has its own set of neighbours in M, so an automorphism is fixed by its
action on M and |Aut(G)| <= |Aut(G[M])|; ``_stabilizer_chain`` on the 2n
vertices of that crown graph gives 2·n!, which a transposition, an n-cycle
and the complement already generate. Transitivity reads the vertex orbits
off those three maps and the edge classes off the layer sizes
(``_boolean_transitivity``).
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .errors import NotAPermutationError, TooLargeError
from .graph import InclusionGraph, bits, build_boolean

DEFAULT_AUT_CAP = 1 << 12


class GraphAutomorphism(NamedTuple):
    """A vertex permutation preserving adjacency.

    ``images[i]`` is the index of the image of vertex i in the graph's
    canonical (popcount, mask) vertex order. In Boolean mode, when the map
    is induced by a relabeling ``base_perm`` of the n ground elements
    (optionally composed with complementation), that decomposition is
    recorded.
    """

    images: tuple[int, ...]
    base_perm: tuple[int, ...] | None = None
    complemented: bool | None = None

    def mask_pairs(self, masks) -> list[tuple[int, int]]:
        return [(masks[i], masks[self.images[i]]) for i in range(len(self.images))]


class AutGroupReport(NamedTuple):
    order: int
    generators: tuple[GraphAutomorphism, ...]
    structure: str  # "trivial", "S<n> x Z2" (Boolean n >= 3), or "other"
    vertex_masks: tuple[int, ...] | None = None


def compose(a: GraphAutomorphism, b: GraphAutomorphism) -> GraphAutomorphism:
    """a after b, as raw vertex maps (decomposition not propagated)."""
    return GraphAutomorphism(images=tuple(a.images[j] for j in b.images))


def _check_perm(n: int, perm) -> tuple[int, ...]:
    p = tuple(perm)
    if sorted(p) != list(range(n)):
        raise NotAPermutationError(f"{perm!r} is not a permutation of range({n})")
    return p


def _apply_bits(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    m = mask
    while m:
        b = m & -m
        out |= 1 << perm[b.bit_length() - 1]
        m ^= b
    return out


def _boolean_index(n: int):
    """The Boolean vertices on n points in index order, and each one's index."""
    masks = tuple(build_boolean(n).vertices())
    return masks, {m: i for i, m in enumerate(masks)}


def relabel_automorphism(n: int, perm) -> GraphAutomorphism:
    """The vertex map induced by permuting the n ground elements.

    Bit permutations are containment-preserving bijections, hence graph
    automorphisms.
    """
    return _relabel(_check_perm(n, perm), *_boolean_index(n))


def _relabel(p: tuple[int, ...], masks, index) -> GraphAutomorphism:
    images = tuple(index[_apply_bits(p, m)] for m in masks)
    return GraphAutomorphism(images=images, base_perm=p, complemented=False)


def complement_automorphism(n: int) -> GraphAutomorphism:
    """The vertex map sending each subset to its complement; an involution
    that reverses containment, hence preserves adjacency."""
    return _complement(n, *_boolean_index(n))


def _complement(n: int, masks, index) -> GraphAutomorphism:
    full = (1 << n) - 1
    images = tuple(index[full & ~m] for m in masks)
    return GraphAutomorphism(images=images, base_perm=tuple(range(n)),
                             complemented=True)


def decompose_boolean(n: int, images: tuple[int, ...],
                      masks: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """Recover (element permutation, complemented) from a vertex map.

    Reads the permutation off the images of the singletons; complemented
    when singletons map to (n-1)-subsets. Verifies the reconstruction on
    every vertex and raises ValueError when neither pattern holds.
    """
    return _decompose(n, images, masks, {m: i for i, m in enumerate(masks)})


def _decompose(n: int, images: tuple[int, ...], masks,
               index) -> tuple[tuple[int, ...], bool]:
    single_imgs = [masks[images[index[1 << i]]] for i in range(n)]
    full = (1 << n) - 1
    if all(m.bit_count() == 1 for m in single_imgs):
        sigma = tuple(m.bit_length() - 1 for m in single_imgs)
        complemented = False
    elif all(m.bit_count() == n - 1 for m in single_imgs):
        sigma = tuple((full & ~m).bit_length() - 1 for m in single_imgs)
        complemented = True
    else:
        raise ValueError("singleton images are neither all singletons nor all co-singletons")
    if sorted(sigma) != list(range(n)):
        raise ValueError("recovered element map is not a permutation")
    for i, m in enumerate(masks):
        want = _apply_bits(sigma, m)
        if complemented:
            want = full & ~want
        if masks[images[i]] != want:
            raise ValueError(f"vertex {m:#x} breaks the decomposition")
    return sigma, complemented


def _refine_colors(nbrs: list[list[int]], color: list[int] | None = None) -> list[int]:
    """The coarsest equitable colouring finer than ``color`` (the degrees by
    default) of the graph with neighbour lists ``nbrs``, with colours named
    in order of first appearance."""
    n = len(nbrs)
    if color is None:
        color = [len(nb) for nb in nbrs]
    classes = len(set(color))
    while True:
        sig = [(color[i], tuple(sorted([color[j] for j in nbrs[i]])))
               for i in range(n)]
        remap: dict = {}
        new = []
        for s in sig:
            if s not in remap:
                remap[s] = len(remap)
            new.append(remap[s])
        # Each new class lies inside an old one, so equal counts mean the
        # partition is stable.
        if len(remap) == classes:
            return new
        color, classes = new, len(remap)


def _find_extension(adj: list[int], later: list[list[int]], cell_of: list[int],
                    v: int, w: int) -> tuple[int, ...] | None:
    """The lexicographically first automorphism that fixes 0..v-1 and maps
    v to w, or None.

    Vertices v, v+1, ... are mapped in order by an explicit-stack search,
    each trying the images in its cell lowest first. ``img_nb[x]`` holds the
    images of x's mapped neighbours, so y is a consistent image of x iff
    ``adj[y] & used == img_nb[x]``, and y must be adjacent to the lowest of
    those images.
    """
    n = len(adj)
    fixed = (1 << v) - 1
    perm = list(range(v)) + [-1] * (n - v)
    img_nb = [a & fixed for a in adj]
    cand = [0] * n
    cand[v] = 1 << w
    used = fixed
    x = v
    while True:
        c = cand[x]
        want = img_nb[x]
        while c:
            b = c & -c
            c ^= b
            y = b.bit_length() - 1
            if adj[y] & used == want:
                break
        else:
            # No image left for x: undo the assignment of x - 1.
            x -= 1
            if x < v:
                return None
            b = 1 << perm[x]
            used ^= b
            for z in later[x]:
                img_nb[z] ^= b
            continue
        cand[x] = c
        perm[x] = y
        used |= b
        for z in later[x]:
            img_nb[z] |= b
        x += 1
        if x == n:
            return tuple(perm)
        want = img_nb[x]
        c = cell_of[x] & ~used
        if want:
            c &= adj[(want & -want).bit_length() - 1]
        cand[x] = c


def automorphism_group(g: InclusionGraph, cap: int = DEFAULT_AUT_CAP) -> AutGroupReport:
    """Exact automorphism group of an inclusion graph: generators and order.
    The Boolean model from n = 3 on takes the crown certificate
    (``_boolean_group``); any other graph the search (``_stabilizer_chain``),
    where a Boolean generator records its decomposition into a relabeling and
    a complement flag."""
    n = g.vertex_count
    if n > cap:
        raise TooLargeError(f"{n} vertices exceed the automorphism cap {cap}")
    boolean_n = g.n
    if boolean_n is not None and boolean_n >= 3:
        return _boolean_group(g)
    dense = g.dense()
    order, perms = _stabilizer_chain(dense.adj)
    gens = tuple(_decorate(perm, boolean_n, dense.masks) for perm in perms)
    return AutGroupReport(order=order, generators=gens,
                          structure="trivial" if order == 1 else "other",
                          vertex_masks=dense.masks)


def _neighbours_in(u: int, crown) -> int:
    """The bitset of the positions in ``crown`` of the masks comparable to
    ``u``: distinct from it, one inside the other."""
    sig = 0
    for t, m in enumerate(crown):
        c = u & m
        if u != m and (c == u or c == m):
            sig |= 1 << t
    return sig


def _boolean_group(g: InclusionGraph) -> AutGroupReport:
    """The automorphism group of the Boolean graph g (n >= 3), certified from
    its masks with no adjacency over V and no search there; each failed step
    raises RuntimeError.

    - A vertex of size k has 2^k - 2 neighbours below and 2^(n-k) - 2 above,
      a degree checked to be largest exactly on M, the n singletons and n
      co-singletons. So every automorphism permutes M.
    - No two vertices have the same neighbours in M (one set of signatures
      over V). An automorphism that fixes M pointwise keeps each vertex's
      neighbours in M, so it fixes every vertex: restriction to M embeds
      Aut(G) in Aut(G[M]).
    - G[M] is the crown graph, K_{n,n} less a perfect matching:
      ``_stabilizer_chain`` on its 2n vertices must give 2·n!.
    - The relabelings by the transposition of elements 0 and 1 and by the
      n-cycle i -> i + 1 (mod n) generate S_n, and the complement commutes
      with them and is none of them, so these three, each checked vertex by
      vertex through ``decompose_boolean``, generate a group of order 2·n!:
      the bound is reached.
    """
    g.check_cap()
    n = g.n
    full = (1 << n) - 1
    masks = tuple(g.vertices())
    degree = {k: (1 << k) - 2 + (1 << (n - k)) - 2 for k in range(1, n)}
    top = max(degree.values())
    crown = [m for m, k in zip(masks, map(int.bit_count, masks)) if degree[k] == top]
    if crown != [1 << i for i in range(n)] + [full ^ 1 << i for i in range(n - 1, -1, -1)]:
        raise RuntimeError(f"automorphism certificate failed: the {len(crown)} vertices "
                           f"of degree {top} are not the singletons and co-singletons")
    if len({_neighbours_in(u, crown) for u in masks}) != len(masks):
        raise RuntimeError("automorphism certificate failed: two vertices have the same "
                           "neighbours among the singletons and co-singletons")
    order, _ = _stabilizer_chain([_neighbours_in(u, crown) for u in crown])
    if order != 2 * factorial(n):
        raise RuntimeError(f"automorphism certificate failed: the crown graph on "
                           f"{2 * n} vertices has {order} automorphisms, not 2·{n}!")
    index = {m: i for i, m in enumerate(masks)}
    gens = (_relabel((1, 0, *range(2, n)), masks, index),
            _relabel((*range(1, n), 0), masks, index),
            _complement(n, masks, index))
    for a in gens:
        try:
            got = _decompose(n, a.images, masks, index)
        except ValueError as e:
            raise RuntimeError(f"automorphism certificate failed: {e}") from None
        if got != (a.base_perm, a.complemented):
            raise RuntimeError(f"automorphism certificate failed: a generator decomposes "
                               f"as {got}, not {(a.base_perm, a.complemented)}")
    return AutGroupReport(order=order, generators=gens, structure=f"S{n} x Z2",
                          vertex_masks=masks)


def _stabilizer_chain(adj: list[int]) -> tuple[int, list[tuple[int, ...]]]:
    """(group order, generating vertex maps) of the graph on ``adj``.

    Stabilizer chain over the vertex order. At level v the fixed vertices
    0..v-1 are individualised and the colouring refined; the stabilizer of
    0..v-1 maps v only into v's cell, and each w of that cell that some
    automorphism reaches contributes the lexicographically first such map
    as a witness. The group order is the product of the orbit sizes, and
    the witnesses form a strong generating set. Once the colouring is
    discrete the stabilizer is trivial and the search stops.
    """
    n = len(adj)
    nbrs = [bits(a) for a in adj]
    later = [[z for z in nb if z > x] for x, nb in enumerate(nbrs)]
    color = _refine_colors(nbrs)
    order = 1
    perms: list[tuple[int, ...]] = []
    for v in range(n):
        cells: dict[int, int] = {}
        for i, c in enumerate(color):
            cells[c] = cells.get(c, 0) | 1 << i
        if len(cells) == n:
            break
        cell_of = [cells[c] for c in color]
        orbit = 1  # the identity maps v to itself
        for w in bits(cell_of[v] & ~(1 << v)):
            perm = _find_extension(adj, later, cell_of, v, w)
            if perm is not None:
                orbit += 1
                perms.append(perm)
        order *= orbit
        color = color[:]
        color[v] = len(cells)
        color = _refine_colors(nbrs, color)
    return order, perms


def _decorate(perm: tuple[int, ...], boolean_n: int | None,
              masks: tuple[int, ...]) -> GraphAutomorphism:
    if boolean_n is None:
        return GraphAutomorphism(images=perm)
    try:
        sigma, complemented = decompose_boolean(boolean_n, perm, masks)
    except ValueError:
        return GraphAutomorphism(images=perm)
    return GraphAutomorphism(images=perm, base_perm=sigma, complemented=complemented)


def _orbits(n_points: int, maps: list[tuple[int, ...]]) -> list[int]:
    parent = list(range(n_points))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in maps:
        for i in range(n_points):
            a, b = find(i), find(m[i])
            if a != b:
                parent[a] = b
    return [find(i) for i in range(n_points)]


def transitivity(g: InclusionGraph, report: AutGroupReport) -> tuple[bool, bool]:
    """(vertex transitive, edge transitive) of the inclusion graph g, whose
    full automorphism group ``report`` holds: from the masks for Boolean
    n >= 3 (``_boolean_transitivity``), else ``_transitivity``."""
    maps = [a.images for a in report.generators]
    if g.n is not None and g.n >= 3:
        return _boolean_transitivity(g.n, report.vertex_masks, maps)
    return _transitivity(g.dense().adj, maps)


def _boolean_transitivity(n: int, masks: tuple[int, ...],
                          maps: list[tuple[int, ...]]) -> tuple[bool, bool]:
    """(vertex transitive, edge transitive) of the Boolean graph on ``masks``
    under the group the vertex maps ``maps`` generate, with no edge list.

    One union-find over the vertices gives the orbits, each layer (the sets
    of one size) checked to lie in one. Any two layers a < b are joined by
    edges, so the edges fall into the classes {orbit of layer a, orbit of
    layer b}, and each edge orbit lies in one class. Two classes, as at every
    n >= 4 (layers 1 and n - 1 share an orbit, layer 2 lies in another),
    rule out edge transitivity; one class (n = 3, where every vertex is in
    M) leaves it to ``_transitivity`` on the subset predicate's adjacency.
    """
    orbit_of: dict[int, int] = {}
    for m, r in zip(masks, _orbits(len(masks), maps)):
        if orbit_of.setdefault(m.bit_count(), r) != r:
            raise RuntimeError(f"transitivity certificate failed: layer {m.bit_count()} "
                               "meets two vertex orbits")
    classes = {frozenset((orbit_of[a], orbit_of[b]))
               for a in range(1, n) for b in range(a + 1, n)}
    if len(classes) > 1:
        return len(set(orbit_of.values())) == 1, False
    return _transitivity([_neighbours_in(u, masks) for u in masks], maps)


def _transitivity(adj: list[int], maps: list[tuple[int, ...]]) -> tuple[bool, bool]:
    """(vertex transitive, edge transitive) of the graph on ``adj`` under
    the group the vertex maps ``maps`` generate.

    Each edge orbit lies inside one class of the edges grouped by the
    unordered pair of vertex orbits at their ends, so two such classes
    already rule out edge transitivity; only a single class needs the
    union-find over the edges.
    """
    vertex_orbits = _orbits(len(adj), maps)
    members: dict[int, int] = {}
    for i, r in enumerate(vertex_orbits):
        members[r] = members.get(r, 0) | 1 << i
    vertex_transitive = len(members) <= 1
    orbit_masks = list(members.values())
    classes = 0
    for k, mask in enumerate(orbit_masks):
        reach = 0
        for i in bits(mask):
            reach |= adj[i]
        classes += sum(1 for other in orbit_masks[k:] if reach & other)
    if classes != 1:
        return vertex_transitive, classes == 0
    edges = [(u, v) for u, a in enumerate(adj) for v in bits(a >> (u + 1) << (u + 1))]
    eidx = {e: i for i, e in enumerate(edges)}
    edge_maps = []
    for m in maps:
        em = []
        for u, v in edges:
            a, b = m[u], m[v]
            em.append(eidx[(min(a, b), max(a, b))])
        edge_maps.append(tuple(em))
    edge_orbits = _orbits(len(edges), edge_maps)
    edge_transitive = len(set(edge_orbits)) <= 1
    return vertex_transitive, edge_transitive
