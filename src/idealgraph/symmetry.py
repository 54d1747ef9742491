"""Automorphisms of inclusion graphs.

For the Boolean model the full group is generated by bit relabelings and
set complementation; this module builds those maps explicitly, computes the
automorphism group of arbitrary graphs exactly (backtracking over a
color-refinement invariant, order from the stabilizer-chain coset counts),
and decides vertex and edge transitivity from the computed orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import NotAPermutationError, TooLargeError
from .graph import DenseGraph, InclusionGraph, bits, build_boolean

DEFAULT_AUT_CAP = 1 << 12


@dataclass(frozen=True)
class GraphAutomorphism:
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


@dataclass(frozen=True)
class AutGroupReport:
    order: int
    generators: tuple[GraphAutomorphism, ...]
    structure: str  # "trivial", "S<n> x Z2", or "other"
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
    masks = tuple(build_boolean(n).vertices())
    return masks, {m: i for i, m in enumerate(masks)}


def relabel_automorphism(n: int, perm) -> GraphAutomorphism:
    """The vertex map induced by permuting the n ground elements.

    Bit permutations are containment-preserving bijections, hence graph
    automorphisms.
    """
    p = _check_perm(n, perm)
    masks, index = _boolean_index(n)
    images = tuple(index[_apply_bits(p, m)] for m in masks)
    return GraphAutomorphism(images=images, base_perm=p, complemented=False)


def complement_automorphism(n: int) -> GraphAutomorphism:
    """The vertex map sending each subset to its complement; an involution
    that reverses containment, hence preserves adjacency."""
    masks, index = _boolean_index(n)
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
    index = {m: i for i, m in enumerate(masks)}
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


def _refine_colors(dense: DenseGraph) -> list[int]:
    n = dense.size
    color = [dense.degree(i) for i in range(n)]
    while True:
        sig = [(color[i], tuple(sorted(color[j] for j in bits(dense.adj[i]))))
               for i in range(n)]
        remap: dict = {}
        new = []
        for s in sig:
            if s not in remap:
                remap[s] = len(remap)
            new.append(remap[s])
        if new == color:
            return color
        color = new


def _find_extension(dense: DenseGraph, color: list[int],
                    prefix: dict[int, int]) -> tuple[int, ...] | None:
    """Complete a partial vertex map to a full automorphism, or None."""
    n = dense.size
    adj = dense.adj
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

    def consistent(v: int, w: int) -> bool:
        if color[v] != color[w]:
            return False
        for x in range(n):
            y = perm[x]
            if y >= 0 and ((adj[v] >> x) & 1) != ((adj[w] >> y) & 1):
                return False
        return True

    def rec(v: int) -> bool:
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


def automorphism_group(g, cap: int = DEFAULT_AUT_CAP) -> AutGroupReport:
    """Exact automorphism group: generators and order.

    Stabilizer chain over the canonical vertex order: at each level the
    valid images of the next vertex under the current stabilizer are found
    by backtracking completion, one witness map per non-trivial image. The
    group order is the product of the orbit sizes, and the witnesses form a
    strong generating set.
    """
    n = g.vertex_count if isinstance(g, InclusionGraph) else g.size
    if n > cap:
        raise TooLargeError(f"{n} vertices exceed the automorphism cap {cap}")
    dense = g.dense() if isinstance(g, InclusionGraph) else g
    boolean_n = g.n if isinstance(g, InclusionGraph) else None
    if n == 0:
        return AutGroupReport(order=1, generators=(), structure="trivial",
                              vertex_masks=dense.masks)
    color = _refine_colors(dense)
    order = 1
    gens: list[GraphAutomorphism] = []
    fixed: dict[int, int] = {}
    for v in range(n):
        orbit = 0
        for w in range(n):
            if color[w] != color[v]:
                continue
            prefix = dict(fixed)
            prefix[v] = w
            perm = _find_extension(dense, color, prefix)
            if perm is not None:
                orbit += 1
                if w != v:
                    gens.append(_decorate(perm, boolean_n, dense.masks))
        order *= orbit
        fixed[v] = v
    structure = "trivial" if order == 1 else "other"
    if boolean_n is not None and order == 2 * factorial(boolean_n):
        if all(a.base_perm is not None for a in gens):
            structure = f"S{boolean_n} x Z2"
    return AutGroupReport(order=order, generators=tuple(gens),
                          structure=structure, vertex_masks=dense.masks)


def _decorate(perm: tuple[int, ...], boolean_n: int | None,
              masks) -> GraphAutomorphism:
    if boolean_n is None or masks is None:
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


def transitivity(g, report: AutGroupReport) -> tuple[bool, bool]:
    """(vertex transitive, edge transitive) of g, whose full automorphism
    group ``report`` holds."""
    dense = g.dense() if isinstance(g, InclusionGraph) else g
    n = dense.size
    maps = [a.images for a in report.generators]
    vertex_orbits = _orbits(n, maps)
    vertex_transitive = len(set(vertex_orbits)) <= 1
    edges = dense.edge_list()
    if not edges:
        return vertex_transitive, True
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
