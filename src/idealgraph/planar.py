"""Planar embeddings by path addition, and the check of their rotations.

``embedding`` splits a graph into its blocks (Hopcroft & Tarjan 1973, on an
explicit stack) and embeds each block by path addition (Demoucron,
Malgrange & Pertuiset 1964). Starting from one edge, it draws a path of a
fragment into a face that holds all of the fragment's attachments, taking a
fragment with only one such face first; a fragment with none proves the
block nonplanar. The faces of each block give its rotations, and the
rotations at a cut vertex are concatenated.

``check_rotation`` reads only the adjacency and the rotation: each rotation
must be a permutation of the vertex's neighbours, and the faces traced from
every dart must give V - E + F = 2 on each component with an edge (Euler).

``kuratowski_edges`` deletes edges one at a time, keeping each deletion that
leaves the graph nonplanar. What remains is edge-minimal nonplanar: a
subdivision of K5 or K3,3 (Kuratowski 1930).

Each search is quadratic in the size of a block, and the extraction runs it
once per edge. That is enough for the graphs ``invariants.planarity`` hands
over from a table or ``--n`` (at most 30 vertices; Boolean n=5, the worst
case, takes milliseconds), but slow on large planar graphs: about 0.7 s for
a 32 x 32 grid on a 2-vCPU machine under Python 3.11.
"""

from __future__ import annotations

from .graph import bits


def embedding(adj: list[int]) -> list[list[int]] | None:
    """The neighbours of each vertex in the cyclic order of a planar
    embedding, or None when the graph is nonplanar."""
    rotation: list[list[int]] = [[] for _ in adj]
    for block in _blocks(adj):
        faces = _embed_block(block)
        if faces is None:
            return None
        succ: dict[int, dict[int, int]] = {}
        for face in faces:
            for i, v in enumerate(face):
                succ.setdefault(v, {})[face[i - 1]] = face[(i + 1) % len(face)]
        for v, nxt in succ.items():
            w = first = next(iter(nxt))
            while True:
                rotation[v].append(w)
                w = nxt[w]
                if w == first:
                    break
    return rotation


def check_rotation(adj: list[int], rotation: list[list[int]]) -> None:
    """Raise RuntimeError unless ``rotation`` is a planar rotation system of
    the graph: a permutation of each vertex's neighbours whose faces satisfy
    Euler's formula on every component that has an edge."""
    succ = []
    for v, rot in enumerate(rotation):
        if sorted(rot) != bits(adj[v]):
            raise RuntimeError(f"planarity certificate check failed: the rotation "
                               f"at vertex {v} is not a permutation of its neighbours")
        succ.append({w: rot[(i + 1) % len(rot)] for i, w in enumerate(rot)})
    comp = [-1] * len(adj)
    euler = []  # V - E, then + F, per component with an edge
    for s, ns in enumerate(adj):
        if comp[s] >= 0 or not ns:
            continue
        seen = frontier = 1 << s
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & ~seen
            seen |= frontier
        vs = bits(seen)
        for v in vs:
            comp[v] = len(euler)
        euler.append(len(vs) - sum(adj[v].bit_count() for v in vs) // 2)
    traced = set()
    for v, rot in enumerate(rotation):
        for w in rot:
            if (v, w) in traced:
                continue
            euler[comp[v]] += 1
            a, b = v, w
            while (a, b) not in traced:
                traced.add((a, b))
                a, b = b, succ[b][a]
    for c, chi in enumerate(euler):
        if chi != 2:
            raise RuntimeError(f"planarity certificate check failed: V - E + F = {chi} "
                               f"on the component of vertex {comp.index(c)}")


def kuratowski_edges(adj: list[int]) -> tuple:
    """The edges (u, v), u < v, of a Kuratowski subgraph of a nonplanar
    graph."""
    adj = list(adj)
    edges = [(u, v) for u, nu in enumerate(adj) for v in bits(nu) if u < v]
    for u, v in edges:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if embedding(adj) is not None:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple((u, v) for u, v in edges if adj[u] >> v & 1)


def _blocks(adj: list[int]) -> list[list[tuple[int, int]]]:
    """The edges of each block (biconnected component or bridge)."""
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    blocks = []
    for root, nr in enumerate(adj):
        if disc[root] >= 0 or not nr:
            continue
        disc[root] = low[root] = clock = 0
        edges: list[tuple[int, int]] = []
        stack = [[root, -1, nr]]  # vertex, parent, neighbours still to scan
        while stack:
            top = stack[-1]
            v, parent, rest = top
            if rest:
                top[2] = rest & (rest - 1)
                w = (rest & -rest).bit_length() - 1
                if disc[w] < 0:
                    clock += 1
                    disc[w] = low[w] = clock
                    edges.append((v, w))
                    stack.append([w, v, adj[w]])
                elif w != parent and disc[w] < disc[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
                continue
            stack.pop()
            if parent >= 0:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    i = edges.index((parent, v))
                    blocks.append(edges[i:])
                    del edges[i:]
    return blocks


def _embed_block(block: list[tuple[int, int]]) -> list[list[int]] | None:
    """The faces of a planar embedding of a block, each as its cyclic
    sequence of vertices, or None when the block is nonplanar."""
    nbrs: dict[int, set[int]] = {}
    for u, v in block:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    if len(nbrs) > 2 and len(block) > 3 * len(nbrs) - 6:
        return None  # E <= 3V - 6 on a simple planar graph; halves the extraction
    # A fragment is an unplaced edge between embedded vertices, which is its
    # own path, or a component of unembedded vertices (its body) with the
    # edges that attach it.
    u, v = block[0]
    faces = [[u, v]]
    inside = {u, v}
    placed = {(min(u, v), max(u, v))}
    while True:
        fragments = [({a, b}, (a, b)) for a in inside for b in nbrs[a]
                     if a < b and b in inside and (a, b) not in placed]
        seen: set[int] = set()
        for s in nbrs:
            if s in inside or s in seen:
                continue
            body, todo, att = {s}, [s], set()
            while todo:
                for y in nbrs[todo.pop()]:
                    if y in inside:
                        att.add(y)
                    elif y not in body:
                        body.add(y)
                        todo.append(y)
            seen |= body
            fragments.append((att, body))
        if not fragments:
            return faces
        best = None
        for att, body in fragments:
            ok = [i for i, face in enumerate(faces) if att <= set(face)]
            if not ok:
                return None
            if best is None or len(ok) < len(best[0]):
                best = ok, att, body
        ok, att, body = best
        path = body if isinstance(body, tuple) else _path(nbrs, inside, body, min(att))
        face = faces[ok[0]]
        i = face.index(path[0])
        face = face[i:] + face[:i]
        k = face.index(path[-1])
        faces[ok[0]] = face[:k + 1] + list(path[-2:0:-1])
        faces.append(face[k:] + list(path[:-1]))
        inside.update(path)
        placed.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))


def _path(nbrs: dict[int, set[int]], inside: set[int], body: set[int], a: int) -> tuple:
    """A path from the attachment a through the fragment's body to another
    of its attachments (one exists, as the block is biconnected)."""
    parent = {a: a}
    queue = [a]
    for x in queue:
        for y in nbrs[x]:
            if y in body and y not in parent:
                parent[y] = x
                queue.append(y)
            elif x != a and y in inside and y != a:
                path = [y, x]
                while x != a:
                    x = parent[x]
                    path.append(x)
                return tuple(reversed(path))
    raise RuntimeError("path addition found a fragment with one attachment")
