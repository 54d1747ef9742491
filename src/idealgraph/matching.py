"""Maximum cardinality matching in general graphs.

Classic O(V^3) odd-cycle-contraction algorithm: alternating-forest BFS with
blossom shrinking via a ``base`` array, where each contraction visits only
the members of the blossoms it absorbs. Handles disconnected graphs and
isolated vertices. Adjacency is a list of bitsets (bit w of ``adj[v]`` set when
v and w are adjacent), scanned lowest bit first, so equal inputs give
identical matchings.
"""

from __future__ import annotations

from collections import deque


def maximum_matching_adj(n: int, adj: list[int]) -> list[int]:
    """Return ``mate`` with mate[v] = matched partner of v, or -1."""
    mate = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n

    # members[b]: bitset of the vertices whose base is b, for the bases of
    # contracted blossoms (any other vertex is its own base).
    members: dict[int, int] = {}

    def lca(a: int, b: int) -> int:
        seen = set()
        x = a
        while True:
            x = base[x]
            seen.add(x)
            if mate[x] == -1:
                break
            x = parent[mate[x]]
        y = b
        while True:
            y = base[y]
            if y in seen:
                return y
            y = parent[mate[y]]

    def mark_path(v: int, b: int, child: int, marked: set[int]) -> None:
        while base[v] != b:
            marked.add(base[v])
            marked.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting_path(root: int) -> int:
        nonlocal parent, base, in_queue
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        members.clear()
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
                    # Odd cycle: contract the blossom at the common ancestor.
                    cur = lca(v, to)
                    marked: set[int] = set()
                    mark_path(v, cur, to, marked)
                    mark_path(to, cur, v, marked)
                    # Visit the blossom's vertices in ascending order, as a
                    # scan of all vertices would.
                    blossom = 0
                    for old in marked:
                        blossom |= members.pop(old, 1 << old)
                    members[cur] = members.get(cur, 1 << cur) | blossom
                    while blossom:
                        low = blossom & -blossom
                        blossom ^= low
                        i = low.bit_length() - 1
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

    def augment(finish: int) -> None:
        u = finish
        while u != -1:
            pv = parent[u]
            next_u = mate[pv]
            mate[u] = pv
            mate[pv] = u
            u = next_u

    # Greedy warm start, then one search per remaining exposed vertex.
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


def matching_edges(mate: list[int]) -> list[tuple[int, int]]:
    return [(v, mate[v]) for v in range(len(mate)) if mate[v] > v]
