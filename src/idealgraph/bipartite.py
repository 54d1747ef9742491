"""Maximum bipartite matching (Hopcroft-Karp) and a König minimum vertex cover.

Adjacency is a list of bitsets: bit v of ``adj[u]`` is set when left vertex u
is adjacent to right vertex v. Every scan takes neighbours lowest bit first,
so equal inputs give identical matchings and covers.
"""

from __future__ import annotations


def hopcroft_karp(n_left: int, n_right: int, adj: list[int]):
    """Maximum matching in a bipartite graph.

    Returns (size, match_left, match_right) with -1 for unmatched.
    """
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    free_r = (1 << n_right) - 1
    for u in range(n_left):
        m = adj[u] & free_r
        if m:
            v = (m & -m).bit_length() - 1
            match_l[u] = v
            match_r[v] = u
            free_r ^= 1 << v
    inf = n_left + 1
    dist = [0] * n_left

    def bfs() -> bool:
        # Layers from the free left vertices; a matched right vertex is
        # crossed once, the first time its mate is reached.
        q = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = inf
        unseen = ((1 << n_right) - 1) & ~free_r
        found = False
        for u in q:
            a = adj[u]
            if a & free_r:
                found = True
            m = a & unseen
            unseen ^= m
            while m:
                b = m & -m
                m ^= b
                w = match_r[b.bit_length() - 1]
                dist[w] = dist[u] + 1
                q.append(w)
        return found

    def dfs(root: int) -> bool:
        # Explicit stack; frames keep their unscanned neighbours, so a scan
        # resumes after a failed descent.
        nonlocal free_r
        stack_u = [root]
        stack_rest = [adj[root]]
        chosen: list[int] = []
        while stack_u:
            u = stack_u[-1]
            rest = stack_rest[-1]
            step = dist[u] + 1
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                w = match_r[v]
                if w == -1:
                    chosen.append(v)
                    for uu, vv in zip(stack_u, chosen):
                        match_l[uu] = vv
                        match_r[vv] = uu
                    free_r ^= b
                    return True
                if dist[w] == step:
                    stack_rest[-1] = rest
                    chosen.append(v)
                    stack_u.append(w)
                    stack_rest.append(adj[w])
                    break
            else:
                dist[u] = inf
                stack_u.pop()
                stack_rest.pop()
                if chosen:
                    chosen.pop()
        return False

    size = n_left - match_l.count(-1)
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


def koenig_cover(n_left: int, n_right: int, adj: list[int],
                 match_l: list[int], match_r: list[int]) -> tuple[int, int]:
    """Minimum vertex cover from a maximum matching, as (left, right) bitsets.

    Alternating reach from unmatched left vertices; the cover is the
    unreached left side plus the reached right side.
    """
    q = [u for u in range(n_left) if match_l[u] == -1]
    reach_l = 0
    for u in q:
        reach_l |= 1 << u
    reach_r = 0
    for u in q:
        m = adj[u] & ~reach_r
        reach_r |= m
        while m:
            b = m & -m
            m ^= b
            w = match_r[b.bit_length() - 1]
            if w != -1 and not reach_l >> w & 1:
                reach_l |= 1 << w
                q.append(w)
    return ((1 << n_left) - 1) & ~reach_l, reach_r
