"""Straightforward references for the optimized kernels: the semigroup
layer's associativity test, Hopcroft-Karp and König over adjacency lists,
and the graph export through ``json.dumps``."""

import json
import math
from collections import deque

from idealgraph import CayleyTable


def first_nonassociative_triple(rows):
    """The lexicographically first (a, b, c) with (ab)c != a(bc), or None,
    by scanning every triple of the raw table."""
    m = len(rows)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return a, b, c
    return None


def enumerate_by_full_recheck(m):
    """Labeled associative m x m tables by backtracking in row-major order,
    re-checking every defined triple after each cell assignment."""
    table = [[-1] * m for _ in range(m)]

    def consistent():
        for x in range(m):
            for y in range(m):
                for z in range(m):
                    xy, yz = table[x][y], table[y][z]
                    if xy >= 0 and yz >= 0:
                        left, right = table[xy][z], table[x][yz]
                        if left >= 0 and right >= 0 and left != right:
                            return False
        return True

    cells = [(i, j) for i in range(m) for j in range(m)]

    def rec(k):
        if k == len(cells):
            yield CayleyTable(m, tuple(tuple(row) for row in table))
            return
        i, j = cells[k]
        for v in range(m):
            table[i][j] = v
            if consistent():
                yield from rec(k + 1)
        table[i][j] = -1

    yield from rec(0)


def magma_closure(rows, elements):
    """Smallest set holding ``elements`` and every product of two members."""
    closed = set(elements)
    while True:
        grown = closed | {rows[x][y] for x in closed for y in closed}
        if grown == closed:
            return closed
        closed = grown


def hopcroft_karp_lists(n_left, n_right, adj):
    """Hopcroft-Karp over adjacency lists: ``adj[u]`` lists the right
    neighbours of left vertex u in ascending order. Returns (size, match_left,
    match_right) with -1 for unmatched."""
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    for u in range(n_left):
        for v in adj[u]:
            if match_r[v] == -1:
                match_l[u] = v
                match_r[v] = u
                break
    dist = [0.0] * n_left

    def bfs():
        q = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = math.inf
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == math.inf:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(root: int):
        # Explicit stack; frames resume neighbor scans after failed descents.
        frames = [[root, 0]]
        chosen = []
        while frames:
            u, i = frames[-1]
            descended = False
            while i < len(adj[u]):
                v = adj[u][i]
                i += 1
                w = match_r[v]
                if w == -1:
                    chosen.append(v)
                    for (uu, _), vv in zip(frames, chosen):
                        match_l[uu] = vv
                        match_r[vv] = uu
                    return True
                if dist[w] == dist[u] + 1:
                    frames[-1][1] = i
                    chosen.append(v)
                    frames.append([w, 0])
                    descended = True
                    break
            if not descended:
                dist[u] = math.inf
                frames.pop()
                if chosen:
                    chosen.pop()
        return False

    size = sum(1 for u in range(n_left) if match_l[u] != -1)
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


def koenig_cover_lists(n_left, n_right, adj, match_l, match_r):
    """König cover over adjacency lists, as (left, right) lists of flags:
    the left vertices not reached by alternating paths from the unmatched
    left vertices, and the right vertices reached."""
    reach_l = [False] * n_left
    reach_r = [False] * n_right
    q = deque(u for u in range(n_left) if match_l[u] == -1)
    for u in q:
        reach_l[u] = True
    while q:
        u = q.popleft()
        for v in adj[u]:
            if not reach_r[v]:
                reach_r[v] = True
                w = match_r[v]
                if w != -1 and not reach_l[w]:
                    reach_l[w] = True
                    q.append(w)
    left_cover = [not reach_l[u] for u in range(n_left)]
    right_cover = [reach_r[v] for v in range(n_right)]
    return left_cover, right_cover


def export_json_document(g):
    """The JSON export of ``g`` by ``json.dumps`` of the whole document."""
    dense = g.dense()
    doc = {
        "mode": g.mode,
        "n": g.n,
        "vertices": [
            {"id": i, "mask": m, "size": m.bit_count()}
            for i, m in enumerate(dense.masks)
        ],
        "edges": [[u, v] for u, v in dense.edge_list()],
    }
    return json.dumps(doc, indent=2) + "\n"
