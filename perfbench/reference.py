"""A fixed reference job that measures the machine's current speed.

On a shared VM the CPU's speed drifts by a third or more within a minute and
by up to 2x over an hour, so the absolute time of a job says as much about the
neighbours as about the program. The runner starts this script as a fresh
process after every CLI job and reports job times as multiples of it: the
drift cancels, while a change to the program moves the ratio as it moves the
job. A shared machine slows different kinds of code by different amounts, so
the script starts like a CLI job (an interpreter that imports networkx) and
then runs pure-Python work in the mix of the workload it stands beside:

- ``boolean``: big-int bitset BFS on a sparse and on a dense graph, degree
  tables in dicts and sets, and a JSON encoding of the adjacency (the Boolean
  model's BFS, chain work and export);
- ``tables``: bitset BFS, triple loops over a relabeled Cayley table with
  ideal closure by bit masks (the semigroup layer), and brute-force cliques
  on many tiny graphs (the theorem suite).

It never imports ``idealgraph``, so no change to the package can move it.

Run as ``python3 perfbench/reference.py WORKLOAD``; it prints the checksum.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations


def random_bitset_graph(rng: random.Random, vertices: int, degree: int) -> list[int]:
    adj = [0] * vertices
    for _ in range(degree * vertices):
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def bfs_levels(adj: list[int], stride: int) -> int:
    """Total BFS depth from every ``stride``-th vertex."""
    total = 0
    for source in range(0, len(adj), stride):
        seen = frontier = 1 << source
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
            total += 1
    return total


def summarize(adj: list[int]) -> int:
    counts: dict[int, int] = {}
    members: set[tuple[int, int]] = set()
    for i, row in enumerate(adj):
        degree = row.bit_count()
        counts[degree] = counts.get(degree, 0) + 1
        members.add((degree, i % 97))
    rows = [[i, row.bit_count(), row & 0xFFFF] for i, row in enumerate(adj)]
    return len(members) + sum(counts) + len(json.dumps({"rows": rows}))


def cayley_table(rng: random.Random, r: int = 12, c: int = 12) -> int:
    """Associativity and principal left ideals of a relabeled rectangular band."""
    m = r * c
    perm = list(range(m))
    rng.shuffle(perm)
    rows = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            rows[perm[x]][perm[y]] = perm[(x // c) * c + y % c]
    bad = 0
    for a in range(m):
        ra = rows[a]
        for b in range(m):
            rab = rows[ra[b]]
            rb = rows[b]
            for x in range(m):
                if rab[x] != ra[rb[x]]:
                    bad += 1
    ideals = set()
    for a in range(m):
        mask = 1 << a
        for s in range(m):
            mask |= 1 << rows[s][a]
        ideals.add(mask)
    closed = set(ideals)
    for x, y in combinations(sorted(ideals), 2):
        closed.add(x | y)
    return bad + len(closed)


def tiny_graphs(rng: random.Random, count: int = 2500, n: int = 7) -> int:
    """Clique number by brute force on many small random graphs."""
    total = 0
    for _ in range(count):
        adj = {v: set() for v in range(n)}
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.5:
                adj[u].add(v)
                adj[v].add(u)
        best = 1
        for k in range(2, n + 1):
            if any(all(b in adj[a] for a, b in combinations(s, 2))
                   for s in combinations(range(n), k)):
                best = k
            else:
                break
        total += best
    return total


def boolean_mix(rng: random.Random) -> int:
    total = 0
    for vertices, degree, stride in ((2000, 3, 16), (4096, 20, 192)):
        adj = random_bitset_graph(rng, vertices, degree)
        total += bfs_levels(adj, stride) + summarize(adj)
    return total


def tables_mix(rng: random.Random) -> int:
    adj = random_bitset_graph(rng, 4096, 10)
    return bfs_levels(adj, 160) + cayley_table(rng) + tiny_graphs(rng)


MIXES = {"boolean": boolean_mix, "tables": tables_mix}


def reference_work(workload: str) -> int:
    """Run the workload's fixed mix once and return its checksum."""
    return MIXES[workload](random.Random(20211027))


if __name__ == "__main__":
    import networkx  # noqa: F401  (start-up as in a CLI job)

    print(reference_work(sys.argv[1]))
