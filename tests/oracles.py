"""Brute-force references for the semigroup layer's associativity kernel."""

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
