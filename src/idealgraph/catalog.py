"""Ready-made small semigroups and exhaustive enumeration of tiny ones."""

from __future__ import annotations

from collections.abc import Iterator

from .semigroup import CayleyTable


def right_zero(n: int) -> CayleyTable:
    """x*y = y. Every singleton is a minimal left ideal."""
    row = tuple(range(n))
    return CayleyTable(n, tuple(row for _ in range(n)))


def left_zero(n: int) -> CayleyTable:
    """x*y = x. The only left ideal is S itself."""
    return CayleyTable(n, tuple(tuple(i for _ in range(n)) for i in range(n)))


def null_semigroup(n: int) -> CayleyTable:
    """x*y = 0 for all x, y (element 0 is the zero)."""
    return CayleyTable(n, tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def cyclic_group(n: int) -> CayleyTable:
    return CayleyTable(n, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def right_zero_with_identity(n: int) -> CayleyTable:
    """Right-zero semigroup on n elements with an adjoined identity (index n)."""
    rows = []
    for i in range(n):
        rows.append(tuple(list(range(n)) + [i]))
    rows.append(tuple(list(range(n)) + [n]))
    return CayleyTable(n + 1, tuple(rows))


def rectangular_band(r: int, c: int) -> CayleyTable:
    """(a,b)*(x,y) = (a,y) on r*c elements; completely simple with c minimal left ideals."""
    n = r * c
    def mul(i, j):
        return (i // c) * c + (j % c)
    return CayleyTable(n, tuple(tuple(mul(i, j) for j in range(n)) for i in range(n)))


def enumerate_associative_tables(m: int) -> Iterator[CayleyTable]:
    """All labeled associative m x m tables, in lexicographic order.

    Backtracking over the cells in row-major order. After each assignment
    only the triples it completes are checked, the ones whose four lookups
    xy, yz, (xy)z and x(yz) have just become defined; every other defined
    triple passed when its last cell was set. Practical for m <= 4 (counts
    1, 8, 113, 3492).
    """
    table = [[-1] * m for _ in range(m)]
    span = range(m)

    def consistent(i: int, j: int) -> bool:
        v = table[i][j]
        ti, tj, tv = table[i], table[j], table[v]
        # (x, y) = (i, j): xy is the new cell.
        for z in span:
            yz = tj[z]
            if yz >= 0:
                left, right = tv[z], ti[yz]
                if left >= 0 and right >= 0 and left != right:
                    return False
        # (y, z) = (i, j): yz is the new cell.
        for tx in table:
            xy = tx[i]
            if xy >= 0:
                left, right = table[xy][j], tx[v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for y in span:
            ty, yj = table[y], table[y][j]
            # xy = i and z = j: (xy)z is the new cell.
            if yj >= 0:
                for tx in table:
                    if tx[y] == i and tx[yj] >= 0 and tx[yj] != v:
                        return False
            # x = i and yz = j: x(yz) is the new cell.
            iy = ti[y]
            if iy >= 0:
                tiy = table[iy]
                for z in span:
                    if ty[z] == j and tiy[z] >= 0 and tiy[z] != v:
                        return False
        return True

    cells = [(i, j) for i in range(m) for j in range(m)]

    def rec(k: int) -> Iterator[CayleyTable]:
        if k == len(cells):
            yield CayleyTable(m, tuple(tuple(row) for row in table))
            return
        i, j = cells[k]
        for v in range(m):
            table[i][j] = v
            if consistent(i, j):
                yield from rec(k + 1)
        table[i][j] = -1

    yield from rec(0)


def small_semigroup_corpus(max_order: int = 4) -> list[CayleyTable]:
    """Every labeled semigroup of order <= min(max_order, 4).

    Deterministic; the order-4 stratum alone has 3492 tables, which more
    than covers sampling-based requirements.
    """
    out: list[CayleyTable] = []
    for m in range(1, min(max_order, 4) + 1):
        out.extend(enumerate_associative_tables(m))
    return out
