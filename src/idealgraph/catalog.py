"""Ready-made small semigroups, and the semigroups of order <= 5 up to
isomorphism by orderly generation."""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from math import factorial

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


# Semigroups of order m counted up to isomorphism (OEIS A027851) and as
# labeled tables (A023814), which is the sum of m!/|Aut(S)| over the classes.
CLASS_GATES = {1: (1, 1), 2: (5, 8), 3: (24, 113), 4: (188, 3492), 5: (1915, 183732)}


def _consistent(table: list[list[int]], i: int, j: int) -> bool:
    """Whether the partial table stays associative after cell (i, j) was set.

    Only the triples the new cell completes are checked, the ones whose four
    lookups xy, yz, (xy)z and x(yz) have just become defined; every other
    defined triple passed when its last cell was set. Undefined cells are -1.
    """
    span = range(len(table))
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


def _lex_leaders(m: int) -> Iterator[tuple[CayleyTable, int]]:
    """One table per isomorphism class of m-element semigroups, with its
    orbit size m!/|Aut(S)|, in lexicographic order.

    Orderly generation (Distler, Jefferson, Kelsey & Kotthoff, CP 2012):
    backtracking over the cells in row-major order keeps a partial table
    only if no relabeling sigma gives a smaller row-major prefix. The
    relabeled table holds sigma(T[sigma^-1 a][sigma^-1 b]) at (a, b); it is
    compared with T cell by cell, stopping at the first cell it leaves
    undefined. A sigma found larger stays larger in every completion and is
    dropped; an undecided one resumes at that cell after the next
    assignment. Each completed table is thus the least of its orbit, and the
    sigma still equal on it are its automorphisms. Isomorphisms only: an
    anti-isomorphism (transpose) swaps left and right ideals.
    """
    n = m * m
    table = [[-1] * m for _ in range(m)]
    flat = [-1] * n
    cells = [(i, j) for i in range(m) for j in range(m)]
    relabelings = []
    for sigma in itertools.permutations(range(m)):
        inv = sorted(range(m), key=sigma.__getitem__)
        src = [inv[a] * m + inv[b] for a, b in cells]
        if src != list(range(n)):
            relabelings.append((sigma, src, 0))

    def rec(k: int, undecided: list) -> Iterator[tuple[CayleyTable, int]]:
        if k == n:
            # Every sigma left compared equal on all cells: |Aut| - 1 of them.
            automorphisms = 1 + len(undecided)
            yield CayleyTable(m, tuple(map(tuple, table))), factorial(m) // automorphisms
            return
        i, j = cells[k]
        for v in range(m):
            table[i][j] = flat[k] = v
            if not _consistent(table, i, j):
                continue
            still = []
            for sigma, src, c in undecided:
                while c <= k and src[c] <= k and sigma[flat[src[c]]] == flat[c]:
                    c += 1
                if c > k or src[c] > k:
                    # Equal on every defined cell, or stopped at an undefined one.
                    still.append((sigma, src, c))
                elif sigma[flat[src[c]]] < flat[c]:
                    break  # a smaller relabeled prefix: prune
            else:
                yield from rec(k + 1, still)
        table[i][j] = flat[k] = -1

    yield from rec(0, relabelings)


def small_semigroup_corpus(max_order: int = 4) -> list[tuple[CayleyTable, int]]:
    """Every semigroup of order <= max_order (at most 5) up to isomorphism,
    as (lex-least table, orbit size m!/|Aut(S)|) pairs.

    Deterministic: orders ascending, tables in lexicographic order. The
    class counts and orbit sums of every order are checked against OEIS
    A027851 and A023814; a mismatch raises ``RuntimeError``.
    """
    if max_order > max(CLASS_GATES):
        raise ValueError(f"max_order must be at most {max(CLASS_GATES)}, got {max_order}")
    out: list[tuple[CayleyTable, int]] = []
    for m in range(1, max_order + 1):
        classes = list(_lex_leaders(m))
        got = (len(classes), sum(w for _, w in classes))
        if got != CLASS_GATES[m]:
            raise RuntimeError(
                f"order {m}: {got[0]} classes with orbit sum {got[1]}, "
                f"expected {CLASS_GATES[m][0]} and {CLASS_GATES[m][1]}")
        out.extend(classes)
    return out
