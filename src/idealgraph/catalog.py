"""Ready-made small semigroups, and the semigroups of order <= 5 up to
isomorphism, read from the package's class file and checked on each read."""

from __future__ import annotations

import os
from math import isqrt

from .errors import IdealGraphError
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

# One isomorphism class per line, under a '#' header: its orbit size
# m!/|Aut(S)|, a space, and the m*m cells of its lex-least table as digits,
# row-major. Lines are in (order, lexicographic) order.
CLASS_FILE = os.path.join(os.path.dirname(__file__), "small_semigroups.txt")


def small_semigroup_corpus(max_order: int = 4) -> list[tuple[CayleyTable, int]]:
    """Every semigroup of order <= max_order (at most 5) up to isomorphism,
    as (lex-least table, orbit size m!/|Aut(S)|) pairs.

    Read from ``CLASS_FILE``: orders ascending, tables in lexicographic
    order. Every table is built as a ``CayleyTable``, so its entries are
    range-checked and its associativity tested, and the class counts and
    orbit sums of every order are checked against OEIS A027851 and
    A023814. The file is part of the package, so a fault in it is an
    internal failure: a file that cannot be read, or a malformed,
    out-of-order or non-associative line, raises ``RuntimeError`` naming
    the file and line, and a count or sum off its gate raises it naming
    the order.
    """
    if max_order > max(CLASS_GATES):
        raise ValueError(f"max_order must be at most {max(CLASS_GATES)}, got {max_order}")
    out: list[tuple[CayleyTable, int]] = []
    last = (0, "")
    try:
        # A byte that is not ASCII reads as U+FFFD, no digit: a malformed line.
        f = open(CLASS_FILE, encoding="ascii", errors="replace")
    except OSError as e:
        raise RuntimeError(
            f"cannot read the semigroup class file {CLASS_FILE}: {e.strerror}") from None
    with f:  # read up to the first line past max_order
        for number, line in enumerate(f, 1):
            if line.startswith("#"):
                continue
            line = line.rstrip("\n")
            where = f"{CLASS_FILE}:{number}"
            weight, _, cells = line.partition(" ")
            m = isqrt(len(cells))
            if not (weight.isdigit() and cells.isdigit() and m * m == len(cells)):
                raise RuntimeError(f"{where}: malformed class line {line!r}")
            if (m, cells) <= last:
                raise RuntimeError(f"{where}: class line out of (order, lexicographic) order")
            if m > max_order:
                break
            last = (m, cells)
            flat = tuple(map(int, cells))
            try:
                t = CayleyTable(m, tuple(flat[k:k + m] for k in range(0, m * m, m)))
            except IdealGraphError as e:
                raise RuntimeError(f"{where}: {e}") from None
            out.append((t, int(weight)))
    for m in range(1, max_order + 1):
        stratum = [w for t, w in out if t.order == m]
        got = (len(stratum), sum(stratum))
        if got != CLASS_GATES[m]:
            raise RuntimeError(
                f"order {m}: {got[0]} classes with orbit sum {got[1]}, "
                f"expected {CLASS_GATES[m][0]} and {CLASS_GATES[m][1]}")
    return out
