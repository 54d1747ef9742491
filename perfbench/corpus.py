"""Seeded Cayley-table corpus for the ``tables`` workload.

Each table is built here from its definition, not from the package under
test, and then relabeled by a permutation drawn from the seed. Relabeling
gives an isomorphic semigroup, so the work stays the same across seeds while
the element masks, and with them the bit-level access patterns, change.

Next to the table files the generator writes ``manifest.json``: for every
file the values that follow from the construction (order, number of
nontrivial left ideals, and for completely simple tables the closed forms of
the Boolean model on n = c minimal left ideals). The output checker compares
the program's answers with these.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from check import boolean_closed_forms


def rectangular_band(r: int, c: int):
    return [[(i // c) * c + j % c for j in range(r * c)] for i in range(r * c)]


def right_zero(n: int):
    return [list(range(n)) for _ in range(n)]


def right_zero_with_identity(n: int):
    return [list(range(n)) + [i] for i in range(n + 1)]


def null_semigroup(n: int):
    return [[0] * n for _ in range(n)]


def cyclic_group(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# (file stem, rows, number of nontrivial left ideals, Boolean n or None)
def _catalog():
    out = []
    for r, c in ((12, 8), (3, 10), (40, 5), (6, 6)):
        out.append((f"band_{r}x{c}", rectangular_band(r, c), 2 ** c - 2, c))
    # Nonempty subsets of the right-zero part; the identity generates S.
    out.append(("right_zero_identity_8", right_zero_with_identity(8), 2 ** 8 - 1, None))
    out.append(("right_zero_9", right_zero(9), 2 ** 9 - 2, 9))
    # Every nonempty proper subset that contains the zero.
    out.append(("null_10", null_semigroup(10), 2 ** 9 - 1, None))
    # A group has no proper left ideal.
    out.append(("cyclic_60", cyclic_group(60), 0, None))
    return out


def relabel(rows, perm):
    """The isomorphic table with element i renamed perm[i]."""
    m = len(rows)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        pi = perm[i]
        for j in range(m):
            out[pi][perm[j]] = perm[rows[i][j]]
    return out


def serialize(rows) -> str:
    """The package's normalized table format: order, then one row per line."""
    return "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]) + "\n"


def write_corpus(directory: Path, seed: int) -> dict:
    """Write the relabeled tables and their manifest; return the manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    manifest = {"seed": seed, "tables": {}}
    for stem, rows, ideals, boolean_n in _catalog():
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        name = f"{stem}.txt"
        (directory / name).write_text(serialize(relabel(rows, perm)), encoding="utf-8")
        entry = {"order": len(rows), "ideals": ideals, "boolean_n": boolean_n}
        if boolean_n is not None:
            entry["boolean"] = boolean_closed_forms(boolean_n)
        manifest["tables"][name] = entry
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return manifest
