"""The document ``invariants`` prints, shared by its two routes.

The dense solvers (``invariants``) and the Boolean model's mask route
(``boolean``) both fill an ``InvariantReport`` for the whole document, and
both hand ``selected_document`` the values of the invariants a command
selects, so every route prints the same keys in the same order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

INFINITY = math.inf

# Each selecting flag of ``invariants`` and the keys it prints, in print order.
SELECTIONS = {
    "diameter": ("components", "diameter"),
    "girth": ("girth",),
    "clique": ("clique_number",),
    "chromatic": ("chromatic_number",),
    "independence": ("independence_number",),
    "matching": ("matching_number", "perfect_matching"),
    "domination": ("domination_number",),
    "planarity": ("planar", "kuratowski_kind"),
    "perfect": ("perfect",),
    "flags": ("eulerian", "bipartite", "triangulated"),
}


def _finite(value):
    """``value``, or "inf" for an infinite diameter or girth."""
    return "inf" if value == INFINITY else value


class InvariantReport(NamedTuple):
    vertex_count: int
    edge_count: int
    connected: bool
    components: int
    diameter: int | float
    girth: int | float
    clique_number: int
    chromatic_number: int
    independence_number: int
    vertex_cover_number: int
    matching_number: int
    edge_cover_number: int | None
    domination_number: int
    eulerian: bool
    bipartite: bool
    triangulated: bool
    planar: bool
    perfect: bool
    witnesses: dict
    methods: dict

    def to_jsonable(self) -> dict:
        """Stable-key-order dict, so identical runs serialize identically.
        The witnesses are the report's own: JSON writes their int mask keys
        as strings and their tuples as lists."""
        doc = self._asdict()
        for key in ("diameter", "girth"):
            doc[key] = _finite(doc[key])
        doc["methods"] = dict(sorted(self.methods.items()))
        return doc


def selected_document(values: dict, select) -> dict:
    """The document of the selected flags: each flag's keys from ``values``,
    in ``SELECTIONS`` order. A key without a value is left out (the
    Kuratowski kind of a planar graph)."""
    return {key: _finite(values[key])
            for flag, keys in SELECTIONS.items() if flag in select
            for key in keys if key in values}
