"""The document ``invariants`` prints, shared by its two routes.

The dense solvers (``invariants``) and the Boolean model's mask route
(``boolean``) both fill an ``InvariantReport`` for the whole document, and
both hand ``selected_document`` the values of the invariants a command
selects, so every route prints the same keys in the same order.
``invariants_document`` picks the route, for a Boolean model or a table.
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


def invariants_document(n: int | None, table, select,
                        domination_cap: int | None = None) -> dict:
    """The ``invariants`` document of the Boolean model on ``n`` points or,
    with ``n`` None, of the graph of ``table``: the whole report, or the
    values of the ``select``ed flags.

    The Boolean model is answered from its masks (``boolean``) from
    ``boolean.MIN_N`` on, by the dense solvers below that. A table whose
    join-irreducibles J are an antichain of w >= 2 members has the Boolean
    model on w points as its graph (see ``JoinIrreducibles.antichain``).
    It is answered as n = w is, with no walk and no adjacency of its own,
    and refused past the vertex cap by its vertex count; a witness's masks,
    codes whose bits name members of J, become the unions of those members
    (``JoinIrreducibles.unions``). Any other table takes the dense solvers
    on the graph of all its left ideals.
    """
    from .graph import build_boolean, build_from_table, check_vertex_count
    union = None
    if table is not None:
        from .semigroup import join_irreducibles
        joins = join_irreducibles(table)
        if not joins.antichain or len(joins.masks) < 2:
            return _dense_document(build_from_table(table), select, domination_cap)
        n = len(joins.masks)
        check_vertex_count((1 << n) - 2)
        union = joins.unions()
    g = build_boolean(n)
    from . import boolean
    if n >= boolean.MIN_N:  # from the masks: no adjacency, no search to cap
        doc = boolean.report_document(g, select)
    else:
        doc = _dense_document(g, select, domination_cap)
    if union is not None and not select:
        doc["witnesses"] = _relabel(doc["witnesses"], union)
    return doc


def _dense_document(g, select, domination_cap: int | None) -> dict:
    from . import invariants
    cap = invariants.DOMINATION_CAP if domination_cap is None else domination_cap
    return invariants.report_document(g, select, domination_cap=cap)


def _relabel(witness, union):
    """``witness`` with each vertex mask in it mapped by ``union``: the
    members of lists and tuples and the int keys of dicts, at any depth. A
    dict's scalar values (colours, the Kuratowski kind) stay as they are."""
    if isinstance(witness, dict):
        return {union(k) if type(k) is int else k:
                v if isinstance(v, (int, str)) else _relabel(v, union)
                for k, v in witness.items()}
    return [union(x) if type(x) is int else _relabel(x, union) for x in witness]
