"""A battery of executable checks, one per structural result the package
implements, producing a pass/fail matrix over Boolean-model sizes and
semigroup corpora.

Each check compares an expected value (tagged with its provenance:
``theory`` for closed forms, ``trivial`` for definitional facts, ``derived``
for values computed by an independent oracle) against the value the library
computes. Vacuous instances (empty graphs) are reported explicitly rather
than folded into pass counts.

The corpus rows are declared once, in ``CORPUS_ROWS``, as predicates on a
per-table case (the family and, for a complete nonempty family, the graph
with its distances, girth and extremes). One pass over the corpus builds
each case, runs every row on it and drops it, so one graph is alive at a time.

The Boolean constructions (``boolean``), the automorphism group and the
catalog are imported by the Boolean and named-instance checks that use them,
so a corpus-only run does not load them.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import CorpusLoadError
from .graph import (DenseGraph, bits, build_boolean, build_from_family,
                    command_vertex_cap, transpose)
from .invariants import (clique_number, compute_report, connectivity, girth,
                         perfectness, planarity)
from .semigroup import (CayleyTable, IdealFamily, enumerate_left_ideals,
                        is_left_ideal, is_maximal_left_ideal, is_completely_simple,
                        join_irreducibles, parse_cayley_table)

DEFAULT_BOOLEAN_RANGE = range(2, 9)
AUT_CHECK_MAX_N = 6
PERFECTNESS_CHECK_MAX_N = 5
HOLE_SEARCH_BOUND = 11


class TheoremCheck(NamedTuple):
    check_id: str
    instance: str
    provenance: str  # "theory" | "trivial" | "derived"
    expected: str
    computed: str
    verdict: str  # "pass" | "fail" | "vacuous"


class SuiteResult(NamedTuple):
    checks: list[TheoremCheck]
    passed: int
    failed: int
    vacuous: int

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_jsonable(self) -> dict:
        return {
            "checks": [
                {
                    "id": c.check_id,
                    "instance": c.instance,
                    "provenance": c.provenance,
                    "expected": c.expected,
                    "computed": c.computed,
                    "verdict": c.verdict,
                }
                for c in self.checks
            ],
            "passed": self.passed,
            "failed": self.failed,
            "vacuous": self.vacuous,
        }

    def to_json(self) -> str:
        from .jsontext import _json_text
        return _json_text(self.to_jsonable()) + "\n"

    def to_table(self) -> str:
        rows = [("check", "instance", "verdict", "expected", "computed")]
        for c in self.checks:
            rows.append((c.check_id, c.instance, c.verdict, c.expected, c.computed))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = []
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(5)).rstrip())
        lines.append(f"passed: {self.passed}  failed: {self.failed}  vacuous: {self.vacuous}")
        return "\n".join(lines) + "\n"


REGISTRY: dict[str, str] = {
    # Boolean-model checks, one row per n
    "boolean-order": "the Boolean graph on [n] has 2^n - 2 vertices",
    "boolean-degree-formula": "degree of a k-subset is (2^k-2)+(2^(n-k)-2), by explicit count",
    "boolean-connectivity-diameter": "disconnected for n=2; connected with diameter 3 for n>=3",
    "boolean-girth": "girth is infinity, 6, 3 for n = 2, 3, >=4",
    "boolean-clique-number": "clique number n-1, with the nested chain as witness",
    "boolean-chromatic-number": "chromatic number n-1",
    "boolean-bipartite-iff": "bipartite exactly when n = 3 (among n >= 3)",
    "boolean-eulerian": "Eulerian exactly when n >= 3",
    "boolean-triangulated": "triangulated exactly when n >= 4",
    "boolean-domination-number": "domination number 2 by exact search",
    "boolean-canonical-dominating-set": "{first singleton, its complement} dominates",
    "boolean-independence-number": "independence number C(n, floor(n/2))",
    "boolean-vertex-cover": "vertex cover number (2^n-2) - C(n, floor(n/2))",
    "boolean-matching-and-construction": "constructed perfect matching and blossom agree at 2^(n-1)-1",
    "boolean-edge-cover": "edge cover number 2^(n-1)-1",
    "boolean-layer-matchings": "every consecutive-layer matching saturates the prescribed side",
    "boolean-planarity": "planar exactly when n <= 4",
    "boolean-perfectness-search": "no odd hole or antihole (exhaustive for n<=4, bounded above)",
    "boolean-equal-layers-nonadjacent": "equal-size subsets are never adjacent",
    "boolean-relabel-complement-automorphisms": "relabelings and complementation preserve adjacency and commute",
    "boolean-automorphism-order": "automorphism group order 2 for n=2, 2*n! for n>=3",
    "boolean-automorphism-decomposition": "every generator splits into (relabeling, complement flag)",
    "boolean-generators-span-group": "a transposition, an n-cycle and complementation generate the group",
    "boolean-vertex-transitive-iff": "vertex transitive exactly when n in {2,3}",
    "boolean-edge-transitive-iff": "edge transitive exactly when n in {2,3}",
    # Corpus checks, aggregated over all tables of a corpus
    "semigroup-minimals-disjoint": "distinct minimal left ideals are disjoint",
    "semigroup-ideal-closure-bruteforce": "down-set enumeration equals the brute-force subset scan",
    "semigroup-maximality-lclass": "maximality equals `complement is one L-class`, both directions",
    "semigroup-family-union-closed": "the ideal family is closed under pairwise union",
    "graph-disconnected-iff-two-minimal": "disconnected iff S is the union of exactly two minimal left ideals "
                                          "iff every nontrivial left ideal is minimal and maximal (with >= 2 minimal)",
    "graph-disconnected-implies-edgeless": "a disconnected inclusion graph has no edges",
    "graph-diameter-bound": "connected inclusion graphs have diameter at most 3",
    "graph-girth-classification": "girth lies in {3, 6, infinity}",
    "graph-no-4-5-girth": "a 4- or 5-cycle forces a triangle (girth never 4 or 5)",
    "graph-perfect-bounded": "no odd hole or antihole in any corpus graph (exhaustive at corpus sizes)",
    "graph-clique-union-criterion": "clique number hits the number of minimal ideals iff their union is "
                                    "a maximal left ideal (and is one less when the union is S)",
    "graph-planar-minimals-bound": "planar inclusion graphs have at most 4 minimal left ideals",
    "completely-simple-boolean-model": "for completely simple S, ideals relabel to all nonempty proper subsets",
    # Named-instance checks
    "right-zero-boolean-bridge": "In(right-zero(n)) equals the Boolean graph after relabeling",
    "clique-number-with-identity": "right-zero plus identity has clique number n; pure right-zero has n-1",
}


def _emit(checks: list[TheoremCheck], check_id: str, instance: str,
          provenance: str, expected: str, computed: str,
          vacuous: bool = False) -> None:
    if check_id not in REGISTRY:
        raise KeyError(f"check id {check_id!r} is not registered")
    if vacuous:
        verdict = "vacuous"
    else:
        verdict = "pass" if expected == computed else "fail"
    checks.append(TheoremCheck(
        check_id=check_id, instance=instance, provenance=provenance,
        expected=expected, computed=computed, verdict=verdict))


# ---------------------------------------------------------------------------
# Boolean-model checks


def _boolean_checks(n: int, checks: list[TheoremCheck]) -> None:
    from .boolean import (canonical_dominating_set, canonical_maximum_chain,
                          layer_matching, perfect_matching)
    inst = f"boolean n={n}"
    g = build_boolean(n)
    _emit(checks, "boolean-order", inst, "theory",
          f"{2 ** n - 2} vertices", f"{g.vertex_count} vertices")

    bad = None
    for v in g.vertices():
        k = v.bit_count()
        if g.degree(v) != (2 ** k - 2) + (2 ** (n - k) - 2):
            bad = v
            break
    _emit(checks, "boolean-degree-formula", inst, "theory", "all degrees match",
          "all degrees match" if bad is None else f"mismatch at {bad:#x}")

    r = compute_report(g)
    if n == 2:
        _emit(checks, "boolean-connectivity-diameter", inst, "theory",
              "2 components", f"{r.components} components")
    else:
        _emit(checks, "boolean-connectivity-diameter", inst, "theory",
              "connected, diameter 3",
              f"{'connected' if r.connected else 'disconnected'}, diameter {r.diameter}")

    expected_girth = {2: "inf", 3: "6"}.get(n, "3")
    _emit(checks, "boolean-girth", inst, "theory", expected_girth,
          "inf" if r.girth == float("inf") else str(int(r.girth)))

    canonical = canonical_maximum_chain(n)
    chain_ok = (list(r.witnesses["clique"])[:len(canonical)] == canonical
                and r.clique_number == len(canonical))
    _emit(checks, "boolean-clique-number", inst, "theory",
          f"{n - 1} (canonical chain maximal)",
          f"{r.clique_number} ({'canonical chain maximal' if chain_ok else 'other witness'})")
    _emit(checks, "boolean-chromatic-number", inst, "theory", str(n - 1),
          str(r.chromatic_number))

    if n >= 3:
        _emit(checks, "boolean-bipartite-iff", inst, "theory",
              str(n == 3), str(r.bipartite))
    _emit(checks, "boolean-eulerian", inst, "theory", str(n >= 3), str(r.eulerian))
    _emit(checks, "boolean-triangulated", inst, "theory", str(n >= 4), str(r.triangulated))

    _emit(checks, "boolean-domination-number", inst, "theory",
          "2" if n >= 3 else "2 (two isolated vertices)",
          str(r.domination_number) if n >= 3
          else f"{r.domination_number} (two isolated vertices)")
    if n >= 3:
        try:
            canonical_dominating_set(n)
            got = "dominates"
        except RuntimeError as e:
            got = str(e)
        _emit(checks, "boolean-canonical-dominating-set", inst, "theory",
              "dominates", got)

    _emit(checks, "boolean-independence-number", inst, "theory",
          str(comb(n, n // 2)), str(r.independence_number))
    _emit(checks, "boolean-vertex-cover", inst, "theory",
          str((2 ** n - 2) - comb(n, n // 2)), str(r.vertex_cover_number))

    if n >= 3:
        size = r.matching_number
        built = perfect_matching(n)
        _emit(checks, "boolean-matching-and-construction", inst, "theory",
              f"{2 ** (n - 1) - 1} edges, perfect, construction verifies",
              f"{size} edges, {'perfect' if 2 * size == r.vertex_count else 'imperfect'}, "
              f"construction {'verifies' if len(built) == 2 ** (n - 1) - 1 else 'broken'}")
        _emit(checks, "boolean-edge-cover", inst, "theory",
              str(2 ** (n - 1) - 1), str(r.edge_cover_number))

        try:
            for k in range(1, n - 1):
                layer_matching(n, k)  # checked by boolean.check_layer_matching
            got = "all saturating"
        except RuntimeError as e:
            got = str(e)
        _emit(checks, "boolean-layer-matchings", inst, "theory",
              "all saturating", got)

    _emit(checks, "boolean-planarity", inst, "theory", str(n <= 4), str(r.planar))

    if 3 <= n <= PERFECTNESS_CHECK_MAX_N:
        bound = g.vertex_count if g.vertex_count <= 14 else HOLE_SEARCH_BOUND
        verdict, _ = perfectness(g, bound)
        expected = "perfect" if g.vertex_count <= 14 else f"no witness up to length {bound}"
        computed = {True: "perfect", None: f"no witness up to length {bound}"}.get(
            verdict, "odd hole or antihole found")
        _emit(checks, "boolean-perfectness-search", inst,
              "theory" if g.vertex_count <= 14 else "derived", expected, computed)

    _emit(checks, "boolean-equal-layers-nonadjacent", inst, "theory",
          "no equal-size adjacency",
          "no equal-size adjacency" if _equal_layers_nonadjacent(g.dense()) else "violated")

    if n <= AUT_CHECK_MAX_N:
        _boolean_symmetry_checks(n, g, checks, inst)


def _equal_layers_nonadjacent(dense) -> bool:
    """Whether no edge joins two vertices of equal size: one AND per vertex,
    of its adjacency with the bitset of its layer."""
    layers: dict[int, int] = {}
    for i, m in enumerate(dense.masks):
        k = m.bit_count()
        layers[k] = layers.get(k, 0) | 1 << i
    return not any(a & layers[m.bit_count()] for a, m in zip(dense.adj, dense.masks))


def _boolean_symmetry_checks(n: int, g, checks: list[TheoremCheck], inst: str) -> None:
    from .symmetry import (automorphism_group, complement_automorphism, compose,
                           relabel_automorphism, transitivity)
    dense = g.dense()
    swap = relabel_automorphism(n, [1, 0] + list(range(2, n)))
    cycle = relabel_automorphism(n, list(range(1, n)) + [0])
    comp = complement_automorphism(n)

    def preserves(a) -> bool:
        return all((dense.adj[a.images[i]] >> a.images[j]) & 1
                   for i in range(dense.size) for j in bits(dense.adj[i]))

    commute = compose(swap, comp).images == compose(comp, swap).images
    ok = preserves(swap) and preserves(cycle) and preserves(comp) and commute
    _emit(checks, "boolean-relabel-complement-automorphisms", inst, "theory",
          "preserve adjacency and commute",
          "preserve adjacency and commute" if ok else "violated")

    report = automorphism_group(g)
    expected_order = 2 if n == 2 else 2 * factorial(n)
    _emit(checks, "boolean-automorphism-order", inst, "theory",
          str(expected_order), str(report.order))

    decomposed = all(a.base_perm is not None for a in report.generators)
    _emit(checks, "boolean-automorphism-decomposition", inst, "theory",
          "all generators decompose",
          "all generators decompose" if decomposed else "some generator resists")

    # The group acts faithfully on the singletons and co-singletons, so its
    # order is that of the maps restricted to them.
    crown = [i for i, m in enumerate(dense.masks) if m.bit_count() in (1, n - 1)]
    at = {v: t for t, v in enumerate(crown)}
    span = _closure_size([tuple(at[a.images[v]] for v in crown) for a in (swap, cycle, comp)])
    _emit(checks, "boolean-generators-span-group", inst, "theory",
          str(expected_order), str(span))

    vt, et = transitivity(g, report)
    _emit(checks, "boolean-vertex-transitive-iff", inst, "theory",
          str(n in (2, 3)), str(vt))
    _emit(checks, "boolean-edge-transitive-iff", inst, "theory",
          str(n in (2, 3)), str(et))


def _closure_size(generators: list[tuple[int, ...]], cap: int = 10 ** 7) -> int:
    """Order of the group the permutations (of at least two points) generate,
    by breadth-first closure; p composed with q is ``itemgetter(*q)(p)``."""
    identity = tuple(range(len(generators[0])))
    seen = {identity}
    frontier = [identity]
    compose = [itemgetter(*q) for q in generators]
    while frontier:
        nxt = []
        for p in frontier:
            for q in compose:
                r = q(p)
                if r not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("group closure exceeded its cap")
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# Corpus checks


def _union_closed(masks: tuple[int, ...], full: int, below: list[int]) -> bool:
    """Whether distinct ``masks`` together with ``full`` are closed under union.
    ``below[i]`` is the bitset of the members strictly inside ``masks[i]``.

    A member j is join-irreducible when it is not the union of the members
    strictly inside it. Every member is the union of the join-irreducibles
    inside it, and ``full`` absorbs, so x | y folds in y one
    join-irreducible at a time: the family is closed iff x | j is a member
    or ``full`` for every member x and join-irreducible j. From the element
    columns of the family, j is join-irreducible iff some column holding j
    meets none of the members strictly inside j.
    """
    columns = set(transpose(masks))
    irreducible = [m for i, (m, inside) in enumerate(zip(masks, below))
                   if any(c >> i & 1 and not c & inside for c in columns)]
    closed = {*masks, full}
    return all(x | j in closed for x in masks for j in irreducible)


class _Case(NamedTuple):
    """What the corpus rows read of one table. The graph and the fields after
    it are set only when the family is complete and nonempty; the extremes
    are read from the containment order, by definition, rather than from the
    principal ideals."""

    table: CayleyTable
    family: IdealFamily
    graph: DenseGraph | None = None
    components: int = 0
    diameter: float = 0
    girth: float = 0
    minimals: tuple[int, ...] = ()
    maximals: frozenset[int] = frozenset()
    union: int = 0  # of the minimal ideals


def _case(t: CayleyTable) -> _Case:
    fam = enumerate_left_ideals(t)
    if fam.truncated or not fam.ideals:
        return _Case(t, fam)
    g = build_from_family(fam).dense()
    order = g.containment
    minimals = tuple(m for m, b in zip(g.masks, order.below) if not b)
    union = 0
    for m in minimals:
        union |= m
    return _Case(t, fam, g, *connectivity(g), girth(g), minimals,
                 frozenset(m for m, a in zip(g.masks, order.above) if not a), union)


# Each predicate returns None when its row does not apply to the case, else
# the counterexample, which is empty when the result holds; the table's
# order and rows are added to it where it is reported.


def _minimals_disjoint(c: _Case) -> str | None:
    # Disjoint exactly when their sizes add up to the size of their union.
    if sum(m.bit_count() for m in c.minimals) != c.union.bit_count():
        return "minimals intersect"
    return ""


def _closure_vs_bruteforce(c: _Case) -> str | None:
    t = c.table
    if t.order > 12 or c.family.truncated:
        return None
    brute = sorted(m for m in range(1, t.full_mask) if is_left_ideal(t, m))
    return "" if sorted(c.family.masks) == brute else "families differ"


def _maximality(c: _Case) -> str | None:
    for m in c.family.masks:
        if is_maximal_left_ideal(c.table, m) != (m in c.maximals):
            return f"ideal {m:#x}"
    return ""


def _family_union_closed(c: _Case) -> str | None:
    if not _union_closed(c.graph.masks, c.table.full_mask, c.graph.containment.below):
        return "union escapes"
    return ""


def _two_minimal_iff(c: _Case) -> str | None:
    disconnected = c.components >= 2
    n_min = len(c.minimals)
    char_union = n_min == 2 and c.union == c.table.full_mask
    min_and_max = n_min >= 2 and n_min == len(c.maximals) == c.graph.size
    if disconnected == char_union == min_and_max:
        return ""
    return (f"disconnected={disconnected}, two-minimal-union={char_union}, "
            f"all-min-max={min_and_max}")


def _disconnected_edgeless(c: _Case) -> str | None:
    if c.components >= 2 and any(c.graph.adj):
        return "disconnected with edges"
    return ""


def _diameter_bound(c: _Case) -> str | None:
    if c.components == 1 and c.diameter > 3:
        return f"diameter {c.diameter}"
    return ""


def _girth_class(c: _Case) -> str | None:
    if c.girth not in (3, 6, float("inf")):
        return f"girth {c.girth}"
    return ""


def _no_45_girth(c: _Case) -> str | None:
    if c.girth in (4, 5):
        return f"girth {c.girth}"
    return ""


def _perfect_bounded(c: _Case) -> str | None:
    if c.graph.size > 20:
        return None
    verdict, witness = perfectness(c.graph, c.graph.size)
    return "" if verdict is True else f"witness {witness}"


def _clique_union_criterion(c: _Case) -> str | None:
    n_min = len(c.minimals)
    omega, _ = clique_number(c.graph)
    union_is_s = c.union == c.table.full_mask
    if union_is_s:
        ok = omega == n_min - 1
    else:
        ok = (omega == n_min) == is_maximal_left_ideal(c.table, c.union)
    return "" if ok else f"omega={omega}, minimals={n_min}, union-is-S={union_is_s}"


def _planar_minimals(c: _Case) -> str | None:
    # Contrapositive: more than 4 minimal ideals forces nonplanarity.
    if len(c.minimals) <= 4:
        return None
    if planarity(c.graph).planar:
        return f"planar with {len(c.minimals)} minimals"
    return ""


def _cs_boolean_model(c: _Case) -> str | None:
    # The graph is nonempty, so an antichain J has n >= 2 members, and the
    # J-codes are then the coordinates of the ideals in the Boolean model.
    if not is_completely_simple(c.table):
        return None
    joins = join_irreducibles(c.table)
    n = len(joins.masks)
    if not joins.antichain:
        return f"the {n} principal left ideals are not an antichain"
    if c.family.codes != tuple(build_boolean(n).vertices()):
        return "coordinates differ"
    return ""


# (check id, provenance, predicate, needs a nonempty graph), in emission order.
CORPUS_ROWS = (
    ("semigroup-minimals-disjoint", "theory", _minimals_disjoint, True),
    ("semigroup-ideal-closure-bruteforce", "derived", _closure_vs_bruteforce, False),
    ("semigroup-maximality-lclass", "theory", _maximality, True),
    ("semigroup-family-union-closed", "theory", _family_union_closed, True),
    ("graph-disconnected-iff-two-minimal", "theory", _two_minimal_iff, True),
    ("graph-disconnected-implies-edgeless", "theory", _disconnected_edgeless, True),
    ("graph-diameter-bound", "theory", _diameter_bound, True),
    ("graph-girth-classification", "theory", _girth_class, True),
    ("graph-no-4-5-girth", "theory", _no_45_girth, True),
    ("graph-perfect-bounded", "theory", _perfect_bounded, True),
    ("graph-clique-union-criterion", "theory", _clique_union_criterion, True),
    ("graph-planar-minimals-bound", "theory", _planar_minimals, True),
    ("completely-simple-boolean-model", "theory", _cs_boolean_model, True),
)


def _outcomes(t: CayleyTable) -> list[str | None]:
    """Every row's predicate on one table. The case, graph and all, is
    dropped on return, so a corpus pass holds one table's graph at a time."""
    case = _case(t)
    return [None if needs_graph and case.graph is None else predicate(case)
            for _, _, predicate, needs_graph in CORPUS_ROWS]


def _corpus_checks(corpus: list[tuple[CayleyTable, int]], label: str,
                   checks: list[TheoremCheck]) -> None:
    """Every corpus row over (table, weight) pairs, in one pass. An
    applicable table adds its weight, the number of labeled tables it
    stands for, to the row's count: each row is invariant under relabeling
    the table, so one representative of an isomorphism class, weighted by
    its orbit size, counts as the whole orbit. A counterexample names the
    first table that failed."""
    applicable = [0] * len(CORPUS_ROWS)
    first_bad: list[str | None] = [None] * len(CORPUS_ROWS)
    for t, weight in corpus:
        for i, detail in enumerate(_outcomes(t)):
            if detail is None:
                continue
            applicable[i] += weight
            if detail and first_bad[i] is None:
                import json
                rows = json.dumps(t.rows, separators=(",", ":"))
                first_bad[i] = f"order {t.order}: {detail} in {rows}"
    expected = "0 counterexamples"
    for (check_id, provenance, _, _), count, bad in zip(CORPUS_ROWS, applicable, first_bad):
        if count == 0:
            computed = "vacuous: empty graph"
        elif bad is not None:
            computed = f"counterexample: {bad}"
        else:
            computed = expected
        _emit(checks, check_id, f"{label} ({count} applicable)", provenance,
              expected, computed, vacuous=count == 0)


# ---------------------------------------------------------------------------
# Named-instance checks


def _named_checks(checks: list[TheoremCheck]) -> None:
    from . import catalog
    for n in range(3, 9):
        t = catalog.right_zero(n)
        joins = join_irreducibles(t)
        same = (joins.antichain and enumerate_left_ideals(t).codes
                == tuple(build_boolean(n).vertices()))
        _emit(checks, "right-zero-boolean-bridge", f"right-zero({n})", "derived",
              f"n={n}, all nonempty proper subsets",
              f"n={len(joins.masks)}, {'all nonempty proper subsets' if same else 'mismatch'}")

    for n in (3, 4):
        with_id = build_from_family(
            enumerate_left_ideals(catalog.right_zero_with_identity(n)))
        plain = build_from_family(enumerate_left_ideals(catalog.right_zero(n)))
        om_id, _ = clique_number(with_id)
        om_plain, _ = clique_number(plain)
        _emit(checks, "clique-number-with-identity", f"right-zero({n}) with/without identity",
              "theory", f"{n} with identity, {n - 1} without",
              f"{om_id} with identity, {om_plain} without")


# ---------------------------------------------------------------------------
# Driver


def load_corpus_dir(path: str | Path) -> list[CayleyTable]:
    p = Path(path)
    if not p.is_dir():
        raise CorpusLoadError(f"{p} is not a directory")
    tables = []
    files = sorted(q for q in p.iterdir() if q.suffix == ".txt")
    if not files:
        raise CorpusLoadError(f"no .txt tables found in {p}")
    for q in files:
        try:
            tables.append(parse_cayley_table(q.read_text(encoding="utf-8")))
        except Exception as e:
            raise CorpusLoadError(f"{q.name}: {e}") from e
    return tables


def builtin_corpus() -> tuple[list[tuple[CayleyTable, int]], str]:
    """(table, weight) pairs: every semigroup of order <= 4 up to
    isomorphism, as its lex-least table weighted by its orbit size m!/|Aut(S)|
    (188 classes of order 4 standing for 3,492 labeled tables), plus
    structured named instances of weight 1. The classes are read from the
    package's class file, and every table and class count is checked on
    each read (``catalog.small_semigroup_corpus``)."""
    from . import catalog
    classes = catalog.small_semigroup_corpus(4)
    extras = [
        catalog.right_zero(5),
        catalog.left_zero(5),
        catalog.null_semigroup(5),
        catalog.null_semigroup(6),
        catalog.cyclic_group(5),
        catalog.right_zero_with_identity(3),
        catalog.right_zero_with_identity(4),
        catalog.rectangular_band(2, 3),
        catalog.rectangular_band(3, 2),
        catalog.rectangular_band(2, 2),
    ]
    label = f"m<=4 exhaustive + {len(extras)} named instances"
    return classes + [(t, 1) for t in extras], label


def run_suite(boolean_ns=None, corpus: list[CayleyTable] | None = None,
              corpus_label: str = "corpus") -> SuiteResult:
    """Run the registered checks.

    With no arguments (``scope all``): Boolean sizes 2..8, the built-in
    corpus, and the named instances. Passing ``boolean_ns`` or ``corpus``
    narrows the scope to just that part; each table of ``corpus`` has
    weight 1. Every check is deterministic. The vertex cap is read once for
    the whole run, or taken from the enclosing command.
    """
    checks: list[TheoremCheck] = []
    weighted = None if corpus is None else [(t, 1) for t in corpus]
    scope_all = boolean_ns is None and corpus is None
    with command_vertex_cap():
        if scope_all:
            boolean_ns = DEFAULT_BOOLEAN_RANGE
            weighted, corpus_label = builtin_corpus()
        if boolean_ns is not None:
            for n in boolean_ns:
                _boolean_checks(n, checks)
        if weighted is not None:
            _corpus_checks(weighted, corpus_label, checks)
        if scope_all:
            _named_checks(checks)
    verdicts = Counter(c.verdict for c in checks)
    return SuiteResult(checks=checks, passed=verdicts["pass"],
                       failed=verdicts["fail"], vacuous=verdicts["vacuous"])
