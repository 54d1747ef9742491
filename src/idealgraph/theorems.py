"""A battery of executable checks, one per structural result the package
implements, producing a pass/fail matrix over Boolean-model sizes and
semigroup corpora.

Each check compares an expected value (tagged with its provenance:
``theory`` for closed forms, ``trivial`` for definitional facts, ``derived``
for values computed by an independent oracle) against the value the library
computes. Vacuous instances (empty graphs) are reported explicitly rather
than folded into pass counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

from . import catalog
from .constructions import (canonical_dominating_set, canonical_maximum_chain,
                            layer_matching, perfect_matching)
from .errors import CorpusLoadError
from .graph import (bits, build_boolean, build_from_family, command_vertex_cap,
                    element_columns, minimal_ideal_coordinates)
from .invariants import (chromatic_number, clique_number, connectivity,
                         domination_number, girth, independence_number,
                         maximum_matching, perfectness, planarity,
                         structural_flags)
from .semigroup import (CayleyTable, enumerate_left_ideals, is_left_ideal,
                        is_maximal_left_ideal, is_completely_simple,
                        parse_cayley_table)
from .symmetry import (automorphism_group, complement_automorphism, compose,
                       relabel_automorphism, transitivity)

DEFAULT_BOOLEAN_RANGE = range(2, 9)
AUT_CHECK_MAX_N = 6
PERFECTNESS_CHECK_MAX_N = 5
HOLE_SEARCH_BOUND = 11


@dataclass
class TheoremCheck:
    check_id: str
    instance: str
    provenance: str  # "theory" | "trivial" | "derived"
    expected: str
    computed: str
    verdict: str  # "pass" | "fail" | "vacuous"


@dataclass
class SuiteResult:
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
        return json.dumps(self.to_jsonable(), indent=2) + "\n"

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
    "semigroup-ideal-closure-bruteforce": "union-closure enumeration equals the brute-force subset scan",
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


class _Emitter:
    def __init__(self, corrupt_check_id: str | None = None):
        self.checks: list[TheoremCheck] = []
        self.corrupt_check_id = corrupt_check_id

    def emit(self, check_id: str, instance: str, provenance: str,
             expected: str, computed: str, vacuous: bool = False) -> None:
        if check_id not in REGISTRY:
            raise KeyError(f"check id {check_id!r} is not registered")
        if self.corrupt_check_id == check_id:
            expected = expected + " [corrupted]"
        if vacuous:
            verdict = "vacuous"
        else:
            verdict = "pass" if expected == computed else "fail"
        self.checks.append(TheoremCheck(
            check_id=check_id, instance=instance, provenance=provenance,
            expected=expected, computed=computed, verdict=verdict))


# ---------------------------------------------------------------------------
# Boolean-model checks


def _boolean_checks(n: int, em: _Emitter) -> None:
    inst = f"boolean n={n}"
    g = build_boolean(n)
    em.emit("boolean-order", inst, "theory",
            f"{2 ** n - 2} vertices", f"{g.vertex_count} vertices")

    bad = None
    for v in g.vertices():
        k = v.bit_count()
        if g.degree(v) != (2 ** k - 2) + (2 ** (n - k) - 2):
            bad = v
            break
    em.emit("boolean-degree-formula", inst, "theory", "all degrees match",
            "all degrees match" if bad is None else f"mismatch at {bad:#x}")

    components, diameter = connectivity(g)
    if n == 2:
        em.emit("boolean-connectivity-diameter", inst, "theory",
                "2 components", f"{components} components")
    else:
        em.emit("boolean-connectivity-diameter", inst, "theory",
                "connected, diameter 3",
                f"{'connected' if components == 1 else 'disconnected'}, diameter {diameter}")

    expected_girth = {2: "inf", 3: "6"}.get(n, "3")
    gv = girth(g)
    em.emit("boolean-girth", inst, "theory", expected_girth,
            "inf" if gv == float("inf") else str(int(gv)))

    omega, chain = clique_number(g)
    chain_ok = list(chain)[:len(canonical_maximum_chain(n))] == canonical_maximum_chain(n)
    em.emit("boolean-clique-number", inst, "theory",
            f"{n - 1} (canonical chain maximal)",
            f"{omega} ({'canonical chain maximal' if chain_ok and omega == len(canonical_maximum_chain(n)) else 'other witness'})")

    chi, _ = chromatic_number(g)
    em.emit("boolean-chromatic-number", inst, "theory", str(n - 1), str(chi))

    eulerian, bipartite, triangulated = structural_flags(g)
    if n >= 3:
        em.emit("boolean-bipartite-iff", inst, "theory",
                str(n == 3), str(bipartite))
    em.emit("boolean-eulerian", inst, "theory", str(n >= 3), str(eulerian))
    em.emit("boolean-triangulated", inst, "theory", str(n >= 4), str(triangulated))

    gamma, _ = domination_number(g)
    em.emit("boolean-domination-number", inst, "theory",
            "2" if n >= 3 else "2 (two isolated vertices)",
            str(gamma) if n >= 3 else f"{gamma} (two isolated vertices)")
    if n >= 3:
        try:
            canonical_dominating_set(n)
            got = "dominates"
        except RuntimeError as e:
            got = str(e)
        em.emit("boolean-canonical-dominating-set", inst, "theory",
                "dominates", got)

    alpha, antichain = independence_number(g)
    em.emit("boolean-independence-number", inst, "theory",
            str(comb(n, n // 2)), str(alpha))
    em.emit("boolean-vertex-cover", inst, "theory",
            str((2 ** n - 2) - comb(n, n // 2)), str(g.vertex_count - alpha))

    if n >= 3:
        size, _, perfect = maximum_matching(g)
        built = perfect_matching(n)
        em.emit("boolean-matching-and-construction", inst, "theory",
                f"{2 ** (n - 1) - 1} edges, perfect, construction verifies",
                f"{size} edges, {'perfect' if perfect else 'imperfect'}, "
                f"construction {'verifies' if len(built) == 2 ** (n - 1) - 1 else 'broken'}")
        em.emit("boolean-edge-cover", inst, "theory",
                str(2 ** (n - 1) - 1), str(g.vertex_count - size))

        sat = all(
            layer_matching(n, k).covers == ("lower" if k <= n // 2 - 1 else "upper")
            for k in range(1, n - 1)
        )
        em.emit("boolean-layer-matchings", inst, "theory",
                "all saturating", "all saturating" if sat else "saturation failed")

    pl = planarity(g)
    em.emit("boolean-planarity", inst, "theory", str(n <= 4), str(pl.planar))

    if 3 <= n <= PERFECTNESS_CHECK_MAX_N:
        bound = g.vertex_count if g.vertex_count <= 14 else HOLE_SEARCH_BOUND
        verdict, _ = perfectness(g, bound)
        expected = "perfect" if g.vertex_count <= 14 else f"no witness up to length {bound}"
        computed = {True: "perfect", None: f"no witness up to length {bound}"}.get(
            verdict, "odd hole or antihole found")
        em.emit("boolean-perfectness-search", inst,
                "theory" if g.vertex_count <= 14 else "derived", expected, computed)

    layers_ok = True
    vs = list(g.vertices())
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if vs[i].bit_count() == vs[j].bit_count() and g.adjacent(vs[i], vs[j]):
                layers_ok = False
    em.emit("boolean-equal-layers-nonadjacent", inst, "theory",
            "no equal-size adjacency", "no equal-size adjacency" if layers_ok else "violated")

    if n <= AUT_CHECK_MAX_N:
        _boolean_symmetry_checks(n, g, em, inst)


def _boolean_symmetry_checks(n: int, g, em: _Emitter, inst: str) -> None:
    dense = g.dense()
    swap = relabel_automorphism(n, [1, 0] + list(range(2, n)))
    cycle = relabel_automorphism(n, list(range(1, n)) + [0])
    comp = complement_automorphism(n)

    def preserves(a) -> bool:
        return all((dense.adj[a.images[i]] >> a.images[j]) & 1
                   for i in range(dense.size) for j in bits(dense.adj[i]))

    commute = compose(swap, comp).images == compose(comp, swap).images
    ok = preserves(swap) and preserves(cycle) and preserves(comp) and commute
    em.emit("boolean-relabel-complement-automorphisms", inst, "theory",
            "preserve adjacency and commute",
            "preserve adjacency and commute" if ok else "violated")

    report = automorphism_group(g)
    expected_order = 2 if n == 2 else 2 * factorial(n)
    em.emit("boolean-automorphism-order", inst, "theory",
            str(expected_order), str(report.order))

    decomposed = all(a.base_perm is not None for a in report.generators)
    em.emit("boolean-automorphism-decomposition", inst, "theory",
            "all generators decompose",
            "all generators decompose" if decomposed else "some generator resists")

    span = _closure_size([swap.images, cycle.images, comp.images])
    em.emit("boolean-generators-span-group", inst, "theory",
            str(expected_order), str(span))

    vt, et = transitivity(g, report)
    em.emit("boolean-vertex-transitive-iff", inst, "theory",
            str(n in (2, 3)), str(vt))
    em.emit("boolean-edge-transitive-iff", inst, "theory",
            str(n in (2, 3)), str(et))


def _closure_size(generators: list[tuple[int, ...]], cap: int = 10 ** 7) -> int:
    if not generators:
        return 1
    identity = tuple(range(len(generators[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in generators:
                r = tuple(p[j] for j in q)
                if r not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("group closure exceeded its cap")
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# Corpus checks


def _aggregate(em: _Emitter, check_id: str, label: str, provenance: str,
               expected: str, corpus, fn) -> None:
    """fn(table) -> (applicable, ok, detail); one emitted row per corpus.

    ``corpus`` holds (table, weight) pairs: an applicable table adds its
    weight, the number of labeled tables it stands for, to the count. A
    counterexample names the table that failed.
    """
    first_bad = None
    applicable = 0
    for t, weight in corpus:
        app, ok, detail = fn(t)
        if app:
            applicable += weight
            if not ok and first_bad is None:
                rows = json.dumps(t.rows, separators=(",", ":"))
                first_bad = f"{detail} in {rows}"
    instance = f"{label} ({applicable} applicable)"
    if applicable == 0:
        em.emit(check_id, instance, provenance, expected,
                "vacuous: empty graph", vacuous=True)
    elif first_bad is not None:
        em.emit(check_id, instance, provenance, expected,
                f"counterexample: {first_bad}")
    else:
        em.emit(check_id, instance, provenance, expected, expected)


def _union_closed(masks: tuple[int, ...], full: int) -> bool:
    """Whether distinct ``masks`` together with ``full`` are closed under union.

    A member j is join-irreducible when it is not the union of the members
    strictly inside it. Every member is the union of the join-irreducibles
    inside it, and ``full`` absorbs, so x | y folds in y one
    join-irreducible at a time: the family is closed iff x | j is a member
    or ``full`` for every member x and join-irreducible j. From the element
    columns of the family, j is join-irreducible iff some column holding j
    meets none of the members strictly inside j; those lie in no column
    that misses j.
    """
    columns = element_columns(masks)
    everyone = (1 << len(masks)) - 1
    irreducible = []
    for i, m in enumerate(masks):
        bit = 1 << i
        outside = 0
        for c in columns:
            if not c & bit:
                outside |= c
        inside = everyone & ~outside & ~bit
        if any(c & bit and not c & inside for c in columns):
            irreducible.append(m)
    closed = {*masks, full}
    return all(x | j in closed for x in masks for j in irreducible)


def _corpus_checks(corpus: list[tuple[CayleyTable, int]], label: str,
                   em: _Emitter) -> None:
    """Every corpus check over (table, weight) pairs. Each check is
    invariant under relabeling the table, so one representative of an
    isomorphism class, weighted by its orbit size, counts as the whole orbit."""
    cache: dict[int, tuple] = {}

    def data(t: CayleyTable):
        """(family, graph, (components, diameter, girth)); the graph and its
        distances are None when the family is truncated."""
        key = id(t)
        if key not in cache:
            fam = enumerate_left_ideals(t)
            if fam.truncated:
                cache[key] = (fam, None, None)
            else:
                g = build_from_family(fam)
                cache[key] = (fam, g, (*connectivity(g), girth(g)))
        return cache[key]

    def extremes(g):
        """Minimal and maximal ideals by definition, from the containment
        order of the graph rather than from the principal ideals."""
        dense = g.dense()
        order = dense.containment
        return ([m for m, b in zip(dense.masks, order.below) if not b],
                [m for m, a in zip(dense.masks, order.above) if not a])

    def minimals_disjoint(t):
        _, g, _ = data(t)
        if g is None or g.vertex_count == 0:
            return False, True, ""
        ms, _ = extremes(g)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                if ms[i] & ms[j]:
                    return True, False, f"order {t.order}: minimals intersect"
        return True, True, ""

    _aggregate(em, "semigroup-minimals-disjoint", label, "theory",
               "0 counterexamples", corpus, minimals_disjoint)

    def closure_vs_bruteforce(t):
        if t.order > 12:
            return False, True, ""
        fam, _, _ = data(t)
        brute = sorted(
            m for m in range(1, t.full_mask) if is_left_ideal(t, m))
        return True, sorted(fam.masks) == brute, f"order {t.order}: families differ"

    _aggregate(em, "semigroup-ideal-closure-bruteforce", label, "derived",
               "0 counterexamples", corpus, closure_vs_bruteforce)

    def maximality(t):
        _, g, _ = data(t)
        if g is None or g.vertex_count == 0:
            return False, True, ""
        maximal = set(extremes(g)[1])
        for m in g.dense().masks:
            if is_maximal_left_ideal(t, m) != (m in maximal):
                return True, False, f"order {t.order}: ideal {m:#x}"
        return True, True, ""

    _aggregate(em, "semigroup-maximality-lclass", label, "theory",
               "0 counterexamples", corpus, maximality)

    def union_closed(t):
        fam, _, _ = data(t)
        if not fam.ideals:
            return False, True, ""
        if not _union_closed(fam.masks, t.full_mask):
            return True, False, f"order {t.order}: union escapes"
        return True, True, ""

    _aggregate(em, "semigroup-family-union-closed", label, "theory",
               "0 counterexamples", corpus, union_closed)

    def two_minimal_iff(t):
        fam, g, dist = data(t)
        if g is None or g.vertex_count == 0:
            return False, True, ""
        components, _, _ = dist
        disconnected = components >= 2
        minimals = fam.minimal_masks
        union = 0
        for m in minimals:
            union |= m
        char_union = len(minimals) == 2 and union == t.full_mask
        min_and_max = (len(minimals) >= 2
                       and set(fam.minimal_indices) == set(range(len(fam.ideals)))
                       and set(fam.maximal_indices) == set(range(len(fam.ideals))))
        if disconnected == char_union == min_and_max:
            return True, True, ""
        return True, False, (f"order {t.order}: disconnected={disconnected}, "
                             f"two-minimal-union={char_union}, all-min-max={min_and_max}")

    _aggregate(em, "graph-disconnected-iff-two-minimal", label, "theory",
               "0 counterexamples", corpus, two_minimal_iff)

    def disconnected_edgeless(t):
        _, g, dist = data(t)
        if g is None or g.vertex_count == 0:
            return False, True, ""
        components, _, _ = dist
        if components >= 2 and g.edge_count() != 0:
            return True, False, f"order {t.order}: disconnected with edges"
        return True, True, ""

    _aggregate(em, "graph-disconnected-implies-edgeless", label, "theory",
               "0 counterexamples", corpus, disconnected_edgeless)

    def diameter_bound(t):
        _, g, dist = data(t)
        if g is None or g.vertex_count == 0:
            return False, True, ""
        components, diameter, _ = dist
        if components == 1 and diameter > 3:
            return True, False, f"order {t.order}: diameter {diameter}"
        return True, True, ""

    _aggregate(em, "graph-diameter-bound", label, "theory",
               "0 counterexamples", corpus, diameter_bound)

    def girth_class(t):
        _, g, dist = data(t)
        if g is None or g.vertex_count == 0:
            return False, True, ""
        _, _, gv = dist
        if gv not in (3, 6, float("inf")):
            return True, False, f"order {t.order}: girth {gv}"
        return True, True, ""

    _aggregate(em, "graph-girth-classification", label, "theory",
               "0 counterexamples", corpus, girth_class)

    def no_45_girth(t):
        _, g, dist = data(t)
        if g is None or g.vertex_count == 0:
            return False, True, ""
        _, _, gv = dist
        return True, gv not in (4, 5), f"order {t.order}: girth {gv}"

    _aggregate(em, "graph-no-4-5-girth", label, "theory",
               "0 counterexamples", corpus, no_45_girth)

    def perfect_bounded(t):
        _, g, _ = data(t)
        if g is None or g.vertex_count == 0:
            return False, True, ""
        if g.vertex_count > 20:
            return False, True, ""
        verdict, witness = perfectness(g, g.vertex_count)
        return True, verdict is True, f"order {t.order}: witness {witness}"

    _aggregate(em, "graph-perfect-bounded", label, "theory",
               "0 counterexamples", corpus, perfect_bounded)

    def clique_union_criterion(t):
        fam, g, _ = data(t)
        if g is None or not fam.ideals:
            return False, True, ""
        minimals = fam.minimal_masks
        n_min = len(minimals)
        union = 0
        for m in minimals:
            union |= m
        omega, _ = clique_number(g)
        if union == t.full_mask:
            ok = omega == n_min - 1
        else:
            ok = (omega == n_min) == is_maximal_left_ideal(t, union)
        return True, ok, (f"order {t.order}: omega={omega}, minimals={n_min}, "
                          f"union-is-S={union == t.full_mask}")

    _aggregate(em, "graph-clique-union-criterion", label, "theory",
               "0 counterexamples", corpus, clique_union_criterion)

    def planar_minimals(t):
        # Contrapositive: more than 4 minimal ideals forces nonplanarity.
        fam, g, _ = data(t)
        if g is None or len(fam.minimal_masks) <= 4:
            return False, True, ""
        if planarity(g).planar:
            return True, False, f"order {t.order}: planar with {len(fam.minimal_masks)} minimals"
        return True, True, ""

    _aggregate(em, "graph-planar-minimals-bound", label, "theory",
               "0 counterexamples", corpus, planar_minimals)

    def cs_boolean_model(t):
        fam, g, _ = data(t)
        if g is None or not is_completely_simple(t) or not fam.ideals:
            return False, True, ""
        try:
            n, coords = minimal_ideal_coordinates(fam)
        except ValueError as e:
            return True, False, f"order {t.order}: {e}"
        if n < 2:
            return True, False, (f"order {t.order}: completely simple with {n} "
                                 "minimal ideal but a nonempty family")
        ok = coords == tuple(build_boolean(n).vertices())
        return True, ok, f"order {t.order}: coordinates differ"

    _aggregate(em, "completely-simple-boolean-model", label, "theory",
               "0 counterexamples", corpus, cs_boolean_model)


# ---------------------------------------------------------------------------
# Named-instance checks


def _named_checks(em: _Emitter) -> None:
    for n in range(3, 9):
        fam = enumerate_left_ideals(catalog.right_zero(n))
        got_n, coords = minimal_ideal_coordinates(fam)
        expected = tuple(build_boolean(n).vertices())
        em.emit("right-zero-boolean-bridge", f"right-zero({n})", "derived",
                f"n={n}, all nonempty proper subsets",
                f"n={got_n}, {'all nonempty proper subsets' if coords == expected else 'mismatch'}")

    for n in (3, 4):
        with_id = build_from_family(
            enumerate_left_ideals(catalog.right_zero_with_identity(n)))
        plain = build_from_family(enumerate_left_ideals(catalog.right_zero(n)))
        om_id, _ = clique_number(with_id)
        om_plain, _ = clique_number(plain)
        em.emit("clique-number-with-identity", f"right-zero({n}) with/without identity",
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
    structured named instances of weight 1."""
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
              corpus_label: str = "corpus", include_named: bool | None = None,
              corrupt_check_id: str | None = None) -> SuiteResult:
    """Run the registered checks.

    With no arguments (``scope all``): Boolean sizes 2..8, the built-in
    corpus, and the named instances. Passing ``boolean_ns`` or ``corpus``
    narrows the scope to just that part; each table of ``corpus`` has
    weight 1. Every check is deterministic. The vertex cap is read once for
    the whole run, or taken from the enclosing command.
    """
    em = _Emitter(corrupt_check_id=corrupt_check_id)
    weighted = None if corpus is None else [(t, 1) for t in corpus]
    with command_vertex_cap():
        if boolean_ns is None and corpus is None:
            boolean_ns = DEFAULT_BOOLEAN_RANGE
            weighted, corpus_label = builtin_corpus()
            if include_named is None:
                include_named = True
        if boolean_ns is not None:
            for n in boolean_ns:
                _boolean_checks(n, em)
        if weighted is not None:
            _corpus_checks(weighted, corpus_label, em)
        if include_named:
            _named_checks(em)
    passed = sum(1 for c in em.checks if c.verdict == "pass")
    failed = sum(1 for c in em.checks if c.verdict == "fail")
    vacuous = sum(1 for c in em.checks if c.verdict == "vacuous")
    return SuiteResult(checks=em.checks, passed=passed, failed=failed,
                       vacuous=vacuous)
