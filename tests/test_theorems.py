"""The executable check suite: registry, verdicts, determinism."""

import functools
import gc
import itertools
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraph import (catalog, connectivity, cyclic_group, enumerate_left_ideals, girth,
                        graph, right_zero, run_suite, theorems)
from idealgraph.cli import main
from idealgraph.graph import DenseGraph, build_boolean
from idealgraph.theorems import REGISTRY, builtin_corpus
from oracles import (containment_by_pairwise_scan, enumerate_associative_tables,
                     holed_right_zero_4, pairwise_inclusion_graph, union_closed_pairwise)

MANIFEST = Path(__file__).parent / "data" / "theorem_manifest.txt"


def test_registry_matches_manifest():
    manifest = set(MANIFEST.read_text().split())
    assert set(REGISTRY) == manifest


def test_boolean_scope_passes():
    result = run_suite(boolean_ns=range(2, 6))
    assert result.failed == 0
    assert result.exit_code == 0
    assert result.passed > 0
    ids = {c.check_id for c in result.checks}
    assert "boolean-order" in ids and "boolean-automorphism-order" in ids
    # corpus and named checks stay out of a boolean-only scope
    assert not any(i.startswith("semigroup-") for i in ids)


def test_corpus_scope_small():
    result = run_suite(corpus=[right_zero(3), right_zero(2), cyclic_group(4)],
                       corpus_label="unit corpus")
    assert result.failed == 0
    ids = {c.check_id for c in result.checks}
    assert "graph-disconnected-iff-two-minimal" in ids
    assert not any(i.startswith("boolean-") for i in ids)


def test_empty_graph_corpus_is_vacuous():
    result = run_suite(corpus=[cyclic_group(3)], corpus_label="one group")
    assert result.failed == 0
    vacuous = {c.check_id for c in result.checks if c.verdict == "vacuous"}
    assert "graph-disconnected-iff-two-minimal" in vacuous
    assert "graph-girth-classification" in vacuous
    for c in result.checks:
        if c.verdict == "vacuous":
            assert "vacuous" in c.computed
    # vacuous rows are not silently counted as passes
    assert result.vacuous == len(vacuous)
    assert result.passed + result.failed + result.vacuous == len(result.checks)


def graph_case(masks):
    """The corpus case of the inclusion graph of ``masks``, with no table
    behind it: the distance and girth rows read only the graph's numbers."""
    g = pairwise_inclusion_graph(masks)
    return theorems._Case(None, None, g, *connectivity(g), girth(g))


def test_diameter_row_reports_a_fence():
    # {1} < {1,2} > {2} < {2,3} > {3}, a path of diameter 4, which no
    # left-ideal family reaches: connectivity certifies it, and the row
    # reports the counterexample rather than an internal failure.
    c = graph_case((0b1, 0b10, 0b100, 0b11, 0b110))
    assert (c.components, c.diameter) == (1, 4)
    assert theorems._diameter_bound(c) == "diameter 4"


def test_girth_rows_report_a_four_cycle():
    # {1} and {2} both lie below {1,2,3} and {1,2,4}: a C4 with no 3-chain.
    c = graph_case((0b1, 0b10, 0b111, 0b1011))
    assert c.girth == 4
    assert theorems._girth_class(c) == theorems._no_45_girth(c) == "girth 4"


def test_edgeless_row_reports_a_disconnected_graph_with_an_edge():
    # {1} < {1,2} and {4}: two components, one of them an edge.
    c = graph_case((0b1, 0b11, 0b100))
    assert c.components == 2
    assert theorems._disconnected_edgeless(c) == "disconnected with edges"
    assert theorems._disconnected_edgeless(graph_case((0b1, 0b10))) == ""


def test_union_escaping_the_family_is_a_counterexample(monkeypatch):
    # The package builds no graph of a family with a hole; the test's own
    # graph of its masks stands in for it.
    holed = holed_right_zero_4()
    case = theorems._Case(right_zero(4), holed, pairwise_inclusion_graph(holed.masks))
    assert theorems._family_union_closed(case) == "union escapes"
    monkeypatch.setattr(theorems, "enumerate_left_ideals", lambda t: holed)
    monkeypatch.setattr(theorems, "build_from_family", lambda fam: types.SimpleNamespace(
        dense=lambda: pairwise_inclusion_graph(fam.masks)))
    result = run_suite(corpus=[right_zero(4)], corpus_label="holed")
    row, = (c for c in result.checks if c.check_id == "semigroup-family-union-closed")
    assert row.verdict == "fail"
    assert row.computed == ("counterexample: order 4: union escapes in "
                            "[[0,1,2,3],[0,1,2,3],[0,1,2,3],[0,1,2,3]]")


def test_family_with_a_hole_is_an_internal_failure(monkeypatch, tmp_path, capsys):
    # The codes of a family with a hole are no family of down-sets: the
    # containment build raises, naming the code, and verify exits 3 with
    # one line on stderr.
    holed = holed_right_zero_4()
    with pytest.raises(RuntimeError, match="^code 0x7 has no stored parent 0x3$"):
        graph.containment_adjacency(holed.codes)
    (tmp_path / "right_zero_4.txt").write_text("4\n" + "0 1 2 3\n" * 4)
    monkeypatch.setattr(theorems, "enumerate_left_ideals", lambda t: holed)
    assert main(["verify", "--corpus", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal failure: RuntimeError: "
                            "code 0x7 has no stored parent 0x3\n")


def unions(generators):
    """Every union of a nonempty subset of the generators."""
    return {functools.reduce(int.__or__, combo)
            for r in range(1, len(generators) + 1)
            for combo in itertools.combinations(generators, r)}


FULL = (1 << 7) - 1
masks7 = st.integers(min_value=0, max_value=FULL)


@st.composite
def mask_families(draw):
    """Distinct masks on seven elements in any order: the unions of a few
    generators, without S, often with one member dropped (a hole when the
    member is a union of others); or an arbitrary set of masks."""
    if draw(st.booleans()):
        family = sorted(unions(draw(st.lists(masks7, min_size=1, max_size=6))) - {FULL})
        if family and draw(st.booleans()):
            family.pop(draw(st.integers(min_value=0, max_value=len(family) - 1)))
    else:
        family = sorted(draw(st.sets(masks7, max_size=24)))
    draw(st.randoms()).shuffle(family)
    return tuple(family)


@settings(max_examples=400, deadline=None)
@given(mask_families())
def test_join_irreducible_union_check_matches_pairwise_scan(masks):
    below = containment_by_pairwise_scan(masks)[0]
    assert theorems._union_closed(masks, FULL, below) == union_closed_pairwise(masks, FULL)


def test_join_irreducible_union_check_reads_a_graphs_order():
    # The corpus row passes the graph's ``below`` instead of building it.
    families = [enumerate_left_ideals(t).masks for t, _ in builtin_corpus()[0]]
    families += [(0b1, 0b10, 0b100, 0b11, 0b101), (0b11, 0b110)]  # holes
    verdicts = set()
    for masks in families:
        if masks:
            dense = pairwise_inclusion_graph(masks)
            want = union_closed_pairwise(dense.masks, FULL)
            assert theorems._union_closed(dense.masks, FULL, dense.containment.below) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_closure_size_counts_the_group_and_keeps_its_cap():
    # S4 from a transposition and a 4-cycle; the cyclic group of the cycle;
    # and a cap one below the order, which the closure must still enforce.
    swap, cycle = (1, 0, 2, 3), (1, 2, 3, 0)
    assert theorems._closure_size([swap, cycle]) == 24
    assert theorems._closure_size([cycle]) == 4
    assert theorems._closure_size([swap, cycle], cap=24) == 24
    with pytest.raises(RuntimeError, match="cap"):
        theorems._closure_size([swap, cycle], cap=23)


def test_join_irreducible_union_check_on_pinned_and_truncated_families():
    # Closed chains and lattices, holes, and the capped prefixes of the
    # right-zero family (every proper subset is a left ideal), which are
    # truncated for every cap below 62.
    pinned = [((), True), ((0b1,), True), ((0b1, 0b10), False), ((0b1, 0b10, 0b11), True),
              ((0b1, 0b11, 0b111), True), ((0b11, 0b110), False),
              ((0b11, 0b110, 0b111), True), ((0b1, 0b10, 0b100, 0b11, 0b101), False)]
    for masks, want in pinned:
        below = containment_by_pairwise_scan(masks)[0]
        assert theorems._union_closed(masks, FULL, below) == want
        assert union_closed_pairwise(masks, FULL) == want
    t = right_zero(6)
    verdicts = set()
    for cap in range(1, 63):
        fam = enumerate_left_ideals(t, cap=cap)
        assert fam.truncated == (cap < 62)
        want = union_closed_pairwise(fam.masks, t.full_mask)
        below = containment_by_pairwise_scan(fam.masks)[0]
        assert theorems._union_closed(fam.masks, t.full_mask, below) == want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, cap", [(10, 100), (16, 2000)])
def test_truncated_family_fails_no_row(monkeypatch, n, cap):
    # A capped prefix of the right-zero family is not union-closed, and
    # misses ideals a brute-force scan finds; a row that needs the whole
    # family does not apply to it.
    capped = functools.partial(enumerate_left_ideals, cap=cap)
    monkeypatch.setattr(theorems, "enumerate_left_ideals", capped)
    assert capped(right_zero(n)).truncated
    result = run_suite(corpus=[right_zero(n)], corpus_label="capped")
    assert result.failed == 0
    assert result.vacuous == len(result.checks)


def test_corrupted_expected_fails_only_that_check(monkeypatch):
    monkeypatch.setattr(theorems, "girth", lambda g: 7)
    result = run_suite(corpus=[right_zero(3)], corpus_label="self-test")
    bad = [c for c in result.checks if c.verdict == "fail"]
    assert len(bad) == 1
    assert bad[0].check_id == "graph-girth-classification"
    assert result.exit_code == 1


def test_broken_layer_matching_fails_its_row(monkeypatch):
    # The row runs the layer matching's checker: a matching that drops a
    # pair fails the row, and the suite still runs to the end.
    from idealgraph import boolean
    real = boolean.check_layer_matching
    monkeypatch.setattr(boolean, "check_layer_matching",
                        lambda lm: real(lm._replace(pairs=lm.pairs[:-1])))
    result = run_suite(boolean_ns=range(5, 6), corpus=[])
    bad = [c for c in result.checks if c.verdict == "fail"]
    assert [c.check_id for c in bad] == ["boolean-layer-matchings"]
    assert bad[0].computed.startswith("layer matching certificate failed: ")
    assert result.exit_code == 1


def test_default_suite_emits_every_registered_row():
    assert {c.check_id for c in run_suite().checks} == set(REGISTRY)


def test_corpus_pass_holds_one_graph_at_a_time(monkeypatch):
    # Each new build finds every earlier table's materialized graph, which
    # its case holds, already collected.
    real = theorems.build_from_family
    built = []
    alive_at_build = []

    def recording(family):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        g = real(family)
        built.append(weakref.ref(g.dense()))
        return g

    monkeypatch.setattr(theorems, "build_from_family", recording)
    corpus = [t for t, _ in catalog.small_semigroup_corpus(3)] + [right_zero(4), right_zero(5)]
    assert run_suite(corpus=corpus, corpus_label="small").failed == 0
    assert len(built) > 20
    assert alive_at_build == [0] * len(built)


@pytest.mark.parametrize("u,v", [(1, 2), (3, 5), (7, 11)])
def test_equal_layers_row_reports_an_injected_edge(monkeypatch, u, v):
    # One edge between two subsets of equal size, injected where the row
    # reads the graph: only that row fails. The other rows see the real graph.
    real = theorems._equal_layers_nonadjacent

    def injected(dense):
        adj = list(dense.adj)
        i, j = dense.masks.index(u), dense.masks.index(v)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        return real(DenseGraph(adj, dense.masks))

    assert real(build_boolean(4).dense())
    monkeypatch.setattr(theorems, "_equal_layers_nonadjacent", injected)
    failed = [(c.check_id, c.computed) for c in run_suite(boolean_ns=[4]).checks
              if c.verdict != "pass"]
    assert failed == [("boolean-equal-layers-nonadjacent", "violated")]


def test_json_deterministic():
    a = run_suite(boolean_ns=range(2, 5)).to_json()
    b = run_suite(boolean_ns=range(2, 5)).to_json()
    assert a == b


def test_provenance_tags_present():
    result = run_suite(boolean_ns=range(3, 5))
    assert {c.provenance for c in result.checks} <= {"theory", "trivial", "derived"}
    for c in result.checks:
        assert c.verdict in ("pass", "fail", "vacuous")


def test_builtin_corpus_counts():
    corpus, label = builtin_corpus()
    assert label == "m<=4 exhaustive + 10 named instances"
    classes: dict[int, int] = {}
    orbit_sums: dict[int, int] = {}
    for t, weight in corpus[:-10]:
        classes[t.order] = classes.get(t.order, 0) + 1
        orbit_sums[t.order] = orbit_sums.get(t.order, 0) + weight
    # semigroups up to isomorphism (A027851) and labeled tables (A023814)
    assert classes == {1: 1, 2: 5, 3: 24, 4: 188}
    assert orbit_sums == {1: 1, 2: 8, 3: 113, 4: 3492}
    assert all(weight == 1 for _, weight in corpus[-10:])


def suite_rows(corpus):
    checks = []
    theorems._corpus_checks(corpus, "corpus", checks)
    return [(c.check_id, c.instance, c.expected, c.computed, c.verdict)
            for c in checks]


@functools.cache
def labeled_rows():
    """Rows over every labeled table of order <= 4, each of weight 1, plus
    the named instances."""
    named = builtin_corpus()[0][-10:]
    return suite_rows([(t, 1) for m in range(1, 5)
                       for t in enumerate_associative_tables(m)] + named)


def test_classes_with_orbit_weights_match_the_labeled_corpus():
    rows = suite_rows(builtin_corpus()[0])
    assert rows == labeled_rows()
    assert len(rows) == 13 and all(r[4] == "pass" for r in rows)


def test_unit_weights_undercount_the_labeled_corpus():
    # The weights carry the counts: one per class reports other numbers.
    unit = suite_rows([(t, 1) for t, _ in builtin_corpus()[0]])
    assert [r[1] for r in unit] != [r[1] for r in labeled_rows()]


def test_counterexample_names_the_table(monkeypatch):
    monkeypatch.setattr(theorems, "girth", lambda g: 4)
    rows = suite_rows(builtin_corpus()[0])
    row, = (r for r in rows if r[0] == "graph-girth-classification")
    first = next(t for t, _ in builtin_corpus()[0] if len(enumerate_left_ideals(t).ideals))
    assert row[3] == (f"counterexample: order {first.order}: girth 4 in "
                      + str([list(r) for r in first.rows]).replace(" ", ""))


def test_default_verify_fails_on_a_corrupted_class_count(monkeypatch, capsys):
    real = catalog._lex_leaders
    monkeypatch.setattr(catalog, "_lex_leaders",
                        lambda m: itertools.islice(real(m), 1, None) if m == 4 else real(m))
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal failure: RuntimeError: order 4: 187 classes "
                            "with orbit sum 3488, expected 188 and 3492\n")


def test_run_suite_reads_the_vertex_cap_once(monkeypatch):
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(graph, "os", type("os", (), {"environ": Environ()}))
    assert run_suite(boolean_ns=range(2, 6)).failed == 0
    assert reads == ["IDEALGRAPH_MAX_VERTICES"]


def test_table_rendering():
    result = run_suite(boolean_ns=range(2, 4))
    table = result.to_table()
    assert table.splitlines()[0].startswith("check")
    assert f"passed: {result.passed}" in table
