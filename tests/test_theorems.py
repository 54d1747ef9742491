"""The executable check suite: registry, verdicts, determinism."""

from pathlib import Path

from idealgraph import cyclic_group, enumerate_left_ideals, right_zero, run_suite, theorems
from idealgraph.semigroup import IdealFamily
from idealgraph.theorems import REGISTRY, builtin_corpus

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


def test_union_escaping_the_family_is_a_counterexample(monkeypatch):
    # Right-zero of order 4 has every proper subset as a left ideal; without
    # {0, 1} the family is not closed under the union of {0} and {1}.
    family = enumerate_left_ideals(right_zero(4))
    ideals = tuple(i for i in family.ideals if i.members != 0b0011)
    holed = IdealFamily(4, ideals, tuple(range(4)),
                        tuple(k for k, i in enumerate(ideals) if i.size == 3), False)
    monkeypatch.setattr(theorems, "enumerate_left_ideals", lambda t: holed)
    result = run_suite(corpus=[right_zero(4)], corpus_label="holed")
    row, = (c for c in result.checks if c.check_id == "semigroup-family-union-closed")
    assert row.verdict == "fail"
    assert row.computed == "counterexample: order 4: union escapes"


def test_corrupted_expected_fails_only_that_check():
    result = run_suite(corpus=[right_zero(3)], corpus_label="self-test",
                       corrupt_check_id="graph-girth-classification")
    bad = [c for c in result.checks if c.verdict == "fail"]
    assert len(bad) == 1
    assert bad[0].check_id == "graph-girth-classification"
    assert result.exit_code == 1


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
    tables, label = builtin_corpus()
    by_order: dict[int, int] = {}
    for t in tables[:3614]:
        by_order[t.order] = by_order.get(t.order, 0) + 1
    # labeled associative tables: 1, 8, 113, 3492 for orders 1..4
    assert by_order[1] == 1
    assert by_order[2] == 8
    assert by_order[3] == 113
    assert by_order[4] == 3492


def test_table_rendering():
    result = run_suite(boolean_ns=range(2, 4))
    table = result.to_table()
    assert table.splitlines()[0].startswith("check")
    assert f"passed: {result.passed}" in table
