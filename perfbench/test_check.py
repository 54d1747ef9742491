"""Tests for the benchmark's output checker and corpus generator.

Run with ``python3 -m pytest perfbench``. They need neither the package nor
a benchmark run: outputs are built here, then tampered with, and every
tampered output must count as a failed job.
"""

import json
from math import comb

import check
import corpus


def table(rows, summary=None):
    """Render rows the way ``verify`` prints them."""
    head = ("check", "instance", "verdict", "expected", "computed")
    allrows = [head] + rows
    widths = [max(len(r[i]) for r in allrows) for i in range(5)]
    lines = ["  ".join(r[i].ljust(widths[i]) for i in range(5)).rstrip() for r in allrows]
    if summary is None:
        verdicts = [r[2] for r in rows]
        summary = (f"passed: {verdicts.count('pass')}  failed: {verdicts.count('fail')}"
                   f"  vacuous: {verdicts.count('vacuous')}")
    return "\n".join(lines + [summary]) + "\n"


GOOD_ROWS = [
    ("boolean-order", "boolean n=4", "pass", "14 vertices", "14 vertices"),
    ("graph-perfect-bounded", "corpus (0 applicable)", "vacuous", "0 counterexamples",
     "vacuous: empty graph"),
]


def run(checker, out, job_id="job", returncode=0, timed_out=False, repeats=None):
    return check.check_job(checker, repeats or check.Repeats(), job_id, returncode,
                           timed_out, out.encode())


def test_verify_table_accepts_passing_rows():
    assert run(check.verify_table, table(GOOD_ROWS)) is None


def test_verify_table_counts_a_failed_row():
    bad = GOOD_ROWS + [("boolean-girth", "boolean n=4", "fail", "3", "4")]
    assert "failed" in run(check.verify_table, table(bad))


def test_verify_table_catches_a_summary_that_hides_a_failure():
    bad = GOOD_ROWS + [("boolean-girth", "boolean n=4", "fail", "3", "4")]
    out = table(bad, summary="passed: 1  failed: 0  vacuous: 1")
    assert "disagrees" in run(check.verify_table, out)


def boolean_doc(n):
    doc = check.boolean_closed_forms(n)
    doc.update(components=1, witnesses={}, methods={})
    return doc


def test_boolean_invariants_closed_forms():
    good = boolean_doc(11)
    assert good["independence_number"] == comb(11, 5) == 462
    assert good["edge_count"] == 3 ** 11 - 3 * 2 ** 11 + 3
    checker = check.boolean_invariants(11)
    assert run(checker, json.dumps(good)) is None
    for key, wrong in (("diameter", 4), ("planar", True), ("matching_number", 1022)):
        assert key in run(checker, json.dumps(dict(good, **{key: wrong})))


def test_selected_invariants_must_match_the_selection():
    keys = ("clique_number", "chromatic_number", "independence_number")
    checker = check.boolean_invariants(12, keys)
    good = {"clique_number": 11, "chromatic_number": 11, "independence_number": 924}
    assert run(checker, json.dumps(good)) is None
    assert run(checker, json.dumps(dict(good, clique_number=12))) is not None
    assert run(checker, json.dumps(dict(good, girth=3))) is not None


def test_aut_order_and_structure():
    checker = check.boolean_aut(7)
    good = {"order": 10080, "structure": "S7 x Z2", "vertex_transitive": False,
            "edge_transitive": False, "generators": []}
    assert run(checker, json.dumps(good)) is None
    assert "order" in run(checker, json.dumps(dict(good, order=5040)))
    assert "structure" in run(checker, json.dumps(dict(good, structure="other")))


def test_graph_export_counts():
    n = 4
    masks = [m for k in range(1, n) for m in range(1, 2 ** n - 1) if bin(m).count("1") == k]
    edges = [[i, j] for i in range(len(masks)) for j in range(i + 1, len(masks))
             if masks[i] & masks[j] in (masks[i], masks[j])]
    doc = {"mode": "boolean", "n": n,
           "vertices": [{"id": i, "mask": m} for i, m in enumerate(masks)], "edges": edges}
    checker = check.boolean_graph(n)
    assert run(checker, json.dumps(doc)) is None
    doc["edges"] = edges[1:]
    assert "edges" in run(checker, json.dumps(doc))


def test_exit_code_timeout_and_garbage_fail():
    checker = check.boolean_invariants(11)
    good = json.dumps(boolean_doc(11))
    assert "exit code" in run(checker, good, returncode=1)
    assert "timed out" in run(checker, good, timed_out=True)
    assert "JSON" in run(checker, good[:-5])


def test_repeat_with_different_stdout_fails():
    repeats = check.Repeats()
    out = table(GOOD_ROWS)
    assert run(check.verify_table, out, repeats=repeats) is None
    assert run(check.verify_table, out, repeats=repeats) is None
    tampered = out.replace("14 vertices", "14 vertices ")
    assert "repeat" in run(check.verify_table, tampered, repeats=repeats)


def associative(rows):
    m = len(rows)
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a in range(m) for b in range(m) for c in range(m))


def test_corpus_is_seeded_and_relabels_isomorphically(tmp_path):
    one = corpus.write_corpus(tmp_path / "a", 7)
    again = corpus.write_corpus(tmp_path / "b", 7)
    other = corpus.write_corpus(tmp_path / "c", 8)
    assert one == again and one["tables"] == other["tables"]
    name = "band_3x10.txt"
    text = (tmp_path / "a" / name).read_text()
    assert text == (tmp_path / "b" / name).read_text()
    assert text != (tmp_path / "c" / name).read_text()
    rows = [list(map(int, line.split())) for line in text.splitlines()[1:]]
    assert associative(rows)
    entry = one["tables"][name]
    assert (entry["order"], entry["ideals"]) == (30, 2 ** 10 - 2)
    assert entry["boolean"] == check.boolean_closed_forms(10)


def test_tables_checks_use_the_manifest(tmp_path):
    manifest = corpus.write_corpus(tmp_path, 1)["tables"]
    entry = manifest["band_3x10.txt"]
    masks = list(range(entry["ideals"]))
    doc = {"order": 30, "count": entry["ideals"], "truncated": False,
           "ideals": [{"mask": m} for m in masks],
           "minimal": masks[:10], "maximal": masks[-10:]}
    assert run(check.table_ideals(entry), json.dumps(doc)) is None
    assert "count" in run(check.table_ideals(entry), json.dumps(dict(doc, count=1021)))
    big = manifest["band_40x5.txt"]
    text = (tmp_path / "band_40x5.txt").read_text()
    checker = check.table_validate(big, text)
    good = "valid semigroup of order 200\n" + text
    assert run(checker, good) is None
    tampered = good[:-2] + ("1" if good[-2] == "0" else "0") + "\n"
    assert run(checker, tampered) is not None
