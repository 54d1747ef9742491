"""CLI behavior: formats, exit codes, determinism."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraph import (graph, invariants, rectangular_band, right_zero_with_identity, semigroup,
                        serialize_cayley_table, symmetry)
from idealgraph.cli import main
from idealgraph.graph import DEFAULT_VERTEX_CAP, vertex_cap
from idealgraph.jsontext import _json_text
from oracles import export_dot_document, first_nonassociative_triple

RIGHT_ZERO_3 = "3\n0 1 2\n0 1 2\n0 1 2\n"
NULL_3 = "3\n0 0 0\n0 0 0\n0 0 0\n"
NOT_ASSOC = "2\n1 1\n0 0\n"
Z3 = "3\n0 1 2\n1 2 0\n2 0 1\n"
DATA = Path(__file__).parent / "data"


@pytest.fixture
def table_file(tmp_path):
    def write(text, name="table.txt"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)
    return write


def test_validate_ok(table_file, capsys):
    assert main(["validate", table_file(RIGHT_ZERO_3)]) == 0
    out = capsys.readouterr().out
    assert "valid semigroup of order 3" in out


def test_validate_not_associative(table_file, capsys):
    assert main(["validate", table_file(NOT_ASSOC)]) == 2
    err = capsys.readouterr().err
    assert "(0, 0, 0)" in err


def test_validate_reports_lex_first_witness_at_order_200(table_file, capsys):
    rows = [list(r) for r in rectangular_band(40, 5).rows]
    rows[199][150] = 196
    text = "".join(f"{' '.join(map(str, r))}\n" for r in rows)
    a, b, c = first_nonassociative_triple(rows)
    # Light's test only meets failures at generators; this witness is not one.
    assert b not in semigroup._generating_set(200, rows, tuple(zip(*rows)))
    assert main(["validate", table_file(f"200\n{text}")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not associative, witness triple ({a}, {b}, {c})\n"


def test_validate_malformed(table_file, capsys):
    assert main(["validate", table_file("2\n0 1\n")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.txt"]) == 2


def test_ideals_json(table_file, capsys):
    assert main(["ideals", table_file(NULL_3)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3
    assert doc["minimal"] == [1]
    assert not doc["truncated"]


def test_ideals_truncation_reported(table_file, capsys):
    assert main(["ideals", table_file(RIGHT_ZERO_3), "--max-ideals", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truncated"] is True
    assert doc["count"] <= 4


def test_graph_dot_n3(capsys):
    assert main(["graph", "--n", "3", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph In {")
    assert dot.count(";") == 6 + 6  # six vertices, six edges
    assert "I_1 -- I_12;" in dot


def test_graph_json_from_file(table_file, capsys):
    assert main(["graph", table_file(NULL_3), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "generic"
    assert len(doc["vertices"]) == 3
    assert len(doc["edges"]) == 2


def test_graph_output_file(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["graph", "--n", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["edges"] == []
    assert capsys.readouterr().out == ""


def test_graph_requires_one_source(capsys):
    with pytest.raises(SystemExit) as e:
        main(["graph"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["graph", "somefile", "--n", "3"])
    assert e.value.code == 2


def test_graph_out_of_range(capsys):
    assert main(["graph", "--n", "1"]) == 2


def test_invariants_all_n4(capsys):
    assert main(["invariants", "--n", "4", "--all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diameter"] == 3
    assert doc["girth"] == 3
    assert doc["clique_number"] == 3
    assert doc["chromatic_number"] == 3
    assert doc["independence_number"] == 6
    assert doc["domination_number"] == 2
    assert doc["eulerian"] is True
    assert doc["planar"] is True
    assert doc["perfect"] is True


def test_invariants_selected_flags(capsys):
    assert main(["invariants", "--n", "3", "--girth", "--matching"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"girth": 6, "matching_number": 3, "perfect_matching": True}


def test_invariants_inf_encoding(capsys):
    assert main(["invariants", "--n", "2", "--diameter", "--girth"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"components": 2, "diameter": "inf", "girth": "inf"}


def test_aut_n3(capsys):
    assert main(["aut", "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 12
    assert doc["structure"] == "S3 x Z2"
    assert doc["vertex_transitive"] is True and doc["edge_transitive"] is True
    for gen in doc["generators"]:
        assert gen["complemented"] in (True, False)
        assert sorted(gen["relabeling"]) == [0, 1, 2]


def test_construct_outputs(capsys):
    assert main(["construct", "--n", "4", "--perfect-matching"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["perfect_matching"]) == 7

    assert main(["construct", "--n", "4", "--dominating-set"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dominating_set": [1, 14]}

    assert main(["construct", "--n", "4", "--max-chain"]) == 0
    assert json.loads(capsys.readouterr().out) == {"maximum_chain": [1, 3, 7]}

    assert main(["construct", "--n", "4", "--layer-matching", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["covers"] == "lower" and len(doc["pairs"]) == 4


@pytest.mark.parametrize("argv,err", [
    (["--n", "24", "--perfect-matching"], "16777214 vertices exceed the cap of 1000"),
    (["--n", "28", "--dominating-set"], "268435454 vertices exceed the cap of 1000"),
    (["--n", "40", "--layer-matching", "20"], "1099511627774 vertices exceed the cap of 1000"),
    (["--n", "100", "--max-chain"], "n must be in [2, 62], got 100"),
    (["--n", "2", "--perfect-matching"], "need n >= 3, got 2"),
    (["--n", "5", "--layer-matching", "4"], "need 1 <= k <= n-2, got n=5 k=4"),
])
def test_construct_refuses_past_the_cap_and_the_range(argv, err, monkeypatch, capsys):
    # Refused before any certificate is built: no symmetric chain, no vertex.
    from idealgraph import boolean

    def refuse(*args):
        raise AssertionError("certificate built past the cap")
    monkeypatch.setattr(boolean, "symmetric_chains", refuse)
    monkeypatch.setattr(boolean, "_Masks", refuse)
    assert main(["--max-vertices", "1000", "construct", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_verify_boolean_range(capsys):
    assert main(["verify", "--boolean", "2..4"]) == 0
    out = capsys.readouterr().out
    assert "passed:" in out and "failed: 0" in out


def test_verify_rejects_an_empty_boolean_range(capsys):
    assert main(["verify", "--boolean", "5..2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --boolean 5..2 is an empty range\n"


class Pair(NamedTuple):
    low: object
    high: object


class LoudInt(int):
    def __repr__(self):
        return "LoudInt()"

    __str__ = __repr__


class LoudFloat(float):
    def __repr__(self):
        return "LoudFloat()"

    __str__ = __repr__


class LoudStr(str):
    def __repr__(self):
        return "LoudStr()"

    __str__ = __repr__


# Scalars json writes, subclasses included; keys of every kind json accepts.
specials = st.sampled_from([float("inf"), -float("inf"), float("nan"), -0.0, LoudInt(7),
                            LoudFloat(2.5), LoudFloat("inf"), LoudStr("plain"), LoudStr("\t"),
                            "\u00e9\x00\n\"\\\U0001f600", "\x7f", "a\\b", 'say "hi"'])
scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text() | specials
keys = st.none() | st.booleans() | st.integers() | st.floats() | st.text() | specials
ints = st.integers(-(1 << 70), 1 << 70)
# The shapes the writer templates: int lists, equal-length int rows (lists,
# tuples or both), int -> int dicts, lists of dicts with the same str keys
# and int values, each also with a bool mixed in (and the dicts' keys also
# in another order).
row_keys = st.lists(st.text(max_size=3) | st.sampled_from(["%d", "%", 'q"', "\u00e9"]),
                    max_size=3, unique=True)
dict_rows = row_keys.flatmap(lambda ks: st.lists(st.tuples(
    st.just(ks) | st.permutations(ks), st.lists(ints, min_size=len(ks), max_size=len(ks))
    | st.lists(ints | st.booleans(), min_size=len(ks), max_size=len(ks))).map(
        lambda row: dict(zip(*row))), max_size=6))
templated = (st.lists(ints | st.booleans()) | dict_rows
             | st.integers(0, 3).flatmap(lambda k: st.lists(
                 st.lists(ints, min_size=k, max_size=k)
                 | st.tuples(*[ints] * k) | st.lists(ints | st.booleans(), min_size=k,
                                                      max_size=k), max_size=6))
             | st.dictionaries(ints | st.booleans(), ints | st.booleans(), max_size=6))
documents = st.recursive(
    scalars | templated,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.builds(Pair, inner, inner)
                   | st.dictionaries(keys, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_json_text_is_json_dumps_with_indent(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {"ideals": [{"mask": 3, "size": 2}, {"mask": 12, "size": 2}, {"mask": 15, "size": 4}]},
    # keys that need escaping, or a % sign in the template
    [{'say "hi"': 1, "\u00e9": -2, "a\\b": 3, "%d%%": 4, "\t": 5}] * 3,
    # the same keys in another order
    [{"mask": 3, "size": 2}, {"size": 2, "mask": 12}],
    # a bool among the values, or as every value
    [{"mask": 3, "size": 2}, {"mask": 12, "size": True}],
    [{"a": False, "b": True}, {"a": True, "b": False}],
    # other keys, no keys, a subclass of int
    [{"mask": 3}, {"mask": 12, "size": 2}], [{}, {}], [{"a": LoudInt(7)}, {"a": 1}],
])
def test_json_text_writes_dict_rows_as_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [object(), [1, {2}], {(1, 2): 3}, {"a": b"x"}])
def test_json_text_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        _json_text(doc)


def test_verify_json_deterministic(capsys):
    assert main(["verify", "--boolean", "2..3", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--boolean", "2..3", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"checks", "passed", "failed", "vacuous"}
    assert doc["failed"] == 0


def test_verify_corpus_dir(tmp_path, capsys):
    (tmp_path / "z3.txt").write_text(Z3, encoding="utf-8")
    assert main(["verify", "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "vacuous" in out


def test_verify_corpus_bad_file(tmp_path, capsys):
    (tmp_path / "bad.txt").write_text("junk\n", encoding="utf-8")
    assert main(["verify", "--corpus", str(tmp_path)]) == 2


def test_verify_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--boolean", "3..3", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["failed"] == 0


def test_verify_json_to_stdout_and_file_serializes_once(tmp_path, capsys, monkeypatch):
    from idealgraph import theorems
    calls = []
    to_json = theorems.SuiteResult.to_json
    monkeypatch.setattr(theorems.SuiteResult, "to_json",
                        lambda self: calls.append(1) or to_json(self))
    out = tmp_path / "report.json"
    assert main(["verify", "--boolean", "3..3", "--format", "json", "-o", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")
    assert len(calls) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "idealgraph.cli", "invariants", "--n", "3", "--girth"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"girth": 6}


def test_graph_dot_n10_fresh_process(tmp_path):
    # Compared as lists of lines: pytest's diff of two megabyte strings
    # takes minutes.
    want = export_dot_document(graph.build_boolean(10)).encode().splitlines(True)
    cmd = [sys.executable, "-m", "idealgraph.cli", "graph", "--n", "10", "--format", "dot"]
    proc = subprocess.run(cmd, capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines(True) == want
    out = tmp_path / "in10.dot"
    proc = subprocess.run([*cmd, "-o", str(out)], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == b""
    assert out.read_bytes().splitlines(True) == want


def test_max_vertices_cap(capsys):
    # A tiny cap makes materialization refuse; subprocess keeps the
    # environment override out of this process.
    proc = subprocess.run(
        [sys.executable, "-m", "idealgraph.cli", "--max-vertices", "5",
         "graph", "--n", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "exceed" in proc.stderr


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_bad_max_vertices_environment(value, monkeypatch, capsys):
    monkeypatch.setenv("IDEALGRAPH_MAX_VERTICES", value)
    assert main(["graph", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: IDEALGRAPH_MAX_VERTICES must be a positive integer, "
                   f"got {value!r}\n")


@pytest.mark.parametrize("value,cap", [("+5", 5), ("1_000", 1000), (" 7 ", 7)])
def test_max_vertices_environment_takes_int_literals(value, cap, monkeypatch):
    monkeypatch.setenv("IDEALGRAPH_MAX_VERTICES", value)
    assert vertex_cap() == cap


def test_vertex_cap_binds_aut_above_it(monkeypatch, capsys):
    # The automorphism cap cannot lift the hard vertex cap, and the refusal
    # comes before any group computation.
    def refuse(dense):
        raise AssertionError("group computed despite the vertex cap")
    monkeypatch.setattr(symmetry, "_refine_colors", refuse)
    monkeypatch.setenv("IDEALGRAPH_MAX_VERTICES", "20")
    assert main(["aut", "--n", "5", "--aut-cap", "100"]) == 2
    assert capsys.readouterr().err == "error: 30 vertices exceed the cap of 20\n"


def test_max_vertices_does_not_outlive_the_call(monkeypatch, capsys):
    band = str(DATA / "rectangular_band_2x6.txt")
    monkeypatch.delenv("IDEALGRAPH_MAX_VERTICES", raising=False)
    assert main(["--max-vertices", "5", "validate", band]) == 0
    assert vertex_cap() == DEFAULT_VERTEX_CAP
    assert main(["--max-vertices", "5", "graph", "--n", "4"]) == 2
    assert vertex_cap() == DEFAULT_VERTEX_CAP
    monkeypatch.setenv("IDEALGRAPH_MAX_VERTICES", "40")
    assert main(["--max-vertices", "5", "validate", band]) == 0
    assert vertex_cap() == 40


def test_vertex_cap_is_read_once_per_command(monkeypatch, capsys):
    # verify builds hundreds of graphs and calls dense() on each many times;
    # the environment is read once, when the command starts.
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(graph, "os", type("os", (), {"environ": Environ(
        IDEALGRAPH_MAX_VERTICES="5000")}))
    assert main(["verify", "--boolean", "2..5"]) == 0
    assert reads == ["IDEALGRAPH_MAX_VERTICES"]
    assert main(["--max-vertices", "40", "invariants", "--n", "5", "--all"]) == 0
    assert reads == ["IDEALGRAPH_MAX_VERTICES"]
    assert main(["invariants", "--n", "13", "--diameter"]) == 2
    assert capsys.readouterr().err == "error: 8190 vertices exceed the cap of 5000\n"


def test_perfect_flag_takes_the_report_route(capsys):
    # Boolean n=6 has 62 vertices, past any exhaustive hole search; it is
    # perfect as a comparability graph, in --perfect as in --all.
    assert main(["invariants", "--n", "6", "--perfect"]) == 0
    assert json.loads(capsys.readouterr().out) == {"perfect": True}
    assert main(["invariants", "--n", "6", "--all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["perfect"] is True and doc["methods"]["perfectness"] == "comparability"


def test_perfect_flag_builds_no_graph(monkeypatch, capsys):
    # The verdict needs no vertex in memory, only the vertex count under
    # the cap: Boolean n=15 has 32,766 vertices, none built.
    from idealgraph import graph
    loaded = []
    real = graph.build_boolean

    def recording(n):
        loaded.append(real(n))
        return loaded[-1]

    monkeypatch.setattr(graph, "build_boolean", recording)
    assert main(["invariants", "--n", "15", "--perfect"]) == 0
    assert json.loads(capsys.readouterr().out) == {"perfect": True}
    assert [g.vertex_count for g in loaded] == [32766]
    assert loaded[0]._dense is None


def test_aut_builds_no_adjacency(monkeypatch, capsys):
    # The Boolean group comes from the masks: at n=12 (4,094 vertices) no
    # dense() call, no search over the vertices.
    from idealgraph import cli
    loaded = []
    real = cli._load_graph

    def recording(args):
        loaded.append(real(args))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_graph", recording)
    assert main(["aut", "--n", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["order"], doc["structure"]) == (958003200, "S12 x Z2")
    assert [g.vertex_count for g in loaded] == [4094]
    assert loaded[0]._dense is None


def test_perfect_flag_keeps_the_vertex_cap(monkeypatch, capsys):
    monkeypatch.delenv("IDEALGRAPH_MAX_VERTICES", raising=False)
    assert main(["invariants", "--n", "23", "--perfect"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 8388606 vertices exceed the cap of 4194304\n"


def test_no_command_imports_networkx(tmp_path):
    # Planarity is decided in the package: from a 5-chain (Boolean n=6 and
    # n=7, the 62-vertex band), a K3,3 subgraph (Boolean n=5) or by path
    # addition (the planar Boolean n <= 4 and default verify's planar rows).
    # networkx is a test oracle only.
    corpus = band_corpus(tmp_path)
    band = str(DATA / "rectangular_band_2x6.txt")
    cases = [["--help"], ["aut", "--n", "4"], ["graph", "--n", "5"],
             ["ideals", band], ["validate", band], ["invariants", "--n", "7", "--all"],
             ["invariants", "--n", "6", "--all"], ["invariants", "--n", "5", "--planarity"],
             ["verify", "--corpus", str(corpus)], ["invariants", "--n", "4", "--planarity"],
             ["verify"]]
    assert run_in_one_process(cases) == [f"{argv[0]} 0 False" for argv in cases]


def test_commands_run_with_networkx_unimportable(tmp_path):
    # With every import of networkx made to fail, the verify and invariants
    # jobs of the benchmark still succeed: the package has no runtime
    # dependency.
    cases = [["verify"], ["verify", "--corpus", str(band_corpus(tmp_path))],
             ["invariants", "--n", "4", "--all"], ["invariants", "--n", "11", "--all"]]
    assert run_in_one_process(cases, block_networkx=True) == [
        f"{argv[0]} 0 False" for argv in cases]


def band_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(DATA / "rectangular_band_2x6.txt", corpus)
    return corpus


# The package modules each benchmark command loads besides the package and
# its CLI; networkx would be listed too. A command compiles only what it runs:
# the semigroup layer only where it reads a table, path addition (planar) only
# where a graph has neither a 5-chain nor a K3,3, and the dense solvers and
# their matching kernels not for Boolean invariants from n = 6 on, nor for a
# table whose J is an antichain of six or more, nor for ``construct``, which
# come from the masks (``boolean``). No command loads
# dataclasses or inspect, and none loads json: the graph export and the JSON
# writer (jsontext, loaded by the commands that print a JSON document) write
# their text themselves, and the writer imports json only for a string that
# needs escaping.
TABLE_ONLY = ["errors", "semigroup"]
GRAPH = ["errors", "graph"]
SOLVERS = ["bipartite", "errors", "graph", "invariants", "matching", "report"]
MASKS = ["boolean", "errors", "graph", "report"]


@pytest.mark.parametrize("argv,loaded", [
    (["--help"], ["errors"]),
    (["validate", "{band}"], TABLE_ONLY),
    (["ideals", "{band}"], TABLE_ONLY + ["jsontext"]),
    (["graph", "--n", "11"], GRAPH),
    (["aut", "--n", "7"], GRAPH + ["jsontext", "symmetry"]),
    (["invariants", "--n", "11", "--all"], MASKS + ["jsontext"]),
    (["invariants", "--n", "12", "--clique", "--chromatic", "--independence"],
     MASKS + ["jsontext"]),
    (["invariants", "--n", "5", "--all"], SOLVERS + ["boolean", "jsontext"]),
    (["invariants", "{band}", "--all"], MASKS + ["jsontext", "semigroup"]),
    (["verify", "--corpus", "{corpus}"], SOLVERS + ["semigroup", "theorems"]),
    (["verify"], SOLVERS + ["boolean", "catalog", "planar", "semigroup", "symmetry",
                            "theorems"]),
    (["construct", "--n", "6", "--perfect-matching"], MASKS + ["jsontext"]),
    (["construct", "--n", "6", "--dominating-set"], MASKS + ["jsontext"]),
    (["construct", "--n", "6", "--max-chain"], MASKS + ["jsontext"]),
    (["construct", "--n", "6", "--layer-matching", "2"], MASKS + ["jsontext"]),
    (["graph", "--n", "11", "--format", "dot"], GRAPH),
    (["invariants", "{chain}", "--all"], SOLVERS + ["jsontext", "semigroup"]),
])
def test_each_command_loads_only_what_it_runs(argv, loaded, tmp_path):
    # The 2x6 band's J is an antichain, so it takes the mask route; the
    # right-zero semigroup of order 5 with an identity has S in J above the
    # rest, so it takes the dense solvers (and has a 5-chain: no path addition).
    band, corpus = DATA / "rectangular_band_2x6.txt", band_corpus(tmp_path)
    chain = tmp_path / "right_zero_identity_5.txt"
    chain.write_text(serialize_cayley_table(right_zero_with_identity(5)), encoding="utf-8")
    argv = [a.format(band=band, corpus=corpus, chain=chain) for a in argv]
    script = (
        "import contextlib, os, sys\n"
        "from idealgraph.cli import main\n"
        "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
        "    try:\n"
        f"        rc = main({argv!r})\n"
        "    except SystemExit as e:\n"
        "        rc = e.code\n"
        "print(rc, *sorted(m.partition('.')[2] for m in sys.modules\n"
        "                  if m.startswith('idealgraph.') and m != 'idealgraph.cli'),\n"
        "      *[m for m in ('networkx', 'dataclasses', 'inspect', 'json')\n"
        "        if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", *sorted(loaded)]


def run_in_one_process(cases, block_networkx=False):
    """Run the CLI cases in order in one fresh process, where importing
    networkx fails if ``block_networkx``; one line per case: command, exit
    code, whether networkx has been imported by then."""
    script = (
        "import contextlib, io, sys\n"
        f"if {block_networkx!r}:\n"
        "    sys.modules['networkx'] = None\n"
        "from idealgraph.cli import main\n"
        f"for argv in {cases!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            rc = main(argv)\n"
        "        except SystemExit as e:\n"
        "            rc = e.code\n"
        "    print(argv[0], rc, sys.modules.get('networkx') is not None)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_internal_failure_exit_code(monkeypatch, capsys):
    # A failed identity check is an internal failure: exit 3 and one line on
    # stderr, never a traceback or the verification-failure code 1.
    real = invariants.chromatic_number

    def one_colour_short(dense):
        chi, coloring = real(dense)
        return chi - 1, coloring

    monkeypatch.setattr(invariants, "chromatic_number", one_colour_short)
    assert main(["invariants", "--n", "5", "--all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal failure: RuntimeError: "
                            "identity failed: clique number exceeds chromatic number\n")
