"""The J route of ``invariants FILE``: a table whose join-irreducibles J are
an antichain is answered as the Boolean model on |J| points, with each
witness mapped back to the table's left ideals. Its numbers must be the
dense route's, and its witnesses must be left ideals of the table in the
relations each invariant claims. Commands that build a table's graph refuse
a J too wide for the ideal cap before the walk."""

import itertools
import json

import pytest

from idealgraph import (build_from_family, catalog, enumerate_left_ideals, is_left_ideal,
                        join_irreducibles, rectangular_band, right_zero,
                        right_zero_with_identity, serialize_cayley_table)
from idealgraph import graph, semigroup
from idealgraph.catalog import small_semigroup_corpus
from idealgraph.cli import main
from idealgraph.invariants import report_document as dense_document
from idealgraph.report import SELECTIONS, invariants_document
from oracles import benchmark_tables, shuffled_table

VALUES = ("witnesses", "methods")


def comparable(a, b):
    c = a & b
    return a != b and (c == a or c == b)


def dense_route(t, select=()):
    return dense_document(build_from_family(enumerate_left_ideals(t)), select)


def check_witnesses(t, doc):
    """Every mask of every witness in ``doc`` is a nontrivial left ideal of
    ``t``, and each witness has the size its number claims and the relation
    its invariant needs, read by the subset predicate."""
    vertices = set(enumerate_left_ideals(t).masks)
    w = doc["witnesses"]
    for m in itertools.chain(w["clique"], w["coloring"], w["independent_set"],
                             itertools.chain.from_iterable(w["matching"]),
                             w["dominating_set"]):
        assert m in vertices and is_left_ideal(t, m) and m != t.full_mask
    clique = w["clique"]
    assert len(clique) == doc["clique_number"]
    assert all(comparable(a, b) for a, b in itertools.combinations(clique, 2))
    coloring = w["coloring"]
    assert set(coloring) == vertices
    assert len(set(coloring.values())) == doc["chromatic_number"]
    assert not any(comparable(a, b) for a, b in itertools.combinations(coloring, 2)
                   if coloring[a] == coloring[b])
    antichain = w["independent_set"]
    assert len(set(antichain)) == doc["independence_number"]
    assert not any(comparable(a, b) for a, b in itertools.combinations(antichain, 2))
    pairs = w["matching"]
    ends = [m for p in pairs for m in p]
    assert len(pairs) == doc["matching_number"] and len(set(ends)) == len(ends)
    assert all(comparable(a, b) for a, b in pairs)
    dom = w["dominating_set"]
    assert len(dom) == doc["domination_number"]
    assert all(v in dom or any(comparable(v, d) for d in dom) for v in vertices)
    if doc["planar"]:
        rotation = w["embedding"]
        assert set(rotation) == vertices
        assert all(sorted(rot) == sorted(u for u in vertices if comparable(u, v))
                   for v, rot in rotation.items())
    else:
        k = w["kuratowski"]
        assert all(a in vertices and b in vertices and comparable(a, b) for a, b in k["edges"])


def check_j_route(t):
    """The J route's document against the dense route's, for a table whose
    J is an antichain of at least two members."""
    joins = join_irreducibles(t)
    assert joins.antichain and len(joins.masks) >= 2
    doc, want = invariants_document(None, t, ()), dense_route(t)
    assert list(doc) == list(want)
    assert {k: v for k, v in doc.items() if k not in VALUES} == \
        {k: v for k, v in want.items() if k not in VALUES}
    check_witnesses(t, doc)
    assert doc["vertex_count"] == (1 << len(joins.masks)) - 2


def antichain_tables(tables):
    return [t for t in tables if join_irreducibles(t).antichain
            and len(join_irreducibles(t).masks) >= 2]


def test_j_route_matches_the_dense_route_on_every_class_of_order_4():
    tables = antichain_tables(t for t, _ in small_semigroup_corpus(4))
    assert sorted(len(join_irreducibles(t).masks) for t in tables) == [2, 2, 2, 3, 4]
    for t in tables:
        check_j_route(t)


def test_j_route_matches_the_dense_route_on_the_benchmark_tables():
    tables = benchmark_tables(seeds=(101,))
    wide = antichain_tables(tables)
    assert sorted(len(join_irreducibles(t).masks) for t in wide) == [5, 6, 8, 9, 10]
    for t in wide:
        check_j_route(t)
    # Any other J takes the dense route, witnesses and all.
    for t in tables:
        if t not in wide:
            assert invariants_document(None, t, ()) == dense_route(t)


@pytest.mark.parametrize("w", range(2, 11))
def test_j_route_matches_the_dense_route_on_shuffled_bands(w):
    for seed in range(2):
        for t in (right_zero(w), rectangular_band(2, w), rectangular_band(3, w)):
            check_j_route(shuffled_table(t, seed))


@pytest.mark.parametrize("w", (3, 5, 6, 7))
def test_each_flag_of_the_j_route_is_the_dense_route(w):
    t = shuffled_table(rectangular_band(2, w), w)
    for flag in SELECTIONS:
        assert invariants_document(None, t, {flag}) == dense_route(t, {flag}), flag


def test_j_route_walks_nothing_and_builds_no_adjacency(monkeypatch, capsys, tmp_path):
    # band_2x16 (65,534 vertices) and right-zero 20 (1,048,574) answer with
    # no enumeration and no dense() call.
    def refuse(*args, **kwargs):
        raise AssertionError("the J route walked or built adjacency")

    monkeypatch.setattr(semigroup, "enumerate_left_ideals", refuse)
    monkeypatch.setattr(graph.InclusionGraph, "dense", refuse)
    band = tmp_path / "band_2x16.txt"
    band.write_text(serialize_cayley_table(rectangular_band(2, 16)), encoding="utf-8")
    assert main(["invariants", str(band), "--all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["vertex_count"], doc["clique_number"], doc["independence_number"]) == (
        65534, 15, 12870)
    zeros = tmp_path / "right_zero_20.txt"
    zeros.write_text(serialize_cayley_table(right_zero(20)), encoding="utf-8")
    assert main(["invariants", str(zeros), "--clique", "--chromatic"]) == 0
    assert json.loads(capsys.readouterr().out) == {"clique_number": 19, "chromatic_number": 19}


def test_j_route_refuses_past_the_vertex_cap(monkeypatch, capsys, tmp_path):
    # The cap binds as for --n, and past n = 62 it still names the count.
    monkeypatch.delenv("IDEALGRAPH_MAX_VERTICES", raising=False)
    band = tmp_path / "band_2x6.txt"
    band.write_text(serialize_cayley_table(rectangular_band(2, 6)), encoding="utf-8")
    assert main(["--max-vertices", "61", "invariants", str(band), "--clique"]) == 2
    assert capsys.readouterr().err == "error: 62 vertices exceed the cap of 61\n"
    assert main(["--max-vertices", "61", "invariants", "--n", "6", "--clique"]) == 2
    assert capsys.readouterr().err == "error: 62 vertices exceed the cap of 61\n"
    zeros = tmp_path / "right_zero_64.txt"
    zeros.write_text(serialize_cayley_table(right_zero(64)), encoding="utf-8")
    assert main(["invariants", str(zeros), "--clique"]) == 2
    assert capsys.readouterr().err == (
        f"error: {(1 << 64) - 2} vertices exceed the cap of {graph.DEFAULT_VERTEX_CAP}\n")


def test_unions_map_codes_to_the_family():
    # Each J-code of the walk maps to its own ideal.
    for t in (shuffled_table(rectangular_band(3, 5), 1), right_zero(7)):
        fam = enumerate_left_ideals(t)
        assert list(map(join_irreducibles(t).unions(), fam.codes)) == list(fam.masks)


@pytest.mark.parametrize("argv", [
    ["graph", "{zeros}"], ["aut", "{zeros}"], ["invariants", "{with_identity}", "--clique"],
    ["invariants", "{with_identity}", "--all"],
])
def test_a_wide_j_is_refused_before_the_walk(argv, monkeypatch, capsys, tmp_path):
    # Right-zero 20 has 20 principal left ideals of one size, so at least
    # 2^20 - 2 > 10^6 left ideals: refused at once, with no walk. With an
    # identity, J is not an antichain and the dense route refuses the same.
    files = {"zeros": right_zero(20), "with_identity": right_zero_with_identity(20)}
    for name, t in files.items():
        (tmp_path / f"{name}.txt").write_text(serialize_cayley_table(t), encoding="utf-8")
    argv = [a.format(**{k: tmp_path / f"{k}.txt" for k in files}) for a in argv]

    def refuse(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(semigroup, "enumerate_left_ideals", refuse)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: 20 principal left ideals of one size give at least 2^20 - 2 left ideals, "
        "past the ideal cap of 1000000\n")


def test_ideals_keeps_its_truncated_prefix(capsys, tmp_path):
    zeros = tmp_path / "right_zero_20.txt"
    zeros.write_text(serialize_cayley_table(right_zero(20)), encoding="utf-8")
    assert main(["ideals", str(zeros), "--max-ideals", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["count"], doc["truncated"]) == (5, True)


def test_widest_layer_bounds_the_family():
    # 2^w - 2 never exceeds the number of nontrivial left ideals.
    for t, _ in small_semigroup_corpus(4):
        w = join_irreducibles(t).widest_layer
        assert (1 << w) - 2 <= len(enumerate_left_ideals(t).ideals)
    assert join_irreducibles(catalog.null_semigroup(5)).widest_layer == 4
