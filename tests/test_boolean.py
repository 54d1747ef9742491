"""The Boolean model's mask route (``idealgraph.boolean``): the numbers of
the dense solvers, checks that reject corrupted witnesses (also under
``python -O``), and no adjacency built."""

import json
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from idealgraph import InvariantReport, boolean, build_boolean, compute_report
from idealgraph.cli import INVARIANT_FLAGS, main
from idealgraph.graph import InclusionGraph
from idealgraph.invariants import report_document as dense_document
from idealgraph.report import SELECTIONS

DATA = Path(__file__).parent / "data"
NUMBERS = [k for k in InvariantReport._fields if k not in ("witnesses", "methods")]


def test_flags_and_report_keys_are_one_list():
    assert tuple(SELECTIONS) == INVARIANT_FLAGS


@pytest.mark.parametrize("n", range(boolean.MIN_N, 14))
def test_mask_route_matches_the_dense_solvers(n):
    g = build_boolean(n)
    masks = boolean.report_document(g)
    selected = {flag: boolean.report_document(g, {flag}) for flag in SELECTIONS}
    assert g._dense is None
    dense = compute_report(g).to_jsonable()
    assert {k: masks[k] for k in NUMBERS} == {k: dense[k] for k in NUMBERS}
    # Every witness but the matching is the dense route's, and the matching
    # is perfect: a different maximum matching.
    got, want = dict(masks["witnesses"]), dict(dense["witnesses"])
    pairs = got.pop("matching")
    want.pop("matching")
    assert got == want
    boolean.check_matching(pairs, n)
    assert len(pairs) == masks["matching_number"]
    for flag, doc in selected.items():
        assert doc == dense_document(g, {flag}), flag


def test_each_flag_prints_the_recorded_document(capsys):
    # Recorded from the per-flag selector the report functions replaced: every
    # single flag at n = 4 and 7 and on the 2x6 band, and --all at n = 4 (n = 7
    # and the band with --all are goldens of their own).
    band = str(DATA / "rectangular_band_2x6.txt")
    recorded = json.loads((DATA / "golden" / "invariants_flags.json").read_text(encoding="utf-8"))
    assert len(recorded) == 31
    for key, want in recorded.items():
        assert main([a.replace("{band}", band) for a in key.split()]) == 0
        assert capsys.readouterr().out == want, key


# Each case corrupts one witness of Boolean n = 6; run as a script so that it
# also runs under python -O, which strips assert statements.
REJECTIONS = """
from idealgraph import boolean
n = 6
full = (1 << n) - 1
first, *rest = boolean.symmetric_chains(n)
chains = [first[1:-1], *rest]
single = next(c for c in chains if len(c) == 1)  # a middle set alone
other = next(m for c in chains if len(c) > 1 for m in c if m.bit_count() == n // 2)
pairs = boolean.perfect_matching(n)
colouring = {m: m.bit_count() for m in range(1, full)}
swap = {v: v ^ (v & -v) ^ (~v & (v + 1)) for v in range(1, full)}
lower = boolean.layer_matching(n, 2)  # saturates layer 2
upper = boolean.layer_matching(n, 3)  # saturates layer 4
cases = {
    "partition drops a vertex": lambda: boolean.check_chain_partition(chains[1:], n),
    "partition repeats a vertex": lambda: boolean.check_chain_partition(
        [[other] if c is single else c for c in chains], n),
    "chain not ordered by containment": lambda: boolean.check_chain_partition(
        [c[::-1] for c in chains], n),
    "matching pair not nested": lambda: boolean.check_matching(
        [(b, a) if i == 0 else (a, b) for i, (a, b) in enumerate(pairs)], n),
    "matching pair twice": lambda: boolean.check_matching(pairs[:-1] + pairs[:1], n),
    "comparable 'incomparable' witness": lambda: boolean.check_domination(
        (1, full ^ 1), {**swap, 1: 3}.items(), n),
    "undominated vertex": lambda: boolean.check_domination((1, 2), swap.items(), n),
    "vertex with no witness": lambda: boolean.check_domination(
        (1, full ^ 1), list(swap.items())[1:], n),
    "nested sets in one colour class": lambda: boolean.check_colouring(
        {**colouring, 3: 1}, n, n - 1),
    "too many colours": lambda: boolean.check_colouring(colouring, n, n - 2),
    "far pair adjacent": lambda: boolean.check_far_pair(1, 3, range(1, full)),
    "far pair with a common neighbour": lambda: boolean.check_far_pair(1, 2, range(1, full)),
    "layer pair not a cover": lambda: boolean.check_layer_matching(lower._replace(
        pairs=((3, 0b11100),) + lower.pairs[1:])),  # {1, 2} not in {3, 4, 5}
    "layer side unsaturated": lambda: boolean.check_layer_matching(upper._replace(
        pairs=upper.pairs[:-1])),
    "layer side not the prescribed one": lambda: boolean.check_layer_matching(upper._replace(
        covers="lower")),
}
for name, case in cases.items():
    try:
        case()
    except RuntimeError as e:
        print(name, "|", str(e).partition(":")[0])
    else:
        print(name, "| accepted")
boolean.check_chain_partition(chains, n)
boolean.check_matching(pairs, n)
boolean.check_domination((1, full ^ 1), swap.items(), n)
boolean.check_colouring(colouring, n, n - 1)
boolean.check_far_pair(1, full ^ 1, range(1, full))
boolean.check_layer_matching(lower)
boolean.check_layer_matching(upper)
print("intact witnesses pass")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_checks_reject_corrupted_witnesses(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", REJECTIONS], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "partition drops a vertex | independence certificate failed",
        "partition repeats a vertex | independence certificate failed",
        "chain not ordered by containment | independence certificate failed",
        "matching pair not nested | matching certificate failed",
        "matching pair twice | matching certificate failed",
        "comparable 'incomparable' witness | domination certificate failed",
        "undominated vertex | domination certificate failed",
        "vertex with no witness | domination certificate failed",
        "nested sets in one colour class | colouring certificate failed",
        "too many colours | colouring certificate failed",
        "far pair adjacent | diameter certificate failed",
        "far pair with a common neighbour | diameter certificate failed",
        "layer pair not a cover | layer matching certificate failed",
        "layer side unsaturated | layer matching certificate failed",
        "layer side not the prescribed one | layer matching certificate failed",
        "intact witnesses pass",
    ]


@pytest.mark.parametrize("n", [7, 8])
def test_one_chain_recursion_per_report(n, monkeypatch, capsys):
    # The antichain's decomposition of [n] is one de Bruijn step from that of
    # [n - 1]; the matching pairs along one of the two.
    calls = []
    real = boolean.symmetric_chains
    monkeypatch.setattr(boolean, "symmetric_chains", lambda k: calls.append(k) or real(k))
    assert main(["invariants", "--n", str(n), "--all"]) == 0
    assert calls == [n - 1]
    assert json.loads(capsys.readouterr().out)["witnesses"]["matching"] == [
        list(p) for p in boolean.perfect_matching(n)]
    assert calls == [n - 1, n if n % 2 else n - 1]


def test_a_failed_check_exits_3(monkeypatch, capsys):
    # Symmetric chains short of one chain leave vertices unmatched and
    # uncovered: the CLI exits 3 with one stderr line.
    real = boolean.symmetric_chains
    monkeypatch.setattr(boolean, "symmetric_chains", lambda n: real(n)[:-1])
    for flag, what in (("--matching", "matching"), ("--independence", "independence")):
        assert main(["invariants", "--n", "8", flag]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: internal failure: RuntimeError: {what} certificate failed: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["invariants", "--n", "11", "--all"],
    ["invariants", "--n", "12"],
    ["invariants", "--n", "12", "--clique", "--chromatic", "--independence"],
    ["invariants", "--n", "5", "--all"],
])
def test_mask_route_builds_no_adjacency(argv, monkeypatch, capsys):
    calls = []
    real = InclusionGraph.dense

    def spy(self):
        calls.append(self.n)
        return real(self)

    monkeypatch.setattr(InclusionGraph, "dense", spy)
    assert main(argv) == 0
    capsys.readouterr()
    n = int(argv[2])
    if n >= boolean.MIN_N:
        assert calls == []
    else:  # the dense solvers answer, which shows that the spy sees them
        assert calls and set(calls) == {n}


def boolean_closed_forms(n: int) -> dict:
    """The paper's closed forms for the Boolean model on n >= 6 points."""
    v = 2 ** n - 2
    return {"vertex_count": v, "edge_count": 3 ** n - 3 * 2 ** n + 3, "connected": True,
            "components": 1, "diameter": 3, "girth": 3, "clique_number": n - 1,
            "chromatic_number": n - 1, "independence_number": comb(n, n // 2),
            "vertex_cover_number": v - comb(n, n // 2), "matching_number": v // 2,
            "edge_cover_number": v // 2, "domination_number": 2, "eulerian": True,
            "bipartite": False, "triangulated": True, "planar": False, "perfect": True}


def test_n16_all_matches_the_closed_forms(capsys):
    assert main(["invariants", "--n", "16", "--all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {k: doc[k] for k in NUMBERS} == boolean_closed_forms(16)
    witnesses = doc["witnesses"]
    assert len(witnesses["coloring"]) == 2 ** 16 - 2
    assert len(witnesses["independent_set"]) == comb(16, 8)
    assert len(witnesses["matching"]) == 2 ** 15 - 1


def test_domination_past_the_search_cap(capsys):
    # The domination cap bounds the dense search; the mask route searches
    # nothing, so n = 17 (131,070 vertices) answers where the dense route
    # refuses.
    assert main(["invariants", "--n", "17", "--domination"]) == 0
    assert json.loads(capsys.readouterr().out) == {"domination_number": 2}
