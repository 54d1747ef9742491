"""CLI stdout compared byte for byte with recorded outputs.

The files under ``data/golden`` pin every witness and colouring, not only
the invariant values: a solver change that picks a different (still valid)
chain, antichain, Kuratowski subgraph or automorphism generator fails here.
The rectangular band's K5 witness comes from the containment chain, not
from networkx; its ``ideals`` output pins the order of the minimal and
maximal lists, and the Boolean ``graph`` outputs pin the edge order in
JSON and DOT.
"""

from pathlib import Path

import pytest

from idealgraph.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "invariants_n7_all": ["invariants", "--n", "7", "--all"],
    "invariants_n8_chains": ["invariants", "--n", "8", "--clique", "--chromatic",
                             "--independence"],
    "invariants_band2x6_all": ["invariants", str(DATA / "rectangular_band_2x6.txt"),
                               "--all"],
    "aut_n5": ["aut", "--n", "5"],
    "aut_n6": ["aut", "--n", "6"],
    "ideals_band2x6": ["ideals", str(DATA / "rectangular_band_2x6.txt")],
    "graph_n4": ["graph", "--n", "4", "--format", "json"],
    "graph_n4_dot": ["graph", "--n", "4", "--format", "dot"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name, capsys):
    assert main(CASES[name]) == 0
    [path] = (DATA / "golden").glob(f"{name}.*")
    want = path.read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
