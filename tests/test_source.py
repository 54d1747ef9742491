"""Rules on the package source itself."""

import ast
import sys
from pathlib import Path

import pytest

import idealgraph

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "idealgraph"


def test_package_has_no_assert_statements():
    # Checks in the package raise real exceptions, so that they still run
    # under python -O, which strips assert statements.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def imports(node, top: str) -> bool:
    """Whether the AST node imports the package ``top`` or one of its modules."""
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return False
    return any(name.partition(".")[0] == top for name in names)


def package_imports(top: str) -> list[str]:
    """file:line of every import of ``top`` in the package, at module level
    or inside a function."""
    return [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if imports(node, top)]


def test_no_module_imports_networkx():
    # networkx is a test oracle, not a dependency.
    assert imports(ast.parse("from networkx.algorithms import planarity").body[0], "networkx")
    assert any(imports(node, "networkx") for node in ast.walk(ast.parse(
        "def f():\n    import networkx as nx\n")))
    assert package_imports("networkx") == []


def test_no_module_imports_dataclasses():
    # Records are NamedTuples or plain classes: importing dataclasses loads
    # inspect, ast and dis, and each decorated class execs generated code,
    # start-up that every command would pay.
    assert imports(ast.parse("from dataclasses import dataclass").body[0], "dataclasses")
    assert package_imports("dataclasses") == []


def indented_json_calls(source: str) -> list[int]:
    """Lines of ``json.dump``/``json.dumps`` calls (or bare ``dump``/``dumps``)
    that pass ``indent=``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
            and any(kw.arg == "indent" for kw in node.keywords)]


def test_no_module_writes_json_through_the_indenting_encoder():
    # With indent set, json.dumps runs its pure-Python encoder; every JSON
    # document goes through jsontext._json_text, which writes the same text.
    assert indented_json_calls("import json\njson.dumps(d, indent=2)\n") == [2]
    assert indented_json_calls("from json import dump\ndump(d, f, indent=1)\n") == [2]
    assert indented_json_calls("json.dumps(d, separators=(',', ':'))\n") == []
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in indented_json_calls(path.read_text(encoding="utf-8"))]
    assert found == []


def test_public_names_resolve_to_their_defining_modules():
    assert len(idealgraph.__all__) == len(set(idealgraph.__all__)) >= 60
    for name in idealgraph.__all__:
        obj = getattr(idealgraph, name)
        assert obj.__module__.startswith("idealgraph.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(idealgraph.__all__) <= set(dir(idealgraph))
    assert "__version__" in dir(idealgraph)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        idealgraph.no_such_name


def inclusion_graph_callers(source: str) -> list[str]:
    """The top-level function around each ``InclusionGraph(...)`` call, or
    ``<module>`` for a call outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(
                    child.func, "attr", getattr(child.func, "id", None)) == "InclusionGraph":
                found.append(owner)
            visit(child, child.name if owner == "<module>" and isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_inclusion_graphs_come_only_from_complete_families_and_n():
    # Every generic graph comes from a complete ideal family, a distributive
    # lattice, which is what the containment build and the planarity bound
    # rely on: only the two builders construct an InclusionGraph.
    assert inclusion_graph_callers(
        "def f():\n    return g.InclusionGraph('boolean', n=2)\n"
        "class C:\n    def m(self):\n        InclusionGraph()\nInclusionGraph()\n"
    ) == ["f", "C", "<module>"]
    found = {f"{path.name}:{owner}" for path in sorted(PACKAGE.glob("*.py"))
             for owner in inclusion_graph_callers(path.read_text(encoding="utf-8"))}
    assert found == {"graph.py:build_boolean", "graph.py:build_from_family"}
