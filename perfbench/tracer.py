"""Run one idealgraph CLI job with spans recorded from outside the package.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py --out SPANS.json --job JOB_ID -- <cli args>

Before the job runs, every public module-level function of every
``idealgraph.*`` module is replaced by a timing wrapper in each namespace
that binds it (``theorems`` imports the solvers by name, so patching the
defining module alone would miss those calls), and ``InclusionGraph.dense``
is wrapped as well. Generator functions are left alone: their work happens
while the caller iterates, so a call span would measure nothing.

Spans stay in memory and are written once, at exit, together with the
counters kept at the same boundaries. Stdout and the exit code are the
job's own, so the output checker applies to traced jobs unchanged.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import weakref

PACKAGE = "idealgraph"

# Invariant solvers whose reruns on one graph object are counted.
SOLVERS = ("connectivity", "girth", "clique_number", "chromatic_number",
           "independence_number", "maximum_matching", "domination_number",
           "structural_flags", "planarity", "perfectness")


class PerObject:
    """A set attached to each object by identity, dropped when the object is
    collected, so the tracer keeps no graph alive longer than the job does.
    (Graphs are unhashable dataclasses, which rules out ``weakref.WeakSet``.)"""

    def __init__(self):
        self._state: dict[int, tuple[weakref.ref, set]] = {}

    def get(self, obj) -> tuple[set, bool]:
        """(the object's set, whether this is the first time it is seen)."""
        key = id(obj)
        entry = self._state.get(key)
        if entry is not None:
            return entry[1], False
        ref = weakref.ref(obj, lambda _, key=key: self._state.pop(key, None))
        self._state[key] = (ref, set())
        return self._state[key][1], True


class Tracer:
    """Spans as parallel lists: name, start ns, end ns, parent index (-1 at the root)."""

    def __init__(self, job: str):
        self.job = job
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._dense_built = PerObject()
        self._solvers_run = PerObject()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter_ns
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _observer(self, name: str):
        """Counter hook for the spans whose work is counted, else None."""
        fn = name.rsplit(".", 1)[1]
        if name == "graph.InclusionGraph.dense":
            return self._observe_dense
        if name.startswith("invariants.") and fn in SOLVERS:
            def solver(args, out, fn=fn):
                done, _ = self._solvers_run.get(args[0])
                if fn in done:
                    self.count("invariants.repeat_calls")
                done.add(fn)
            return solver
        if name == "graph.export_graph":
            return lambda args, out: self.count("graph.export_bytes",
                                                len(out.encode("utf-8")))
        if name == "semigroup.enumerate_left_ideals":
            return lambda args, out: self.count("semigroup.ideals", len(out.ideals))
        if name == "theorems.run_suite":
            return lambda args, out: self.count("theorems.checks", len(out.checks))
        if name.startswith("catalog."):
            return lambda args, out: self.count(
                "catalog.tables", len(out) if isinstance(out, list) else 1)
        return None

    def _observe_dense(self, args, dense) -> None:
        if not self._dense_built.get(dense)[1]:
            self.count("graph.dense_reused")
            return
        self.count("graph.vertices", dense.size)
        self.count("graph.edges", sum(a.bit_count() for a in dense.adj) // 2)
        # Payload bytes of the adjacency ints, computed, not measured.
        self.count("graph.dense_bytes", sum((a.bit_length() + 7) // 8 for a in dense.adj))

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        doc = {"job": self.job, "name_table": table,
               "names": [index[name] for name in self.names],
               "starts": self.starts, "ends": self.ends, "parents": self.parents,
               "counters": self.counters}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def load_modules():
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, PACKAGE + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def instrument(tracer: Tracer) -> None:
    """Patch every binding of every public function, and InclusionGraph.dense."""
    mods = load_modules()
    wrappers: dict[int, object] = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            layer = mod.__name__.split(".", 1)[1]
            wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{obj.__name__}", obj))
    for mod in mods:
        ns = vars(mod)
        for attr, obj in list(ns.items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                ns[attr] = hit[1]
    graph = sys.modules[PACKAGE + ".graph"]
    cls = graph.InclusionGraph
    cls.dense = tracer.wrap("graph.InclusionGraph.dense", cls.dense)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="where to write the spans")
    ap.add_argument("--job", required=True, help="job id stored with the spans")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.job)
    instrument(tracer)
    cli = sys.modules[PACKAGE + ".cli"]
    try:
        rc = cli.main(cli_args)
    except SystemExit as e:  # argparse exits on --help and on usage errors
        rc = e.code if isinstance(e.code, int) else (0 if e.code is None else 2)
    finally:
        sys.stdout.flush()
        tracer.dump(args.out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
