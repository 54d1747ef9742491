"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors,
3 internal failure (a failed certificate or identity, recursion or memory
exhausted).
All stdout is valid in the requested format and byte-identical across
identical invocations.

Each command imports the modules it runs when it runs, so a process loads
and compiles only those: ``--help`` and usage errors none, ``validate`` the
semigroup parser alone, and neither imports ``json``. The cap flags default to None and fall back to the
constant of the module that owns them.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .errors import IdealGraphError, NotAssociativeError

# The selecting flags of ``invariants``, as ``report.SELECTIONS`` lists them.
INVARIANT_FLAGS = ("diameter", "girth", "clique", "chromatic", "independence",
                   "matching", "domination", "planarity", "perfect", "flags")


def _add_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("file", nargs="?", help="Cayley table file")
    group.add_argument("--n", type=int,
                       help="Boolean model on n minimal ideals instead of a file")


def _positive(value: str) -> int:
    x = int(value)
    if x <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return x


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idealgraph",
        description="Inclusion graphs of left ideals of finite semigroups")
    ap.add_argument("--max-vertices", type=_positive,
                    help="override the materialized-vertex cap")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a Cayley table and check associativity")
    p.add_argument("file")

    p = sub.add_parser("ideals", help="enumerate the nontrivial left ideals")
    p.add_argument("file")
    p.add_argument("--max-ideals", type=_positive)

    p = sub.add_parser("graph", help="emit the inclusion graph")
    _add_source(p)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = sub.add_parser("invariants", help="compute exact graph invariants")
    _add_source(p)
    p.add_argument("--all", action="store_true")
    for flag in INVARIANT_FLAGS:
        p.add_argument(f"--{flag}", action="store_true")
    p.add_argument("--domination-cap", type=_positive)

    p = sub.add_parser("aut", help="automorphism group and transitivity")
    _add_source(p)
    p.add_argument("--aut-cap", type=_positive)

    p = sub.add_parser("construct", help="explicit Boolean-model constructions")
    p.add_argument("--n", type=int, required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--perfect-matching", action="store_true")
    which.add_argument("--dominating-set", action="store_true")
    which.add_argument("--max-chain", action="store_true")
    which.add_argument("--layer-matching", type=int, metavar="K")

    p = sub.add_parser("verify", help="run the theorem-check suite")
    p.add_argument("--boolean", help="n range, e.g. 2..8 or a single n")
    p.add_argument("--corpus", help="directory of Cayley table .txt files")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("-o", "--output", help="also write the JSON report here")

    return ap


def _load_graph(args):
    from .graph import build_boolean, build_from_table
    if args.n is not None:
        return build_boolean(args.n)
    return build_from_table(_load_table(args.file))


def _load_table(path: str):
    from .semigroup import parse_cayley_table
    return parse_cayley_table(Path(path).read_text(encoding="utf-8"))


def _parse_range(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    ns = range(int(lo), int(hi if sep else lo) + 1)
    if not ns:
        raise ValueError(f"--boolean {spec} is an empty range")
    return ns


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _print_json(doc) -> None:
    from .jsontext import _json_text
    sys.stdout.write(_json_text(doc))
    sys.stdout.write("\n")


def _cmd_validate(args) -> int:
    from .semigroup import serialize_cayley_table
    table = _load_table(args.file)
    sys.stdout.write(f"valid semigroup of order {table.order}\n")
    sys.stdout.write(serialize_cayley_table(table))
    return 0


def _cmd_ideals(args) -> int:
    from . import semigroup
    cap = semigroup.DEFAULT_IDEAL_CAP if args.max_ideals is None else args.max_ideals
    fam = semigroup.enumerate_left_ideals(_load_table(args.file), cap=cap)
    doc = {
        "order": fam.order,
        "count": len(fam.ideals),
        "truncated": fam.truncated,
        "ideals": [{"mask": i.members, "size": i.size} for i in fam.ideals],
        "minimal": list(fam.minimal_masks),
        "maximal": list(fam.maximal_masks),
    }
    _print_json(doc)
    return 0


def _cmd_graph(args) -> int:
    from .graph import export_graph
    g = _load_graph(args)
    _emit(export_graph(g, fmt=args.format), args.output)
    return 0


def _cmd_invariants(args) -> int:
    from .report import invariants_document
    table = None if args.n is not None else _load_table(args.file)
    select = () if args.all else {k for k in INVARIANT_FLAGS if getattr(args, k)}
    _print_json(invariants_document(args.n, table, select, args.domination_cap))
    return 0


def _cmd_aut(args) -> int:
    from . import symmetry
    g = _load_graph(args)
    cap = symmetry.DEFAULT_AUT_CAP if args.aut_cap is None else args.aut_cap
    report = symmetry.automorphism_group(g, cap=cap)
    vt, et = symmetry.transitivity(g, report)
    doc = {
        "order": report.order,
        "structure": report.structure,
        "vertex_transitive": vt,
        "edge_transitive": et,
        "generators": [
            {
                "map": a.mask_pairs(report.vertex_masks),
                "relabeling": list(a.base_perm) if a.base_perm is not None else None,
                "complemented": a.complemented,
            }
            for a in report.generators
        ],
    }
    _print_json(doc)
    return 0


def _cmd_construct(args) -> int:
    from . import boolean  # each builder refuses n past the range or the vertex cap
    n = args.n
    if args.perfect_matching:
        doc = {"perfect_matching": boolean.perfect_matching(n)}
    elif args.dominating_set:
        doc = {"dominating_set": list(boolean.canonical_dominating_set(n))}
    elif args.max_chain:
        doc = {"maximum_chain": boolean.canonical_maximum_chain(n)}
    else:
        lm = boolean.layer_matching(n, args.layer_matching)
        doc = {"layer": lm.k, "covers": lm.covers,
               "pairs": [list(p) for p in lm.pairs]}
    _print_json(doc)
    return 0


def _cmd_verify(args) -> int:
    from . import theorems
    boolean_ns = _parse_range(args.boolean) if args.boolean else None
    corpus = None
    corpus_label = "corpus"
    if args.corpus:
        corpus = theorems.load_corpus_dir(args.corpus)
        corpus_label = args.corpus
    result = theorems.run_suite(boolean_ns=boolean_ns, corpus=corpus,
                                corpus_label=corpus_label)
    text = result.to_json() if args.format == "json" or args.output else None
    sys.stdout.write(text if args.format == "json" else result.to_table())
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    return result.exit_code


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "ideals": _cmd_ideals,
        "graph": _cmd_graph,
        "invariants": _cmd_invariants,
        "aut": _cmd_aut,
        "construct": _cmd_construct,
        "verify": _cmd_verify,
    }
    if args.command in ("validate", "ideals"):
        bound = contextlib.nullcontext()  # a table alone: no graph to cap
    else:
        from .graph import command_vertex_cap
        # One vertex cap binds every dense() call of the command and ends
        # with it, so one in-process call does not cap the next.
        bound = command_vertex_cap(args.max_vertices)
    try:
        with bound:
            return handlers[args.command](args)
    except NotAssociativeError as e:
        a, b, c = e.triple
        sys.stderr.write(f"error: not associative, witness triple ({a}, {b}, {c})\n")
        return 2
    except (IdealGraphError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (RuntimeError, MemoryError) as e:
        sys.stderr.write(f"error: internal failure: {type(e).__name__}: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
