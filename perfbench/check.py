"""Output checks for benchmark jobs; every failure they find counts in ``fail_rate``.

A job fails on a wrong exit code, a timeout, output that does not match the
expected values, or stdout that differs from an earlier repeat of the same
job in the same run. Expected values come from closed forms of the Boolean
model (the ones ``theorems.REGISTRY`` states) and from the corpus manifest,
never from another run of the program.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb, factorial

SUMMARY = re.compile(r"passed: (\d+)  failed: (\d+)  vacuous: (\d+)")


def boolean_closed_forms(n: int) -> dict:
    """Invariants of the Boolean model on n >= 4 ground elements."""
    return {
        "vertex_count": 2 ** n - 2,
        "edge_count": 3 ** n - 3 * 2 ** n + 3,
        "connected": True,
        "diameter": 3,
        "girth": 3,
        "clique_number": n - 1,
        "chromatic_number": n - 1,
        "independence_number": comb(n, n // 2),
        "matching_number": 2 ** (n - 1) - 1,
        "domination_number": 2,
        "planar": False,
        "eulerian": True,
        "bipartite": False,
        "triangulated": True,
    }


def _json(out: str):
    try:
        return json.loads(out), None
    except ValueError as e:
        return None, f"stdout is not JSON: {e}"


def _compare(doc: dict, expected: dict) -> str | None:
    for key, want in expected.items():
        if doc.get(key) != want:
            return f"{key}: expected {want!r}, got {doc.get(key)!r}"
    return None


def verify_table(out: str) -> str | None:
    """Table output of ``verify``: every row passes or is vacuous, and the
    summary line agrees with the rows."""
    lines = out.splitlines()
    if len(lines) < 3:
        return "verify output too short"
    summary = SUMMARY.fullmatch(lines[-1])
    if summary is None:
        return f"no summary line, last line {lines[-1]!r}"
    header = lines[0]
    col = header.find("verdict")
    end = header.find("expected")
    if col < 0 or end < 0:
        return "no verdict column"
    counts = {"pass": 0, "fail": 0, "vacuous": 0}
    for row in lines[1:-1]:
        verdict = row[col:end].strip()
        if verdict not in counts:
            return f"unreadable row {row!r}"
        counts[verdict] += 1
    passed, failed, vacuous = map(int, summary.groups())
    if (passed, failed, vacuous) != (counts["pass"], counts["fail"], counts["vacuous"]):
        return f"summary {summary.group(0)!r} disagrees with the rows {counts}"
    if failed:
        return f"{failed} failed rows"
    if passed == 0:
        return "no passing rows"
    return None


def boolean_invariants(n: int, keys=None):
    """Checker for ``invariants --n N`` against the closed forms, restricted
    to ``keys`` when the job selects invariants."""
    expected = boolean_closed_forms(n)
    if keys is not None:
        expected = {k: expected[k] for k in keys}

    def check(out: str) -> str | None:
        doc, err = _json(out)
        if err:
            return err
        if keys is not None and set(doc) != set(keys):
            return f"keys {sorted(doc)} instead of {sorted(keys)}"
        return _compare(doc, expected)
    return check


def boolean_aut(n: int):
    def check(out: str) -> str | None:
        doc, err = _json(out)
        if err:
            return err
        return _compare(doc, {"order": 2 * factorial(n), "structure": f"S{n} x Z2",
                              "vertex_transitive": n in (2, 3),
                              "edge_transitive": n in (2, 3)})
    return check


def boolean_graph(n: int):
    def check(out: str) -> str | None:
        doc, err = _json(out)
        if err:
            return err
        if doc.get("mode") != "boolean" or doc.get("n") != n:
            return f"mode/n {doc.get('mode')!r}/{doc.get('n')!r}"
        nv, ne = len(doc.get("vertices", ())), len(doc.get("edges", ()))
        want = boolean_closed_forms(n)
        if (nv, ne) != (want["vertex_count"], want["edge_count"]):
            return f"{nv} vertices, {ne} edges; expected {want['vertex_count']}, {want['edge_count']}"
        return None
    return check


def table_invariants(entry: dict):
    """``invariants FILE --all`` on a completely simple table: the Boolean
    closed forms for n = number of minimal left ideals."""
    expected = entry["boolean"]

    def check(out: str) -> str | None:
        doc, err = _json(out)
        if err:
            return err
        return _compare(doc, expected)
    return check


def table_ideals(entry: dict):
    n = entry["boolean_n"]

    def check(out: str) -> str | None:
        doc, err = _json(out)
        if err:
            return err
        err = _compare(doc, {"order": entry["order"], "count": entry["ideals"],
                             "truncated": False})
        if err:
            return err
        got = (len(doc["ideals"]), len(doc["minimal"]), len(doc["maximal"]))
        if got != (entry["ideals"], n, n):
            return f"(ideals, minimal, maximal) = {got}, expected ({entry['ideals']}, {n}, {n})"
        return None
    return check


def table_validate(entry: dict, table_text: str):
    """``validate`` echoes the normalized table, which is how the corpus is written."""
    want = f"valid semigroup of order {entry['order']}\n" + table_text

    def check(out: str) -> str | None:
        if out != want:
            return "validate output differs from the table file"
        return None
    return check


def usage(out: str) -> str | None:
    return None if out.startswith("usage: idealgraph") else "no usage text"


class Repeats:
    """Stdout digests per job id; a later repeat must match the first."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def check(self, job_id: str, stdout: bytes) -> str | None:
        digest = hashlib.sha256(stdout).hexdigest()
        prev = self.first.setdefault(job_id, digest)
        return None if prev == digest else "stdout differs from an earlier repeat"


def check_job(check, repeats: Repeats, job_id: str, returncode: int,
              timed_out: bool, stdout: bytes) -> str | None:
    """The first reason the job failed, or None."""
    if timed_out:
        return "timed out"
    if returncode != 0:
        return f"exit code {returncode}"
    err = repeats.check(job_id, stdout)
    if err:
        return err
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    return check(text)
