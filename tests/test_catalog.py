"""The semigroups of order <= 5 up to isomorphism: the package reads them
from its class file, and the orderly generator in the oracles is the
reference the file is checked against."""

import itertools
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from idealgraph import catalog
from idealgraph.catalog import CLASS_GATES, small_semigroup_corpus
from oracles import (class_file_text, enumerate_by_full_recheck, first_nonassociative_triple,
                     lex_leaders, relabeled)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbits_of_the_classes_partition_the_labeled_tables(m):
    labeled = {t.rows for t in enumerate_by_full_recheck(m)}
    covered = set()
    classes = list(lex_leaders(m))
    for t, orbit_size in classes:
        orbit = {relabeled(t.rows, sigma) for sigma in itertools.permutations(range(m))}
        assert t.rows == min(orbit)
        automorphisms = sum(relabeled(t.rows, sigma) == t.rows
                            for sigma in itertools.permutations(range(m)))
        assert orbit_size == len(orbit) == factorial(m) // automorphisms
        assert not orbit & covered
        covered |= orbit
    assert covered == labeled
    assert [t.rows for t, _ in classes] == sorted(t.rows for t, _ in classes)


def test_the_class_file_is_the_generators_output():
    assert Path(catalog.CLASS_FILE).read_text(encoding="ascii") == class_file_text()


@pytest.mark.parametrize("max_order", [1, 2, 3, 4, 5])
def test_the_corpus_is_the_generators_classes(max_order):
    expected = [(t.order, t.rows, w) for m in range(1, max_order + 1) for t, w in lex_leaders(m)]
    assert [(t.order, t.rows, w) for t, w in small_semigroup_corpus(max_order)] == expected


def test_class_counts_and_orbit_sums_up_to_order_five():
    corpus = small_semigroup_corpus(5)
    for m, (classes, labeled) in CLASS_GATES.items():
        stratum = [w for t, w in corpus if t.order == m]
        assert (len(stratum), sum(stratum)) == (classes, labeled)
    assert len(corpus) == 1 + 5 + 24 + 188 + 1915


def test_transpose_is_not_an_isomorphism():
    # Left zero and right zero of order 2 are anti-isomorphic, not isomorphic;
    # their left ideals differ, so both classes are kept.
    rows = {t.rows for t, _ in small_semigroup_corpus(2)}
    assert ((0, 0), (1, 1)) in rows and ((0, 1), (0, 1)) in rows


def test_order_above_the_gates_is_refused():
    with pytest.raises(ValueError):
        small_semigroup_corpus(6)


def test_the_class_file_ships_with_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on; the package supports 3.10
    with open(ROOT / "pyproject.toml", "rb") as f:
        patterns = tomllib.load(f)["tool"]["setuptools"]["package-data"]["idealgraph"]
    package = ROOT / "src" / "idealgraph"
    shipped = Path(catalog.CLASS_FILE).resolve()
    assert shipped == package / "small_semigroups.txt"
    assert any(shipped in map(Path.resolve, package.glob(p)) for p in patterns)


def class_lines():
    return Path(catalog.CLASS_FILE).read_text(encoding="ascii").splitlines(keepends=True)


def first_of_order(lines, m):
    """The index of the first class line of order m."""
    return next(k for k, ln in enumerate(lines)
                if not ln.startswith("#") and len(ln.split()[1]) == m * m)


def write_class_file(tmp_path, lines):
    path = tmp_path / "small_semigroups.txt"
    path.write_text("".join(lines), encoding="ascii")
    return path


@pytest.mark.parametrize("corrupt", ["drop a class", "orbit off by one"])
def test_gate_mismatch_raises(corrupt, monkeypatch, tmp_path):
    lines = class_lines()
    k = first_of_order(lines, 3) + 5
    if corrupt == "drop a class":
        del lines[k]
    else:
        w, cells = lines[k].split()
        lines[k] = f"{int(w) + 1} {cells}\n"
    monkeypatch.setattr(catalog, "CLASS_FILE", str(write_class_file(tmp_path, lines)))
    with pytest.raises(RuntimeError, match="order 3"):
        small_semigroup_corpus(4)


def faulty_class_file(fault, tmp_path):
    """(the path, the message) of a class file with ``fault``. Order 2 holds
    0000, 0001, 0011, 0101 and 0110; each fault but a missing file replaces
    0011, the third class line of order 2."""
    lines = class_lines()
    k = first_of_order(lines, 2) + 2
    path = tmp_path / "small_semigroups.txt"
    where = f"{path}:{k + 1}"
    if fault == "missing":
        return path, f"cannot read the semigroup class file {path}: No such file or directory"
    if fault == "not associative":
        lines[k] = "1 0010\n"
        a, b, c = first_nonassociative_triple(((0, 0), (1, 0)))
        message = f"{where}: not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
    elif fault == "out of range":
        lines[k] = "1 0012\n"
        message = f"{where}: entry 2 out of range [0, 2)"
    elif fault == "malformed":
        lines[k] = "1 001\n"
        message = f"{where}: malformed class line '1 001'"
    else:  # a repeated class
        lines[k] = lines[k - 1]
        message = f"{where}: class line out of (order, lexicographic) order"
    return write_class_file(tmp_path, lines), message


@pytest.mark.parametrize("fault", ["not associative", "out of range", "malformed",
                                   "out of order", "missing"])
def test_a_faulty_class_file_raises_naming_the_file(fault, monkeypatch, tmp_path):
    path, message = faulty_class_file(fault, tmp_path)
    monkeypatch.setattr(catalog, "CLASS_FILE", str(path))
    with pytest.raises(RuntimeError) as e:
        small_semigroup_corpus(4)
    assert str(e.value) == message


@pytest.mark.parametrize("fault", ["not associative", "missing"])
def test_a_faulty_class_file_is_an_internal_failure_under_optimization(fault, tmp_path):
    # Exit 3 is a fault of the package, not of the command line (exit 2), and
    # the checks are no asserts: they hold under ``python -O`` too.
    path, message = faulty_class_file(fault, tmp_path)
    script = ("import sys\n"
              "from idealgraph import catalog\n"
              f"catalog.CLASS_FILE = {str(path)!r}\n"
              "from idealgraph.cli import main\n"
              "sys.exit(main(['verify']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: internal failure: RuntimeError: {message}\n"
