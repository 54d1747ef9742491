"""The semigroups of order <= 5 up to isomorphism, by orderly generation."""

import itertools
from math import factorial

import pytest

from idealgraph import catalog
from idealgraph.catalog import CLASS_GATES, small_semigroup_corpus
from oracles import enumerate_by_full_recheck, relabeled


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbits_of_the_classes_partition_the_labeled_tables(m):
    labeled = {t.rows for t in enumerate_by_full_recheck(m)}
    covered = set()
    classes = list(catalog._lex_leaders(m))
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


@pytest.mark.parametrize("corrupt", ["drop a class", "orbit off by one"])
def test_gate_mismatch_raises(corrupt, monkeypatch):
    real = catalog._lex_leaders

    def broken(m):
        classes = list(real(m))
        if m == 3:
            if corrupt == "drop a class":
                classes.pop(5)
            else:
                t, w = classes[5]
                classes[5] = (t, w + 1)
        return iter(classes)

    monkeypatch.setattr(catalog, "_lex_leaders", broken)
    with pytest.raises(RuntimeError, match="order 3"):
        small_semigroup_corpus(4)
