"""Acceptance suite: one test per acceptance criterion, exact values only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion plus pytest's own verdicts. Stated time budgets are asserted.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from idealgraph import (
    build_boolean,
    build_from_family,
    canonical_dominating_set,
    chromatic_number,
    clique_number,
    complement_automorphism,
    connectivity,
    domination_number,
    enumerate_left_ideals,
    girth,
    independence_number,
    join_irreducibles,
    maximum_matching,
    null_semigroup,
    perfect_matching,
    perfectness,
    planarity,
    relabel_automorphism,
    right_zero,
    right_zero_with_identity,
    transitivity,
)
from idealgraph.symmetry import automorphism_group
from oracles import adj_from_edges, enumerate_associative_tables, exact_chromatic, max_clique_bb


@contextmanager
def criterion(name: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded {budget}s"
    print(f"ACCEPTANCE PASS: {name} ({elapsed:.2f}s)")


def test_01_order_and_degree():
    with criterion("order & degree formula, n=2..12", budget=5.0):
        for n in range(2, 13):
            g = build_boolean(n)
            assert g.vertex_count == 2 ** n - 2
            for v in g.vertices():
                k = v.bit_count()
                assert g.degree(v) == (2 ** k - 2) + (2 ** (n - k) - 2)


def test_02_connectivity_and_diameter():
    with criterion("connectivity & diameter, n=2..12", budget=10.0):
        g2 = build_boolean(2)
        components, diameter = connectivity(g2)
        assert components == 2
        assert g2.edge_count() == 0
        for n in range(3, 13):
            components, diameter = connectivity(build_boolean(n))
            assert components == 1
            assert diameter == 3


def test_03_girth():
    with criterion("girth classification, n=2..10"):
        assert girth(build_boolean(2)) == math.inf
        assert girth(build_boolean(3)) == 6
        for n in range(4, 11):
            assert girth(build_boolean(n)) == 3


def test_04_clique_and_chromatic():
    # Each call checks its chain and its colouring by chain levels as
    # witnesses, at every n.
    with criterion("clique and chromatic numbers, n=3..10"):
        for n in range(3, 11):
            omega, chain = clique_number(build_boolean(n))
            chi, coloring = chromatic_number(build_boolean(n))
            assert omega == n - 1
            assert chi == n - 1


def test_05_clique_number_with_identity():
    with criterion("clique number n iff union of minimals is maximal, n=3,4"):
        for n in (3, 4):
            monoid = build_from_family(
                enumerate_left_ideals(right_zero_with_identity(n)))
            plain = build_from_family(enumerate_left_ideals(right_zero(n)))
            assert clique_number(monoid)[0] == n
            assert clique_number(plain)[0] == n - 1


def test_06_independence_and_covers():
    with criterion("independence & vertex cover, n=3..12", budget=60.0):
        for n in range(3, 13):
            g = build_boolean(n)
            alpha, witness = independence_number(g)
            assert alpha == math.comb(n, n // 2)
            assert g.vertex_count - alpha == (2 ** n - 2) - math.comb(n, n // 2)
            assert len(witness) == alpha


def test_07_matching():
    with criterion("perfect matchings, n=3..10"):
        for n in range(3, 11):
            g = build_boolean(n)
            built = perfect_matching(n)
            assert len(built) == 2 ** (n - 1) - 1
            covered = set()
            for a, b in built:
                assert a & b == a and a != b
                covered.update((a, b))
            assert covered == set(g.vertices())
            size, _, perfect = maximum_matching(g)
            assert size == 2 ** (n - 1) - 1 and perfect
            # Gallai: no isolated vertices, so edge cover = |V| - matching.
            assert g.vertex_count - size == 2 ** (n - 1) - 1


def test_08_domination():
    with criterion("domination number 2 (exact n=3..6, canonical n=3..12)"):
        for n in range(3, 7):
            gamma, witness = domination_number(build_boolean(n))
            assert gamma == 2
        for n in range(3, 13):
            single, rest = canonical_dominating_set(n)
            assert single == 1 and rest == (1 << n) - 2


def test_09_planarity():
    with criterion("planarity split at n=4, Kuratowski witnesses at 5,6"):
        for n in (2, 3, 4):
            assert planarity(build_boolean(n)).planar
        for n in (5, 6):
            g = build_boolean(n)
            res = planarity(g)
            assert not res.planar
            assert res.kuratowski_kind in ("K5", "K3,3")
            for u, v in res.kuratowski_edges:
                assert g.adjacent(u, v)


def _induced_subgraph(dense, keep):
    index = {v: i for i, v in enumerate(keep)}
    edges = []
    for i, v in enumerate(keep):
        for w in keep[i + 1:]:
            if (dense.adj[v] >> w) & 1:
                edges.append((index[v], index[w]))
    return adj_from_edges(len(keep), edges)


def test_10_perfectness():
    with criterion("perfectness: exhaustive n=3,4; bounded n=5; 500 subgraphs"):
        for n in (3, 4):
            verdict, witness = perfectness(build_boolean(n), 2 ** n - 2)
            assert verdict is True and witness is None
        g5 = build_boolean(5)
        verdict, witness = perfectness(g5, 11)
        assert verdict is None and witness is None
        # Property substitute: clique number equals chromatic number on 500
        # seeded induced subgraphs, via the generic solvers only.
        rng = random.Random(500500)
        dense = g5.dense()
        for _ in range(500):
            keep = [i for i in range(dense.size) if rng.random() < 0.5]
            sub = _induced_subgraph(dense, keep)
            omega, _ = max_clique_bb(sub)
            chi, _ = exact_chromatic(sub)
            assert omega == chi


def test_11_automorphisms():
    with criterion("automorphism groups, n=2..6", budget=60.0):
        for n in range(2, 7):
            report = automorphism_group(build_boolean(n))
            expected = 2 if n == 2 else 2 * math.factorial(n)
            assert report.order == expected
            assert all(a.base_perm is not None for a in report.generators)
            # The transposition, the n-cycle and complementation generate
            # everything.
            swap = relabel_automorphism(n, [1, 0] + list(range(2, n)))
            cycle = relabel_automorphism(n, list(range(1, n)) + [0])
            comp = complement_automorphism(n)
            seen = {tuple(range(2 ** n - 2))}
            frontier = list(seen)
            gens = [swap.images, cycle.images, comp.images]
            while frontier:
                nxt = []
                for p in frontier:
                    for q in gens:
                        r = tuple(p[i] for i in q)
                        if r not in seen:
                            seen.add(r)
                            nxt.append(r)
                frontier = nxt
            assert len(seen) == report.order


def test_12_transitivity():
    with criterion("vertex/edge transitivity exactly at n=2,3 (n=2..6)"):
        for n in range(2, 7):
            g = build_boolean(n)
            vt, et = transitivity(g, automorphism_group(g))
            assert vt == (n in (2, 3))
            assert et == (n in (2, 3))


def test_13_generic_mode_oracle():
    with criterion("generic-mode oracle: right-zero and null semigroups"):
        for n in range(3, 9):
            joins = join_irreducibles(right_zero(n))
            assert joins.antichain and len(joins.masks) == n
            fam = enumerate_left_ideals(right_zero(n))
            assert fam.codes == tuple(build_boolean(n).vertices())
        for m in range(3, 7):
            t = null_semigroup(m)
            fam = enumerate_left_ideals(t)
            brute = sorted(
                mask for mask in range(1, t.full_mask)
                if all((mask >> t.rows[s][a]) & 1
                       for a in range(m) if (mask >> a) & 1
                       for s in range(m)))
            assert sorted(fam.masks) == brute
            g = build_from_family(fam)
            for u, v in itertools.combinations(fam.masks, 2):
                assert g.adjacent(u, v) == (u & v == u or u & v == v)


def test_14_disconnected_iff_two_minimal():
    with criterion("disconnected iff union of two minimal ideals (m<=4 corpus)"):
        tables = []
        for m in (1, 2, 3, 4):
            tables.extend(enumerate_associative_tables(m))
        assert sum(1 for t in tables if t.order == 4) == 3492 >= 1000
        counterexamples = 0
        for t in tables:
            fam = enumerate_left_ideals(t)
            g = build_from_family(fam)
            if g.vertex_count == 0:
                continue
            components, _ = connectivity(g)
            disconnected = components >= 2
            union = 0
            for mm in fam.minimal_masks:
                union |= mm
            two_minimal = len(fam.minimal_masks) == 2 and union == t.full_mask
            if disconnected != two_minimal:
                counterexamples += 1
            if disconnected and g.edge_count() != 0:
                counterexamples += 1
        assert counterexamples == 0
