"""Layer matchings, the middle-layer normalization, and canonical objects
of the Boolean model (``idealgraph.boolean``)."""

import math
import random

import pytest

from idealgraph import (
    NotIndependentError,
    build_boolean,
    canonical_dominating_set,
    canonical_maximum_chain,
    clique_number,
    layer_matching,
    normalize_independent_set,
    perfect_matching,
)


def layer(n, k):
    """All k-subsets of [n] as masks."""
    return [m for m in range(1 << n) if m.bit_count() == k]


def test_layer_matching_examples():
    m = layer_matching(4, 1)
    assert m.covers == "lower" and len(m.pairs) == 4
    assert {a for a, _ in m.pairs} == set(layer(4, 1))

    m = layer_matching(4, 2)
    assert m.covers == "upper" and len(m.pairs) == 4
    assert {b for _, b in m.pairs} == set(layer(4, 3))

    m = layer_matching(3, 1)
    assert len(m.pairs) == 3  # perfect matching of the 3x3 layer graph
    assert {a for a, _ in m.pairs} == set(layer(3, 1))
    assert {b for _, b in m.pairs} == set(layer(3, 2))


def test_layer_matching_saturation_pattern():
    for n in range(3, 11):
        p = n // 2
        for k in range(1, n - 1):
            m = layer_matching(n, k)
            expected_side = "lower" if k <= p - 1 else "upper"
            assert m.covers == expected_side
            lows = [a for a, _ in m.pairs]
            highs = [b for _, b in m.pairs]
            assert len(set(lows)) == len(lows)
            assert len(set(highs)) == len(highs)
            for a, b in m.pairs:
                assert a & b == a and b.bit_count() == a.bit_count() + 1
            if expected_side == "lower":
                assert set(lows) == set(layer(n, k))
            else:
                assert set(highs) == set(layer(n, k + 1))


def test_layer_matching_deterministic():
    assert layer_matching(6, 2).pairs == layer_matching(6, 2).pairs


def random_antichain(n, rng):
    """Random subset of the vertices, pruned to an antichain in random order."""
    vertices = list(build_boolean(n).vertices())
    picked = [v for v in vertices if rng.random() < 0.3]
    rng.shuffle(picked)
    kept = []
    for v in picked:
        if all(not (v & w == v or v & w == w) for w in kept):
            kept.append(v)
    return kept


def test_normalize_examples():
    out = normalize_independent_set(4, [0b0001, 0b0010, 0b0100, 0b1000])
    assert len(out) == 4
    assert all(m.bit_count() == 2 for m in out)

    middle = set(layer(4, 2))
    assert normalize_independent_set(4, middle) == frozenset(middle)

    out = normalize_independent_set(5, [0b01111])
    assert len(out) == 1
    assert next(iter(out)).bit_count() == 2


def test_normalize_checks_the_layer_matching(monkeypatch):
    # The normalization steps each member along its symmetric chain, whose
    # consecutive pairs are the layer matchings. A chain that skips a layer
    # is caught with a raise, not an assert, so the check survives python -O.
    from types import SimpleNamespace

    from idealgraph import boolean

    member = 0b000001
    chains = [[m for i, m in enumerate(c) if i == 0 or c[i - 1] != member]
              for c in boolean.certificates(6).chains]
    monkeypatch.setattr(boolean, "certificates", lambda n: SimpleNamespace(chains=chains))
    with pytest.raises(RuntimeError, match="normalization failed"):
        normalize_independent_set(6, [member])


def test_normalize_rejects_non_antichain():
    with pytest.raises(NotIndependentError):
        normalize_independent_set(4, [0b0001, 0b0011])


def test_normalize_random_antichains():
    # Seeded sweep: cardinality preserved, output an antichain inside the
    # middle layer, certifying the binomial independence bound.
    rng = random.Random(1729)
    for n in range(3, 9):
        for _ in range(200):
            u = random_antichain(n, rng)
            out = normalize_independent_set(n, u)
            assert len(out) == len(u)
            assert all(m.bit_count() == n // 2 for m in out)
            out_list = sorted(out)
            for i in range(len(out_list)):
                for j in range(i + 1, len(out_list)):
                    a, b = out_list[i], out_list[j]
                    assert not (a & b == a or a & b == b)
            assert len(u) <= math.comb(n, n // 2)


def test_perfect_matching_small_cases():
    pairs = perfect_matching(3)
    assert len(pairs) == 3
    for a, b in pairs:
        assert a & b == a and a.bit_count() == 1 and b.bit_count() == 2

    pairs = perfect_matching(5)
    assert len(pairs) == 15

    pairs = perfect_matching(4)
    assert len(pairs) == 7
    assert (0b0001, 0b1011) in pairs  # the stitch edge ({1}, {1,2,4}) between the halves


def test_perfect_matching_properties():
    for n in range(3, 11):
        pairs = perfect_matching(n)
        assert len(pairs) == 2 ** (n - 1) - 1
        seen = set()
        for a, b in pairs:
            assert a & b == a and a != b  # strict containment
            assert a not in seen and b not in seen
            seen.update((a, b))
        assert seen == set(range(1, 2 ** n - 1))


def test_perfect_matching_deterministic():
    assert perfect_matching(6) == perfect_matching(6)


def test_canonical_dominating_set():
    assert canonical_dominating_set(3) == (0b001, 0b110)
    assert canonical_dominating_set(4) == (0b0001, 0b1110)
    assert canonical_dominating_set(5) == (0b00001, 0b11110)
    for n in range(3, 13):
        single, rest = canonical_dominating_set(n)
        g = build_boolean(n)
        dominated = {single, rest}
        dominated.update(g.neighbors(single))
        dominated.update(g.neighbors(rest))
        assert dominated == set(g.vertices())


def test_normalize_accepts_dilworth_witnesses():
    # The independence-number witnesses are maximum antichains; pushing
    # them through normalization keeps their size and lands them in the
    # middle layer.
    from idealgraph import independence_number

    for n in range(3, 9):
        alpha, witness = independence_number(build_boolean(n))
        out = normalize_independent_set(n, witness)
        assert len(out) == alpha == math.comb(n, n // 2)
        assert all(m.bit_count() == n // 2 for m in out)


def test_canonical_maximum_chain():
    assert canonical_maximum_chain(4) == [0b001, 0b011, 0b111]
    assert canonical_maximum_chain(2) == [0b1]
    assert len(canonical_maximum_chain(6)) == 5
    for n in (2, 3, 4, 5, 6, 7):
        chain = canonical_maximum_chain(n)
        for a, b in zip(chain, chain[1:]):
            assert a & b == a and a != b
        omega, _ = clique_number(build_boolean(n))
        assert len(chain) == omega
