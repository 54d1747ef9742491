"""Cayley table parsing and the left-ideal machinery."""

import functools
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraph import semigroup
from idealgraph import (
    CayleyTable,
    NotAssociativeError,
    TableSyntaxError,
    cyclic_group,
    enumerate_left_ideals,
    is_completely_simple,
    is_left_ideal,
    is_maximal_left_ideal,
    l_classes,
    left_zero,
    null_semigroup,
    parse_cayley_table,
    principal_left_ideal,
    rectangular_band,
    right_zero,
    right_zero_with_identity,
    serialize_cayley_table,
)
from idealgraph.catalog import small_semigroup_corpus
from idealgraph.graph import containment_adjacency
from idealgraph.theorems import builtin_corpus
from oracles import (benchmark_tables, containment_by_pairwise_scan,
                     enumerate_associative_tables, enumerate_by_full_recheck,
                     first_nonassociative_triple, left_ideals_by_union_closure, magma_closure,
                     shuffled_table, shuffled_tables)


def brute_left_ideals(t):
    """Oracle: scan every nonempty proper subset for left-ideal closure,
    straight off the raw table."""
    out = []
    for mask in range(1, (1 << t.order) - 1):
        members = [a for a in range(t.order) if (mask >> a) & 1]
        if all((mask >> t.rows[s][a]) & 1 for a in members for s in range(t.order)):
            out.append(mask)
    return sorted(out)


@functools.cache
def oracle_tables():
    """Every labeled table of order <= 4 plus the named instances."""
    tables = [t for m in range(1, 5) for t in enumerate_associative_tables(m)]
    for make in (right_zero, left_zero, null_semigroup, cyclic_group,
                 right_zero_with_identity):
        tables += [make(k) for k in range(1, 7)]
    tables += [rectangular_band(r, c) for r, c in ((2, 3), (3, 2), (2, 6), (3, 3))]
    return tables


def pairwise_extremes(masks):
    """Oracle: minimal and maximal members by comparing every pair."""
    minimal = tuple(i for i, x in enumerate(masks)
                    if not any(y != x and y & x == y for y in masks))
    maximal = tuple(i for i, x in enumerate(masks)
                    if not any(y != x and y & x == x for y in masks))
    return minimal, maximal


def completely_simple_by_definition(t):
    """Oracle: every element generates S as a two-sided ideal (S^1 a S^1),
    and some idempotent has no other idempotent below it."""
    m = t.order
    for a in range(m):
        ideal = {a} | {t.mul(s, a) for s in range(m)} | {t.mul(a, s) for s in range(m)}
        ideal |= {t.mul(t.mul(s, a), u) for s in range(m) for u in range(m)}
        if len(ideal) != m:
            return False
    es = [e for e in range(m) if t.mul(e, e) == e]
    return any(all(f == e or t.mul(e, f) != f or t.mul(f, e) != f for f in es)
               for e in es)


# --- parsing ---------------------------------------------------------------

def test_parse_one_element():
    t = parse_cayley_table("1\n0\n")
    assert t.order == 1
    assert t.rows == ((0,),)


def test_parse_right_zero_three():
    text = "# right zero\n3\n0 1 2\n0 1 2\n0 1 2\n"
    t = parse_cayley_table(text)
    assert t.order == 3
    assert t.rows == tuple((0, 1, 2) for _ in range(3))


def test_parse_labels_and_roundtrip():
    text = "#c\n 2 \n0   1\n1 0\nlabels: e g\n"
    t = parse_cayley_table(text)
    assert t.labels == ("e", "g")
    normalized = serialize_cayley_table(t)
    assert normalized == "2\n0 1\n1 0\nlabels: e g\n"
    assert serialize_cayley_table(parse_cayley_table(normalized)) == normalized


def test_parse_rejects_garbage():
    with pytest.raises(TableSyntaxError):
        parse_cayley_table("")
    with pytest.raises(TableSyntaxError):
        parse_cayley_table("x\n")
    with pytest.raises(TableSyntaxError):
        parse_cayley_table("2\n0 1\n")
    with pytest.raises(TableSyntaxError):
        parse_cayley_table("2\n0 1\n1 2\n")
    with pytest.raises(TableSyntaxError):
        parse_cayley_table("2\n0 1 0\n1 0\n")
    with pytest.raises(TableSyntaxError):
        parse_cayley_table("2\n0 1\n1 0\nlabels: a a\n")


def parse_by_int(text):
    """The rows of a well-formed table text, every token read by ``int``."""
    data = [ln.strip() for ln in text.splitlines() if ln.strip()]
    m = int(data[0])
    return tuple(tuple(map(int, ln.split())) for ln in data[1:1 + m])


@pytest.mark.parametrize("spell", [str, "0{}".format, "+{}".format, " {} ".format,
                                   "{:_>1}".format, "{:03d}".format])
def test_parse_reads_every_spelling_of_an_entry_as_int_does(spell):
    # The plain spelling takes the lookup; a row with any other spelling
    # falls back to int and gets the same values.
    for t in (rectangular_band(3, 4), null_semigroup(5), right_zero_with_identity(11)):
        rows = [" ".join(spell(x) for x in row) for row in t.rows]
        text = f"{t.order}\n" + "\n".join(rows) + "\n"
        assert parse_cayley_table(text).rows == parse_by_int(text) == t.rows
        mixed = f"{t.order}\n" + "\n".join(
            r if i % 2 else " ".join(map(str, t.rows[i])) for i, r in enumerate(rows)) + "\n"
        assert parse_cayley_table(mixed).rows == t.rows


@pytest.mark.parametrize("row,message", [
    ("0 2", "entry 2 out of range [0, 2)"),
    ("0 -1", "entry -1 out of range [0, 2)"),
    ("0 +2", "entry 2 out of range [0, 2)"),
    ("0 x", "row 1 has a non-integer entry"),
    ("0 1.0", "row 1 has a non-integer entry"),
    ("0 0x1", "row 1 has a non-integer entry"),
])
def test_parse_keeps_the_errors_of_int(row, message):
    with pytest.raises(TableSyntaxError, match=f"^{re.escape(message)}$"):
        parse_cayley_table(f"2\n0 1\n{row}\n")


def test_serialize_matches_str_of_each_entry():
    for t in (right_zero_with_identity(11), rectangular_band(4, 5)):
        text = serialize_cayley_table(t)
        assert text.splitlines()[1:] == [" ".join(str(x) for x in row) for row in t.rows]
        assert parse_cayley_table(text).rows == t.rows


def test_not_associative_witness_is_first_triple():
    # 2-element magma: 0*0=1, 0*1=1, 1*0=0, 1*1=0.
    rows = ((1, 1), (0, 0))
    # Oracle: scan the 8 triples by hand and record the first violation.
    first = None
    for a in range(2):
        for b in range(2):
            for c in range(2):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    if first is None:
                        first = (a, b, c)
    assert first == (0, 0, 0)
    with pytest.raises(NotAssociativeError) as err:
        parse_cayley_table("2\n1 1\n0 0\n")
    assert err.value.triple == first


def test_right_zero_is_associative_by_construction():
    # x*(y*z) = z = (x*y)*z for right-zero tables of any size.
    for n in (1, 2, 5):
        right_zero(n)  # the constructor checks associativity


# --- principal ideals and L-classes ---------------------------------------

def test_principal_ideal_right_zero():
    t = right_zero(3)
    assert principal_left_ideal(t, 1).members == 0b010


def test_principal_ideal_null_semigroup_zero():
    t = null_semigroup(3)
    assert principal_left_ideal(t, 0).members == 0b001
    assert principal_left_ideal(t, 1).members == 0b011


def test_principal_ideal_group_is_everything():
    t = cyclic_group(3)
    for a in range(3):
        assert principal_left_ideal(t, a).members == t.full_mask


def test_principal_masks_computed_once():
    t = rectangular_band(2, 3)
    assert t.principal_masks is t.principal_masks
    for a in range(t.order):
        want = functools.reduce(lambda acc, s: acc | 1 << t.rows[s][a],
                                range(t.order), 1 << a)
        assert t.principal_masks[a] == want


def test_l_classes():
    assert [c.members for c in l_classes(right_zero(3))] == [0b001, 0b010, 0b100]
    assert [c.members for c in l_classes(cyclic_group(3))] == [0b111]
    assert [c.members for c in l_classes(CayleyTable(1, ((0,),)))] == [0b1]


# --- enumeration -----------------------------------------------------------

def test_enumerate_right_zero_three():
    t = right_zero(3)
    fam = enumerate_left_ideals(t)
    assert sorted(fam.masks) == brute_left_ideals(t)
    assert len(fam.ideals) == 6
    assert not fam.truncated
    assert set(fam.minimal_masks) == {0b001, 0b010, 0b100}
    assert set(fam.maximal_masks) == {0b011, 0b101, 0b110}


def test_enumerate_null_semigroup():
    t = null_semigroup(3)
    fam = enumerate_left_ideals(t)
    assert sorted(fam.masks) == brute_left_ideals(t) == [0b001, 0b011, 0b101]
    assert fam.minimal_masks == (0b001,)


def test_enumerate_group_is_empty():
    fam = enumerate_left_ideals(cyclic_group(3))
    assert fam.ideals == ()
    assert brute_left_ideals(cyclic_group(3)) == []


def test_enumerate_matches_bruteforce_on_catalog():
    tables = [right_zero(4), null_semigroup(4), left_zero(4), cyclic_group(4),
              right_zero_with_identity(3), rectangular_band(2, 3),
              rectangular_band(3, 2)]
    for t in tables:
        fam = enumerate_left_ideals(t)
        assert sorted(fam.masks) == brute_left_ideals(t)
        for ideal in fam.ideals:
            assert is_left_ideal(t, ideal.members)
            assert ideal.nontrivial


def test_enumerate_truncation_flag():
    fam = enumerate_left_ideals(right_zero(5), cap=7)
    assert fam.truncated
    assert len(fam.ideals) <= 7


def test_right_zero_family_is_all_proper_subsets():
    for n in range(2, 11):
        fam = enumerate_left_ideals(right_zero(n))
        assert len(fam.ideals) == 2 ** n - 2
        assert list(fam.masks) == sorted(range(1, 2 ** n - 1),
                                         key=lambda m: (bin(m).count("1"), m))


# --- maximality ------------------------------------------------------------

def test_maximality_right_zero():
    t = right_zero(3)
    assert is_maximal_left_ideal(t, 0b011)
    assert not is_maximal_left_ideal(t, 0b001)


def test_maximality_null_semigroup():
    t = null_semigroup(3)
    assert is_maximal_left_ideal(t, 0b011)
    # {z} sits strictly below {z, a}, so it is not maximal.
    assert not is_maximal_left_ideal(t, 0b001)


def test_maximality_rejects_non_ideals():
    with pytest.raises(ValueError):
        is_maximal_left_ideal(null_semigroup(3), 0b010)
    with pytest.raises(ValueError):
        is_maximal_left_ideal(right_zero(3), 0b111)


def test_masks_and_elements_outside_the_table_raise_value_error():
    # Bits above the order, or a negative mask, name elements S does not
    # have; every left-ideal test refuses them instead of indexing the table.
    t = right_zero(3)
    for mask in (1 << 5, 0b1001, -1, -8):
        with pytest.raises(ValueError, match=f"mask {mask} "):
            is_left_ideal(t, mask)
        with pytest.raises(ValueError):
            is_maximal_left_ideal(t, mask)
    for a in (-1, 3):
        with pytest.raises(ValueError):
            principal_left_ideal(t, a)
    assert is_left_ideal(t, 0b111) and is_left_ideal(t, 0b100) and not is_left_ideal(t, 0)


def test_maximality_raises_on_non_ideals_of_a_larger_table():
    # The argument check unions the principal ideals of the members the
    # mask's bits select. Adding an element to an ideal, or dropping one,
    # gives masks whose escaping member sits at any bit position, the lowest
    # and the highest included.
    t = rectangular_band(3, 4)
    raised = 0
    for m in enumerate_left_ideals(t).masks:
        for x in range(t.order):
            for bad in (m | 1 << x, m & ~(1 << x)):
                if 0 < bad < t.full_mask and not is_left_ideal(t, bad):
                    with pytest.raises(ValueError, match="nontrivial left ideal"):
                        is_maximal_left_ideal(t, bad)
                    raised += 1
    assert raised > 100


def test_maximality_accepts_exactly_the_nontrivial_left_ideals():
    # is_left_ideal multiplies the table directly; it is the oracle for the
    # argument check that reads the principal ideals.
    for t in oracle_tables():
        for mask in range(t.full_mask + 1):
            try:
                is_maximal_left_ideal(t, mask)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (is_left_ideal(t, mask) and mask != t.full_mask)


def test_maximality_agrees_with_family_everywhere():
    tables = [right_zero(n) for n in (2, 3, 4)] + [
        null_semigroup(3), null_semigroup(4),
        right_zero_with_identity(3), rectangular_band(2, 3)]
    for t in tables:
        fam = enumerate_left_ideals(t)
        maximal = set(pairwise_extremes(fam.masks)[1])
        for i, m in enumerate(fam.masks):
            assert is_maximal_left_ideal(t, m) == (i in maximal)


def test_extremes_match_pairwise_scan():
    for t in oracle_tables():
        fam = enumerate_left_ideals(t)
        assert (fam.minimal_indices, fam.maximal_indices) == pairwise_extremes(fam.masks)


def join_irreducibles(t):
    """The distinct principal left ideals, sorted by (size, mask): the bits
    of a family's codes."""
    return sorted(t.l_class_by_ideal, key=lambda p: (p.bit_count(), p))


def check_walk(t):
    """The family against the union-closure oracle; each code against the
    members of J its ideal holds; the containment of the codes against
    that of the masks."""
    fam = enumerate_left_ideals(t)
    masks, minimal, maximal = left_ideals_by_union_closure(t)
    assert (list(fam.masks), fam.minimal_indices, fam.maximal_indices) == (
        masks, minimal, maximal)
    assert not fam.truncated
    joins = join_irreducibles(t)
    for mask, code in zip(fam.masks, fam.codes):
        assert code == sum(1 << i for i, p in enumerate(joins) if p & mask == p)
        assert mask == functools.reduce(
            int.__or__, (p for i, p in enumerate(joins) if code >> i & 1), 0)
    below, above = containment_by_pairwise_scan(fam.masks)
    assert containment_adjacency(fam.codes) == [b | a for b, a in zip(below, above)]


def test_walk_matches_union_closure():
    tables = [t for t, _ in small_semigroup_corpus(5)]
    assert len(tables) == 2133
    tables += [t for t, _ in builtin_corpus()[0]] + shuffled_tables() + benchmark_tables()
    for t in tables:
        check_walk(t)


def test_truncated_family_holds_cap_ideals_each_with_its_parent():
    # The parent of an ideal is the ideal without its last member of J.
    for t in (right_zero(6), rectangular_band(3, 4), shuffled_table(null_semigroup(7), 3),
              shuffled_table(right_zero_with_identity(5), 1)):
        total = len(enumerate_left_ideals(t).ideals)
        joins = join_irreducibles(t)
        for cap in range(1, total):
            fam = enumerate_left_ideals(t, cap=cap)
            assert fam.truncated
            assert len(set(fam.masks)) == len(fam.ideals) == cap
            assert all(is_left_ideal(t, m) for m in fam.masks)
            codes = set(fam.codes)
            for mask, code in zip(fam.masks, fam.codes):
                parent = code ^ 1 << code.bit_length() >> 1
                assert mask == functools.reduce(
                    int.__or__, (p for i, p in enumerate(joins) if code >> i & 1), 0)
                assert parent == 0 or parent in codes
        assert not enumerate_left_ideals(t, cap=total).truncated


def test_truncated_family_lists_only_true_extremes():
    # A capped prefix lacks some ideals, so its maximal list holds only the
    # members that are maximal left ideals of S, not every member with no
    # superset in the prefix.
    t = right_zero(5)
    full = enumerate_left_ideals(t)
    for cap in (1, 7, 20):
        fam = enumerate_left_ideals(t, cap=cap)
        assert fam.truncated
        assert set(fam.minimal_masks) == set(full.minimal_masks) & set(fam.masks)
        assert set(fam.maximal_masks) == set(full.maximal_masks) & set(fam.masks)


def test_maximality_needs_no_l_class_partition(monkeypatch):
    def refuse(t):
        raise AssertionError("l_classes must not be called")
    monkeypatch.setattr(semigroup, "l_classes", refuse)
    for t in oracle_tables():
        fam = enumerate_left_ideals(t)
        maximal = set(pairwise_extremes(fam.masks)[1])
        for i, m in enumerate(fam.masks):
            assert is_maximal_left_ideal(t, m) == (i in maximal)


def test_minimal_ideals_pairwise_disjoint():
    for t in [right_zero(4), null_semigroup(4), right_zero_with_identity(4),
              rectangular_band(2, 3), rectangular_band(3, 2)]:
        masks = enumerate_left_ideals(t).masks
        mins = [masks[i] for i in pairwise_extremes(masks)[0]]
        assert mins
        for i in range(len(mins)):
            for j in range(i + 1, len(mins)):
                assert mins[i] & mins[j] == 0


def test_completely_simple_union_of_minimals():
    # Every nontrivial left ideal of a completely simple semigroup is a
    # union of minimal ones; rebuild each ideal from the minimals below it.
    for t in [right_zero(4), rectangular_band(2, 3), rectangular_band(3, 3)]:
        assert is_completely_simple(t)
        fam = enumerate_left_ideals(t)
        for ideal in fam.ideals:
            union = 0
            for m in fam.minimal_masks:
                if m & ideal.members == m:
                    union |= m
            assert union == ideal.members


# --- completely simple predicate -------------------------------------------

def test_completely_simple_examples():
    assert is_completely_simple(right_zero(3))
    assert is_completely_simple(left_zero(3))
    assert is_completely_simple(CayleyTable(1, ((0,),)))
    assert is_completely_simple(cyclic_group(4))
    assert not is_completely_simple(null_semigroup(2))
    assert not is_completely_simple(null_semigroup(3))
    assert not is_completely_simple(right_zero_with_identity(3))


def test_completely_simple_matches_definition():
    tables = oracle_tables()
    verdicts = [is_completely_simple(t) for t in tables]
    assert verdicts == [completely_simple_by_definition(t) for t in tables]
    assert any(verdicts) and not all(verdicts)


# --- tiny-table enumeration ------------------------------------------------

def test_associative_table_counts():
    assert sum(1 for _ in enumerate_associative_tables(1)) == 1
    assert sum(1 for _ in enumerate_associative_tables(2)) == 8
    assert sum(1 for _ in enumerate_associative_tables(3)) == 113
    assert sum(1 for _ in enumerate_associative_tables(4)) == 3492


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_incremental_enumerator_matches_full_recheck(m):
    assert ([t.rows for t in enumerate_associative_tables(m)]
            == [t.rows for t in enumerate_by_full_recheck(m)])


# --- Light's associativity test ---------------------------------------------

def light_witness(rows):
    """The triple that table construction reports, or None when it accepts."""
    try:
        CayleyTable(len(rows), rows)
    except NotAssociativeError as err:
        return err.triple
    return None


def generating_set(rows):
    m = len(rows)
    return semigroup._generating_set(m, rows, tuple(zip(*rows)))


def perturbed(t, i, j, v):
    rows = [list(r) for r in t.rows]
    rows[i][j] = v
    return tuple(map(tuple, rows))


def test_light_matches_triple_loop_on_every_3x3_magma():
    associative = 0
    for cells in itertools.product(range(3), repeat=9):
        rows = (cells[0:3], cells[3:6], cells[6:9])
        want = first_nonassociative_triple(rows)
        assert light_witness(rows) == want, rows
        associative += want is None
    assert associative == 113


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([4, 5]).flatmap(
    lambda m: st.lists(st.lists(st.integers(0, m - 1), min_size=m, max_size=m),
                       min_size=m, max_size=m)))
def test_light_matches_triple_loop_on_random_magmas(cells):
    # Rows arrive as lists here, which the constructor also accepts.
    assert light_witness(cells) == first_nonassociative_triple(cells)


@functools.cache
def order_four_tables():
    return tuple(enumerate_associative_tables(4))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_light_matches_triple_loop_one_cell_off_a_semigroup(data):
    t = data.draw(st.sampled_from(order_four_tables()))
    i, j, v = (data.draw(st.integers(0, 3)) for _ in range(3))
    rows = perturbed(t, i, j, v)
    assert light_witness(rows) == first_nonassociative_triple(rows)


def test_generating_set_is_greedy_over_the_magma_closure():
    for rows in [t.rows for t in order_four_tables()[::50]] + [
            rectangular_band(40, 5).rows, cyclic_group(60).rows,
            perturbed(cyclic_group(12), 3, 4, 0)]:
        gens = generating_set(rows)
        want = []
        for g in range(len(rows)):
            if g not in magma_closure(rows, want):
                want.append(g)
        assert gens == want
        assert magma_closure(rows, gens) == set(range(len(rows)))
    assert generating_set(cyclic_group(60).rows) == [0, 1]


@pytest.mark.parametrize("make, cells", [
    (lambda: rectangular_band(40, 5), [(0, 0, 7), (0, 199, 3), (57, 101, 0),
                                       (199, 150, 196), (199, 199, 0)]),
    (lambda: cyclic_group(60), [(0, 0, 1), (5, 7, 0), (31, 29, 59), (59, 59, 0)]),
])
def test_light_matches_triple_loop_on_perturbed_large_tables(make, cells):
    t = make()
    assert light_witness(t.rows) is None
    off_generators = 0
    for i, j, v in cells:
        rows = perturbed(t, i, j, v)
        want = first_nonassociative_triple(rows)
        assert want is not None
        assert light_witness(rows) == want
        off_generators += want[1] not in generating_set(rows)
    # The lex-first witness need not involve a generator, so the test that
    # decides the table cannot be the one that names it.
    assert off_generators


@pytest.mark.parametrize("m", [256, 257])
def test_light_at_the_bytes_boundary(m):
    # Up to 256 elements rows compose by bytes.translate, above by itemgetter.
    rz = right_zero(m)
    assert light_witness(rz.rows) is None
    assert light_witness(cyclic_group(m).rows) is None
    assert light_witness(perturbed(rz, 0, 0, 1)) == (0, 0, 0)


@pytest.mark.parametrize("m", [256, 257])
@pytest.mark.parametrize("bad", [-1, "m"])
def test_out_of_range_entry_names_the_first_one(m, bad):
    # Rows are range-checked whole; the message still names the first entry
    # out of range in row-major order.
    bad = m if bad == "m" else bad
    rows = [list(range(m)) for _ in range(m)]  # right zero: x*y = y
    message = rf"^entry {bad} out of range \[0, {m}\)$"
    rows[3][9] = bad
    with pytest.raises(TableSyntaxError, match=message):
        CayleyTable(m, tuple(map(tuple, rows)))
    rows[3][20], rows[7][0] = m + 7, -5  # later entries out of range too
    with pytest.raises(TableSyntaxError, match=message):
        CayleyTable(m, tuple(map(tuple, rows)))
