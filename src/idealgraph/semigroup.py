"""Finite semigroups as Cayley tables, and their left-ideal structure.

Elements are 0-based indices into an m x m operation table. Subsets of the
semigroup are bit vectors: element ``i`` corresponds to bit ``i``, so set
operations are integer bit operations throughout.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import itemgetter, or_
from typing import NamedTuple

from .errors import NotAssociativeError, TableSyntaxError

DEFAULT_IDEAL_CAP = 1_000_000


class CayleyTable:
    """A finite semigroup given by its multiplication table.

    ``rows[a][b]`` is the index of the product a*b. The entries are
    range-checked and associativity is checked at construction, never
    assumed.
    """

    def __init__(self, order: int, rows: tuple[tuple[int, ...], ...],
                 labels: tuple[str, ...] | None = None):
        m = order
        if m <= 0:
            raise TableSyntaxError("order must be positive")
        if len(rows) != m or any(len(r) != m for r in rows):
            raise TableSyntaxError(f"table must be {m}x{m}")
        for r in rows:
            if min(r) < 0 or max(r) >= m:
                x = next(x for x in r if not 0 <= x < m)
                raise TableSyntaxError(f"entry {x} out of range [0, {m})")
        if labels is not None:
            if len(labels) != m:
                raise TableSyntaxError("label count must equal order")
            if len(set(labels)) != m:
                raise TableSyntaxError("labels must be distinct")
        _check_associative(m, rows)
        self.order = order
        self.rows = rows
        self.labels = labels

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @cached_property
    def principal_masks(self) -> tuple[int, ...]:
        """``principal_masks[a]`` is the principal left ideal S*a together with a."""
        return tuple(sum(1 << x for x in {a, *col})
                     for a, col in enumerate(zip(*self.rows)))

    @cached_property
    def l_class_by_ideal(self) -> dict[int, int]:
        """Each principal left ideal, mapped to the elements that generate
        it: its L-class."""
        by_ideal: dict[int, int] = {}
        for a, key in enumerate(self.principal_masks):
            by_ideal[key] = by_ideal.get(key, 0) | (1 << a)
        return by_ideal

    @cached_property
    def join_irreducibles(self) -> JoinIrreducibles:
        """J, the distinct principal left ideals: see ``join_irreducibles``.
        Found once per table, as every route that reads J asks for it."""
        return _join_irreducibles(self.l_class_by_ideal)


def _check_associative(m: int, rows) -> None:
    """Light's associativity test over a greedy generating set.

    In any magma, the elements b with (x*b)*c = x*(b*c) for all x, c form a
    closed subset (Clifford & Preston 1961, *The Algebraic Theory of
    Semigroups* I, section 1.2), so checking the generators decides the
    whole table. For a generator b, row (x*b) must equal row x composed with
    row b. Up to 256 elements a row is a bytes object and the composition is
    ``bytes.translate`` of row b through row x; above that the rows are
    composed with ``itemgetter``. On failure the witness is still the
    lexicographically first violating triple.
    """
    if m == 1:
        # The only 1x1 table is associative, and the row check below needs
        # itemgetter of two or more indices, which alone returns a tuple.
        return
    rows = tuple(map(tuple, rows))
    cols = tuple(zip(*rows))
    gens = _generating_set(m, rows, cols)
    if m <= 256:
        as_bytes = tuple(map(bytes, rows))
        through = [r.ljust(256, b"\0") for r in as_bytes]  # translate tables
        holds = all(list(map(as_bytes[b].translate, through))
                    == list(map(as_bytes.__getitem__, cols[b])) for b in gens)
    else:
        holds = all(tuple(map(itemgetter(*rows[b]), rows)) == itemgetter(*cols[b])(rows)
                    for b in gens)
    if holds:
        return
    composed = [itemgetter(*rb) for rb in rows]
    for a, ra in enumerate(rows):
        for b, ab in enumerate(ra):
            left, right = rows[ab], composed[b](ra)
            if left != right:
                c = next(c for c in range(m) if left[c] != right[c])
                raise NotAssociativeError(a, b, c)


def _generating_set(m: int, rows, cols) -> list[int]:
    """Elements in ascending order, each kept unless the product already
    reaches it from those kept before.

    The closure takes every product of two elements it holds, so it is
    defined whether or not the table is associative.
    """
    gens: list[int] = []
    closure: list[int] = []
    inside: set[int] = set()
    done = 0
    for g in range(m):
        if g in inside:
            continue
        gens.append(g)
        inside.add(g)
        closure.append(g)
        while done < len(closure):
            x = closure[done]
            done += 1
            prefix = closure[:done]
            new = set(map(rows[x].__getitem__, prefix))
            new.update(map(cols[x].__getitem__, prefix))
            new -= inside
            inside |= new
            closure.extend(new)
        if len(inside) == m:
            break
    return gens


def parse_cayley_table(text: str) -> CayleyTable:
    """Parse the plain-text table format.

    Lines starting with ``#`` are comments. The first data line is the order
    m, followed by m lines of m whitespace-separated 0-based indices, and an
    optional final line ``labels: a b c ...``.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise TableSyntaxError("empty input")
    try:
        m = int(data[0])
    except ValueError:
        raise TableSyntaxError(f"first line must be the order, got {data[0]!r}") from None
    if m <= 0:
        raise TableSyntaxError("order must be positive")
    if len(data) < 1 + m:
        raise TableSyntaxError(f"expected {m} table rows, got {len(data) - 1}")
    # Each token in its plain decimal spelling is one dict lookup; a row
    # with any other token (``007``, ``+1``, out of range, not a number)
    # goes through ``int``, which keeps its value and its error.
    index = {str(x): x for x in range(m)}.__getitem__
    rows = []
    for i in range(1, 1 + m):
        toks = data[i].split()
        if len(toks) != m:
            raise TableSyntaxError(f"row {i - 1} has {len(toks)} entries, expected {m}")
        try:
            row = tuple(map(index, toks))
        except KeyError:
            try:
                row = tuple(map(int, toks))
            except ValueError:
                raise TableSyntaxError(f"row {i - 1} has a non-integer entry") from None
        rows.append(row)
    labels = None
    rest = data[1 + m:]
    if rest:
        if len(rest) > 1 or not rest[0].startswith("labels:"):
            raise TableSyntaxError("unexpected trailing content")
        labels = tuple(rest[0][len("labels:"):].split())
    return CayleyTable(order=m, rows=tuple(rows), labels=labels)


def serialize_cayley_table(t: CayleyTable) -> str:
    """Inverse of :func:`parse_cayley_table`, normalized to single spaces and LF."""
    name = [str(x) for x in range(t.order)].__getitem__
    out = [str(t.order)]
    out += [" ".join(map(name, row)) for row in t.rows]
    if t.labels is not None:
        out.append("labels: " + " ".join(t.labels))
    return "\n".join(out) + "\n"


class LeftIdeal(NamedTuple):
    """A subset closed under left multiplication, as a bit vector."""

    members: int
    size: int
    nontrivial: bool

    @staticmethod
    def from_mask(t: CayleyTable, mask: int) -> "LeftIdeal":
        return LeftIdeal(mask, mask.bit_count(), mask != t.full_mask)


class LClass(NamedTuple):
    """An equivalence class of elements generating the same principal left ideal."""

    representative: int
    members: int


class IdealFamily(NamedTuple):
    """All nontrivial left ideals of a semigroup (or a capped prefix of them).

    ``ideals`` is deduplicated and sorted by (cardinality, mask), and
    ``codes`` holds their J-codes (see ``enumerate_left_ideals``).
    ``minimal_indices`` / ``maximal_indices`` point at the members that are
    minimal and maximal nontrivial left ideals of S. On a complete family
    these are its minimal and maximal members under inclusion; a truncated
    prefix lists only the true extremes it happens to hold.
    """

    order: int
    ideals: tuple[LeftIdeal, ...]
    minimal_indices: tuple[int, ...]
    maximal_indices: tuple[int, ...]
    truncated: bool
    codes: tuple[int, ...]

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(i.members for i in self.ideals)

    @property
    def minimal_masks(self) -> tuple[int, ...]:
        return tuple(self.ideals[i].members for i in self.minimal_indices)

    @property
    def maximal_masks(self) -> tuple[int, ...]:
        return tuple(self.ideals[i].members for i in self.maximal_indices)


def principal_left_ideal(t: CayleyTable, a: int) -> LeftIdeal:
    """Smallest left ideal containing ``a``: S*a together with a itself."""
    if not 0 <= a < t.order:
        raise ValueError(f"element {a} out of range")
    return LeftIdeal.from_mask(t, t.principal_masks[a])


def is_left_ideal(t: CayleyTable, mask: int) -> bool:
    """True when the nonempty subset ``mask`` of S absorbs left multiplication."""
    if mask & ~t.full_mask:
        raise ValueError(f"mask {mask} is not a subset of the {t.order} elements")
    if mask == 0:
        return False
    m = mask
    while m:
        b = m & -m
        a = b.bit_length() - 1
        for s in range(t.order):
            if not (mask >> t.rows[s][a]) & 1:
                return False
        m ^= b
    return True


def l_classes(t: CayleyTable) -> list[LClass]:
    """Partition of the elements by equality of their principal left ideals."""
    classes = [
        LClass(representative=(members & -members).bit_length() - 1, members=members)
        for members in t.l_class_by_ideal.values()
    ]
    classes.sort(key=lambda c: c.representative)
    return classes


class JoinIrreducibles(NamedTuple):
    """The join-irreducible left ideals J: the distinct principal left
    ideals, sorted by (size, mask), a linear extension of inclusion.
    ``below[i]`` is the bitset of the members of J strictly inside
    ``masks[i]``, all of them before it."""

    masks: tuple[int, ...]
    below: tuple[int, ...]

    @property
    def antichain(self) -> bool:
        """Whether no member of J is inside another. Then every down-set of J
        is a subset of it, so the left ideals with the empty set are the
        Boolean lattice on J: their graph is the Boolean model on |J| points."""
        return not any(self.below)

    @property
    def widest_layer(self) -> int:
        """The most members of J of one size. Distinct sets of one size are
        incomparable, so w of them are an antichain, and the down-sets they
        generate are 2^w distinct left ideals (with the empty set)."""
        sizes = list(map(int.bit_count, self.masks))
        return max(map(sizes.count, set(sizes)), default=0)

    def unions(self):
        """The map from a code, a set of members of J by bit, to the union of
        those members: the OR of two precomputed unions, one of a subset of
        each half of J.

        Checked first: each member of J holds an element that no other
        member holds, so a code's union holds exactly the members of J its
        bits name, and the map is one-to-one and keeps inclusion both ways.
        This holds for every antichain of principal left ideals: the
        generator of one lies in no other, or that one would contain it."""
        once = twice = 0
        for m in self.masks:
            twice |= once & m
            once |= m
        if any(not m & ~twice for m in self.masks):
            raise RuntimeError("join-irreducible certificate failed: a member of J "
                               "holds no element of its own")
        h = len(self.masks) // 2
        low, high = _subset_unions(self.masks[:h]), _subset_unions(self.masks[h:])
        half = (1 << h) - 1
        return lambda code: low[code & half] | high[code >> h]


def _subset_unions(masks) -> list[int]:
    """The union of each subset of ``masks``, indexed by the subset as bits."""
    out = [0]
    for m in masks:
        out += [x | m for x in out]
    return out


def join_irreducibles(t: CayleyTable) -> JoinIrreducibles:
    """The distinct principal left ideals of ``t``, which are the
    join-irreducibles J of its lattice of left ideals, in (size, mask)
    order with their ``below`` bitsets. Cached on the table."""
    return t.join_irreducibles


def _join_irreducibles(principal) -> JoinIrreducibles:
    """J from the principal left ideals, by a subset test of each pair."""
    joins = sorted(principal, key=lambda p: (p.bit_count(), p))
    below = []
    for i, p in enumerate(joins):
        low = 0
        for j in range(i):
            if joins[j] & p == joins[j]:
                low |= 1 << j
        below.append(low)
    return JoinIrreducibles(tuple(joins), tuple(below))


def enumerate_left_ideals(t: CayleyTable, cap: int = DEFAULT_IDEAL_CAP) -> IdealFamily:
    """All nontrivial left ideals, as the down-sets of the principal ones.

    The distinct principal left ideals are the join-irreducibles J of the
    lattice of left ideals (``join_irreducibles``), so each left ideal is
    the union of one down-set of J, whose bit i is set iff it holds J[i]:
    its J-code; all of J is S (Birkhoff 1937). With J sorted by (size,
    mask), a linear extension, the walk adds one member of J per step,
    after the last one held and with all of J below it held, keeping those
    candidates as a bitset per ideal (Habib, Medina, Nourine & Steiner
    2001). An ideal is minimal iff it holds one member of J, and maximal iff
    it holds all of J but one.

    Stops with ``truncated=True`` when there are more than ``cap`` ideals;
    the family then holds the first ``cap`` the walk reaches, each with its
    parent (the ideal without its last member of J) unless that is empty.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    joins, below = join_irreducibles(t)
    above: list[list[int]] = [[] for _ in joins]  # the members strictly containing each
    for i, low in enumerate(below):
        while low:
            b = low & -low
            above[b.bit_length() - 1].append(i)
            low ^= b
    top = (1 << len(joins)) - 1  # all of J: S itself
    found: list[tuple[int, int]] = []  # (mask, code), in the order the walk reaches them
    # (code, mask, the members of J it may add next), from the empty set
    stack = [(0, 0, sum(1 << i for i, b in enumerate(below) if not b))]
    while stack and len(found) <= cap:
        code, mask, nxt = stack.pop()
        while nxt:
            b = nxt & -nxt
            nxt ^= b
            child = code | b
            if child == top:  # only the last member of J completes it
                break
            i = b.bit_length() - 1
            grown = nxt
            for j in above[i]:
                if not below[j] & ~child:
                    grown |= 1 << j
            found.append((mask | joins[i], child))
            stack.append((child, mask | joins[i], grown))
    truncated = len(found) > cap
    del found[cap:]
    found.sort(key=lambda mc: (mc[0].bit_count(), mc[0]))
    codes = tuple(c for _, c in found)
    return IdealFamily(
        order=t.order,
        ideals=tuple(LeftIdeal(m, m.bit_count(), True) for m, _ in found),
        minimal_indices=tuple(k for k, c in enumerate(codes) if c.bit_count() == 1),
        maximal_indices=tuple(k for k, c in enumerate(codes)
                              if c.bit_count() == len(joins) - 1),
        truncated=truncated,
        codes=codes,
    )


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def is_maximal_left_ideal(t: CayleyTable, k: LeftIdeal | int) -> bool:
    """Maximality test: a left ideal is maximal iff its complement is one L-class.

    The argument is a left ideal iff the union of its members' principal
    ideals stays inside it; the members are picked by the mask's bits as
    0/1 selector bytes, so the union is one pass of C-level calls.
    """
    mask = k.members if isinstance(k, LeftIdeal) else k
    pm = t.principal_masks
    if (not 0 < mask < t.full_mask
            or reduce(or_, compress(pm, bin(mask)[:1:-1].encode().translate(_BITS))) & ~mask):
        raise ValueError("argument must be a nontrivial left ideal")
    rest = t.full_mask & ~mask
    return t.l_class_by_ideal[pm[(rest & -rest).bit_length() - 1]] == rest


def idempotents(t: CayleyTable) -> list[int]:
    return [e for e in range(t.order) if t.rows[e][e] == e]


def is_completely_simple(t: CayleyTable) -> bool:
    """True when S has no proper two-sided ideal and a primitive idempotent.

    The product z of all elements lies in every two-sided ideal, so the
    ideal it generates is the least one (the kernel), and S is simple iff
    that is S. The kernel S^1 z S^1 is the union of x S^1 over the members x
    of S^1 z, ``principal_masks[z]``, and x S^1 is x together with its row
    of the table: one set union of rows, with no closure to iterate. An
    idempotent e is primitive when no other idempotent f satisfies
    ef = fe = f.
    """
    z_mask = t.principal_masks[reduce(t.mul, range(t.order))]
    members = [x for x in range(t.order) if z_mask >> x & 1]
    if len(set(members).union(*map(t.rows.__getitem__, members))) != t.order:
        return False
    es = idempotents(t)
    for e in es:
        if not any(
            f != e and t.rows[e][f] == f and t.rows[f][e] == f for f in es
        ):
            return True
    return False
