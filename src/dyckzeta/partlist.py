"""Part listings and their posets.

A part listing is any sequence w of non-negative integers.  It defines a
poset on positions 1..n: i is below j when w_j - w_i >= 2, or when
w_j - w_i = 1 and i < j.  Every such poset is isomorphic to a unique unit
interval order, and for each unit interval order there is a unique listing
that is also the area sequence of a Dyck path; the insertion algorithm in
q_map builds it one element at a time.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from operator import add, or_
from typing import Iterator, Sequence

from .errors import PreconditionError, ValidationError
from .lattice import AreaSequence, DyckWord, _csv, _word_of_area
from .uio import LevelProfile, UnitIntervalOrder


@dataclass(frozen=True, slots=True)
class PartListing:
    """Sequence of non-negative integers, no other constraint."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for pos, w in enumerate(self.entries, start=1):
            if w < 0:
                raise ValidationError(f"entry {pos} is negative: {w}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return _csv(self.entries)


@dataclass(frozen=True, slots=True)
class Poset:
    """Strict partial order on {1..n} as a boolean relation matrix.

    Irreflexivity, antisymmetry and transitivity are asserted on
    construction, guarding against slips in relation-building code.
    """

    n: int
    below: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "below", tuple(tuple(row) for row in self.below))
        if len(self.below) != self.n or any(len(row) != self.n for row in self.below):
            raise ValidationError(f"relation matrix is not {self.n}x{self.n}")
        m = self.below
        for i in range(self.n):
            if m[i][i]:
                raise ValidationError(f"irreflexivity violated at element {i + 1}")
            for j in range(self.n):
                if m[i][j] and m[j][i]:
                    raise ValidationError(
                        f"antisymmetry violated between {i + 1} and {j + 1}"
                    )
        for i in range(self.n):
            for j in range(self.n):
                if not m[i][j]:
                    continue
                for k in range(self.n):
                    if m[j][k] and not m[i][k]:
                        raise ValidationError(
                            f"transitivity violated: {i + 1} < {j + 1} < {k + 1}"
                        )

    def holds(self, i: int, j: int) -> bool:
        """True iff element i is below element j (1-based)."""
        return self.below[i - 1][j - 1]

    def relation_count(self) -> int:
        return sum(row.count(True) for row in self.below)

    def covers(self, i: int, j: int) -> bool:
        """True iff i is below j with nothing strictly between them."""
        return self.holds(i, j) and not any(
            self.holds(i, k) and self.holds(k, j) for k in range(1, self.n + 1)
        )


def poset_to_json(p: Poset, covers: bool = False) -> str:
    """Serialize as a JSON relation list [[i,j],...], sorted.

    With covers=True only the covering pairs are emitted; otherwise the full
    relation.
    """
    keep = p.covers if covers else p.holds
    pairs = [
        [i, j]
        for i in range(1, p.n + 1)
        for j in range(1, p.n + 1)
        if keep(i, j)
    ]
    return json.dumps({"n": p.n, "relations": pairs, "covers": covers})


#: Largest n poset_from_json accepts.  Its transitive closure and the
#: Poset checks are cubic in n: a 200-element chain given by its covers
#: parses in about 0.33 s (Python 3.11, 2-CPU VM).
POSET_JSON_MAX_N = 200


def poset_from_json(text: str) -> Poset:
    """Parse the output of poset_to_json; covering input is closed
    transitively before the poset invariants are checked.

    n must be an integer in 0..POSET_JSON_MAX_N (200), checked before
    anything of size n is allocated.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad poset JSON: {exc}") from None
    if (
        not isinstance(raw, dict)
        or not isinstance(raw.get("n"), int)
        or not isinstance(raw.get("relations"), list)
    ):
        raise ValidationError('poset JSON must be {"n": ..., "relations": [[i,j],...]}')
    n = raw["n"]
    if isinstance(n, bool) or not 0 <= n <= POSET_JSON_MAX_N:
        raise ValidationError(
            f"poset size must be an integer in 0..{POSET_JSON_MAX_N}, got {n!r}"
        )
    below = [[False] * n for _ in range(n)]
    for pair in raw["relations"]:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(type(e) is int and 1 <= e <= n for e in pair)
        ):
            raise ValidationError(f"bad relation pair {pair!r}")
        below[pair[0] - 1][pair[1] - 1] = True
    if raw.get("covers"):       # Warshall: one pass per intermediate k
        for k, through in enumerate(below):
            for row in below:
                if row[k]:
                    row[:] = map(or_, row, through)
    return Poset(n, tuple(tuple(row) for row in below))


@dataclass(frozen=True, slots=True)
class InsertionTrace:
    """Record of an insertion run: levels, comparability counts C_i, and
    where each letter landed.  The intermediate listings q_1..q_n follow
    from these and are replayed by `words`."""

    levels: LevelProfile
    c: tuple[int, ...]
    positions: tuple[int, ...]

    def __post_init__(self):
        n = self.levels.n
        if not (len(self.c) == len(self.positions) == n):
            raise ValidationError("trace components disagree on length")
        for i, pos in enumerate(self.positions):
            if not 0 <= pos <= i:
                raise ValidationError(
                    f"letter {i + 1} inserted at {pos}, outside 0..{i}"
                )

    @property
    def words(self) -> tuple[PartListing, ...]:
        """The intermediate listings q_1..q_n, rebuilt insertion by insertion."""
        words = []
        cur: tuple[int, ...] = ()
        for level, pos in zip(self.levels.levels, self.positions):
            cur = cur[:pos] + (level,) + cur[pos:]
            words.append(PartListing(cur))
        return tuple(words)


def poset_of(w: PartListing) -> Poset:
    """Poset of a listing: i below j iff w_j - w_i >= 2, or = 1 with i < j."""
    n = w.n
    e = w.entries
    below = [
        tuple(
            i != j and (e[j] - e[i] >= 2 or (e[j] - e[i] == 1 and i < j))
            for j in range(n)
        )
        for i in range(n)
    ]
    return Poset(n, tuple(below))


def poset_from_uio(u: UnitIntervalOrder) -> Poset:
    """The order u as a relation matrix on the same labels."""
    below = [
        tuple(i + 1 <= u.pred[j] for j in range(u.n))
        for i in range(u.n)
    ]
    return Poset(u.n, tuple(below))


def _insertion_point(entries: tuple[int, ...], level: int, c: int) -> int:
    """Index at which one copy of `level` is inserted.

    Anchor just after the c-th occurrence of level - 1 (start of word when
    c = 0), then advance past the contiguous run of letters equal to `level`
    beginning there.  Occurrences of `level` elsewhere are not skipped.
    """
    if level < 0:
        raise PreconditionError(f"level must be non-negative, got {level}")
    if c < 0:
        raise PreconditionError(f"count must be non-negative, got {c}")
    if level == 0 and c != 0:
        raise PreconditionError("no letter below 0 exists, so c must be 0 at level 0")
    pos = 0
    try:
        for _ in range(c):
            pos = entries.index(level - 1, pos) + 1
    except ValueError:
        raise PreconditionError(f"need {c} occurrences of {level - 1}, "
                                f"found only {entries.count(level - 1)}") from None
    while pos < len(entries) and entries[pos] == level:
        pos += 1
    return pos


def q_step(q_prev: PartListing, level: int, c: int) -> PartListing:
    """One insertion step: add a copy of `level` to q_prev.

    See _insertion_point for the placement rule.
    """
    pos = _insertion_point(q_prev.entries, level, c)
    e = q_prev.entries
    return PartListing(e[:pos] + (level,) + e[pos:])


def _insert(
    cur: tuple[int, ...], lv: list[int], p: int
) -> tuple[tuple[int, ...], int, int, int]:
    """Insert the next element, which has p predecessors, into listing cur.

    lv holds the levels of the elements already inserted (only lv[:p] is
    read).  The element's level is one more than that of its last
    predecessor (0 with none); C counts the predecessors one level lower,
    which, levels being weakly increasing, end at index p - 1.  Returns the
    grown listing, the level, C and the insertion position.
    """
    if p == 0:
        level = c = 0
    else:
        level = lv[p - 1] + 1
        c = p - bisect_left(lv, level - 1, 0, p)
    pos = _insertion_point(cur, level, c)
    return cur[:pos] + (level,) + cur[pos:], level, c, pos


def _insert_all(u: UnitIntervalOrder) -> tuple[tuple[int, ...], list, list, list]:
    """Insert the elements of u in turn: the finished listing, unchecked,
    with the levels, C_i and positions of the run."""
    cur: tuple[int, ...] = ()
    lv: list[int] = []
    cs: list[int] = []
    positions: list[int] = []
    for p in u.pred:
        cur, level, c, pos = _insert(cur, lv, p)
        lv.append(level)
        cs.append(c)
        positions.append(pos)
    return cur, lv, cs, positions


def q_map(u: UnitIntervalOrder) -> tuple[PartListing, InsertionTrace]:
    """Insert the level of each element of u in turn.

    For element i, C_i counts the predecessors of i whose level is one less
    than i's; since levels are weakly increasing these predecessors are a
    contiguous block of {1, ..., pred[i]}.  The finished listing is always a
    valid area sequence, and its poset is the original order up to the
    relabeling of relabeled_poset.
    """
    cur, lv, cs, positions = _insert_all(u)
    AreaSequence(cur)   # the finished listing must be an area sequence
    trace = InsertionTrace(LevelProfile(tuple(lv)), tuple(cs), tuple(positions))
    return PartListing(cur), trace


def p_map(u: UnitIntervalOrder) -> DyckWord:
    """Path whose area sequence is the listing produced by q_map."""
    return _word_of_area(_insert_all(u)[0])


def f_permutation(w: PartListing) -> tuple[int, ...]:
    """Number positions by increasing entry value, ties left to right.

    All positions holding 0 get 1, 2, ... left to right, then the positions
    holding 1, and so on; entry i of the result is the number assigned to
    position i.
    """
    by_value = sorted(range(w.n), key=lambda i: (w.entries[i], i))
    f = [0] * w.n
    for number, pos in enumerate(by_value, start=1):
        f[pos] = number
    return tuple(f)


def relabeled_poset(w: PartListing) -> Poset:
    """Transport poset_of(w) along f_permutation: i below j iff their
    preimages compare in the listing's poset."""
    base = poset_of(w)
    f = f_permutation(w)
    preimage = [0] * w.n            # preimage[label - 1] = 0-based position
    for pos, label in enumerate(f):
        preimage[label - 1] = pos
    below = [
        tuple(base.below[preimage[i]][preimage[j]] for j in range(w.n))
        for i in range(w.n)
    ]
    return Poset(w.n, tuple(below))


def _degrees(p: Poset) -> list[tuple[int, int]]:
    """(|down-set|, |up-set|) of each element; isomorphisms preserve it."""
    return [(column.count(True), row.count(True))
            for column, row in zip(zip(*p.below), p.below)]


def is_isomorphic(p1: Poset, p2: Poset) -> bool:
    """Brute-force isomorphism with degree-signature pruning; fine for n <= 9.

    A size mismatch is simply False, not an error.
    """
    if p1.n != p2.n:
        return False
    n = p1.n
    sig1, sig2 = _degrees(p1), _degrees(p2)
    if sorted(sig1) != sorted(sig2):
        return False
    candidates = [
        [j for j in range(n) if sig2[j] == sig1[i]]
        for i in range(n)
    ]
    assigned = [-1] * n
    used = [False] * n

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for j in candidates[i]:
            if used[j]:
                continue
            ok = all(
                p1.below[k][i] == p2.below[assigned[k]][j]
                and p1.below[i][k] == p2.below[j][assigned[k]]
                for k in range(i)
            )
            if ok:
                assigned[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
        return False

    return backtrack(0)


def grevlex_key(w: PartListing) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing graded reverse lexicographic order."""
    return (sum(w.entries), tuple(-x for x in w.entries))


def grevlex_compare(w1: PartListing, w2: PartListing) -> int:
    """-1, 0 or 1 as w1 is smaller, equal or larger in grevlex order.

    Sums compare first; on a tie the listing with the LARGER entry at the
    first differing position is the smaller one.
    """
    if w1.n != w2.n:
        raise PreconditionError(
            f"grevlex compares equal-length listings, got {w1.n} and {w2.n}"
        )
    k1, k2 = grevlex_key(w1), grevlex_key(w2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


def _fillers(mask: int) -> int:
    """How many more distinct values a listing needs before it is
    normalized, given its set of values as a bit mask (bit v for value v).

    A run of L missing values between two present ones needs L // 2 of
    them; the run below the least value, which must reach 0, needs
    (L + 1) // 2, the same rule with a present value -2 below it.
    """
    return sum(len(run) // 2 for run in f"{mask << 2 | 1:b}".split("1"))


def _normalized_listings(n: int) -> Iterator[tuple[bytes, tuple[int, ...]]]:
    """Every normalized listing of length n and sum at most n(n-1)/2, by
    sum and within a sum lexicographically descending, as bytes, with its
    key: the sorted codes 16 |down-set| + |up-set| of the elements of its
    poset.

    A listing is normalized when its least entry is 0 and its distinct
    values, sorted, step by at most 2.  Every grevlex minimum is: the
    listing rule only compares differences with 1 and 2, so subtracting
    the least entry, or lowering every entry above a step of 3 or more
    until that step is 2, keeps poset_of and lowers the sum.

    A depth-first walk over prefixes.  The children of a prefix depend only
    on its set of values, the number of entries left and their sum; they
    are memoized, keeping only children that lead to a listing.  Codes are
    kept per prefix: byte i of `codes` is the code of entry i, and byte w
    of `own` the code an entry w appended next would get.  Appending v
    adds later[v][x] to the code of each earlier entry x and earlier[v][w]
    to `own` at each w.  The last two entries are placed together, the
    last one forced by the sum.
    """
    if n > 16:
        raise PreconditionError(
            f"the listing walk keeps a code in a byte: n <= 16, got {n}")
    if n < 2:
        yield bytes(n), (0,) * n
        return
    top = 2 * n - 2                 # the largest entry of a normalized listing
    # poset_of: x before v is below v iff v - x >= 1, above it iff x - v >= 2
    later = [b"\x01" * v + b"\x00\x00" + b"\x10" * (254 - v) for v in range(top + 1)]
    earlier = [bytes(16 if v < w else 1 if v >= w + 2 else 0 for w in range(top + 1))
               for v in range(top + 1)]
    last = 8 * (n - 2)
    fillers = cache(_fillers)
    both = cache(lambda v, w: bytes(map(add, later[v], later[w])))
    memo: dict = {}

    def children(mask: int, left: int, total: int) -> list:
        key = (mask, left, total)
        kids = memo.get(key)
        if kids is None:
            kids = []
            # above the largest value plus 2 * left, a gap cannot be filled
            for v in range(min(total, top, mask.bit_length() + 2 * left - 1), -1, -1):
                m = mask | 1 << v
                if fillers(m) >= left:
                    continue
                if left == 2:
                    w = total - v
                    if w <= top and fillers(m | 1 << w) == 0:
                        between = later[w][v] + (earlier[v][w] << 8)
                        kids.append((bytes((v, w)), v, w, both(v, w), between << last))
                elif children(m, left - 1, total - v):
                    kids.append((v, m, later[v], int.from_bytes(earlier[v], "little")))
            memo[key] = kids
        return kids

    stack = [(0, n, total, b"", 0, 0) for total in range(n * (n - 1) // 2, -1, -1)]
    while stack:
        mask, left, total, xs, codes, own = stack.pop()
        own_code = own.to_bytes(top + 1, "little")
        if left == 2:
            for tail, v, w, step, between in children(mask, 2, total):
                full = (codes + int.from_bytes(xs.translate(step), "little") + between
                        + ((own_code[v] + (own_code[w] << 8)) << last))
                yield xs + tail, tuple(sorted(full.to_bytes(n, "little")))
            continue
        shift = 8 * len(xs)
        for v, m, step, grow in reversed(children(mask, left, total)):
            stack.append((m, left - 1, total - v, xs + bytes((v,)),
                          codes + int.from_bytes(xs.translate(step), "little")
                          + (own_code[v] << shift),
                          own + grow))


def grevlex_minima(orders: Sequence[UnitIntervalOrder]) -> list[PartListing]:
    """For each order (all of one size n), the grevlex-minimal listing whose
    poset is isomorphic to it, found in one walk over the listings.

    The walk (_normalized_listings) goes in ascending grevlex order over
    the normalized listings, which hold every minimum, so an order's first
    isomorphic listing is its minimum.  A listing's sorted (|down-set|,
    |up-set|) pairs are looked up among the orders still waiting, and
    is_isomorphic confirms every hit: the pairs only filter.  Nothing here
    inserts, so this is an oracle for q_map.  Every order has a listing of
    sum at most n(n-1)/2, the largest area-sequence sum, which bounds the
    walk.
    """
    n = orders[0].n if orders else 0
    targets = [poset_from_uio(u) for u in orders]
    waiting: dict[tuple, list[int]] = {}
    for idx, target in enumerate(targets):
        key = tuple(sorted(16 * down + up for down, up in _degrees(target)))
        waiting.setdefault(key, []).append(idx)
    found: list = [None] * len(orders)
    for entries, key in _normalized_listings(n):
        if not waiting:
            return found
        if key in waiting:
            w = PartListing(entries)
            poset = poset_of(w)
            for idx in waiting.pop(key):
                if is_isomorphic(poset, targets[idx]):
                    found[idx] = w
                else:
                    waiting.setdefault(key, []).append(idx)
    if waiting:
        raise RuntimeError("unreachable: every unit interval order has a part listing")
    return found


def grevlex_min_search(u: UnitIntervalOrder, n_max_guard: int = 6) -> PartListing:
    """Grevlex-minimal listing whose poset is isomorphic to u: grevlex_minima
    of u alone, refused above n_max_guard, since one order may walk every
    listing up to sum n(n-1)/2."""
    if u.n > n_max_guard:
        raise PreconditionError(
            f"exhaustive search refused for n = {u.n} > guard {n_max_guard}"
        )
    return grevlex_minima([u])[0]
