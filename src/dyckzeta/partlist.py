"""Part listings and their posets.

A part listing is any sequence w of non-negative integers.  It defines a
poset on positions 1..n: i is below j when w_j - w_i >= 2, or when
w_j - w_i = 1 and i < j.  Every such poset is isomorphic to a unique unit
interval order, and for each unit interval order there is a unique listing
that is also the area sequence of a Dyck path; the insertion algorithm in
q_map builds it one element at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError, ValidationError
from .lattice import AreaSequence, DyckWord, _csv, _word_of_area
from .uio import UnitIntervalOrder

#: The largest order listed: levels < n are bytes in the sweeps and
#: grevlex_min, and map's walk keeps a listing per prefix of a line.
LISTING_MAX_N = 255
_LETTERS = tuple(bytes((level,)) for level in range(LISTING_MAX_N))    # _walk's, per level


def _bound_listing(n: int) -> None:
    if n > LISTING_MAX_N:
        raise PreconditionError(f"listed orders have size <= {LISTING_MAX_N}, got {n}")


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


@dataclass(frozen=True, slots=True)
class InsertionTrace:
    """Record of an insertion run: levels, comparability counts C_i, and
    where each letter landed.  The intermediate listings q_1..q_n follow
    from these and are replayed by `words`."""

    levels: tuple[int, ...]
    c: tuple[int, ...]
    positions: tuple[int, ...]

    def __post_init__(self):
        levels = self.levels
        if not (len(self.c) == len(self.positions) == len(levels)):
            raise ValidationError("trace components disagree on length")
        if min(levels, default=0) != 0 or sorted(levels) != list(levels):
            raise ValidationError(
                f"levels {_csv(levels)} do not start at 0 and rise weakly"
            )
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
        for level, pos in zip(self.levels, self.positions):
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


def _insertion_point(entries: tuple[int, ...], level: int, c: int) -> int:
    """Index at which one copy of `level` is inserted.

    Anchor just after the c-th occurrence of level - 1 (start of word when
    c = 0), then advance past the contiguous run of letters equal to `level`
    beginning there.  Occurrences of `level` elsewhere are not skipped.
    """
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


def _walk(steps: Iterable[tuple[int, Sequence[int]]]) -> Iterator[tuple[bytes, bool]]:
    """q(U) as bytes, unchecked, and whether it is known to be an area
    sequence, per (d, pred) of a stream: pred vectors in any order and of
    any size up to LISTING_MAX_N (a longer one is refused before it is
    walked), each keeping the first d entries of the one before, so that
    only pred[d:] is inserted, as _insert does.  A letter x put into an area
    sequence keeps it one iff x is at most one more than the letter before
    it (0 at the start) and the letter after it at most one more than x."""
    # lv[i]: the level of element i; first[x]: the first element of level x,
    # kept right below a kept prefix as levels only grow; lv[-1] = -1 and
    # first[-1] = 0 give an element with no predecessor level 0 and C = 0
    lv, first = [0] * LISTING_MAX_N + [-1], [0] * (LISTING_MAX_N + 1)
    stack = [(b"", True)] * (LISTING_MAX_N + 1)     # stack[i]: the listing of
    for d, pred in steps:                           # elements 0..i - 1, its flag
        _bound_listing(n := len(pred))
        for i, p in enumerate(pred[d:], d):
            cur, known = stack[i]
            level = lv[p - 1] + 1
            c = p - first[level - 1]
            parts = cur.split(_LETTERS[level - 1], c) if c else (cur,)
            if len(parts) <= c:     # fewer than C letters level - 1: the objects' error
                _insertion_point(cur, level, c)
            pos = i - len(parts[-1])                # just after the C-th one
            while pos < i and cur[pos] == level:    # then past a run of level
                pos += 1
            grown = cur[:pos] + _LETTERS[level] + cur[pos:]
            x = grown[pos]                          # the letter written
            known = known and x <= (grown[pos - 1] + 1 if pos else 0) and (
                pos == i or grown[pos + 1] <= x + 1)
            if lv[i - 1] != level:
                first[level] = i
            stack[i + 1], lv[i] = (grown, known), level
        yield stack[n]


def q_map(u: UnitIntervalOrder) -> tuple[PartListing, InsertionTrace]:
    """Insert the level of each element of u in turn.

    For element i, C_i counts the predecessors of i whose level is one less
    than i's; since levels are weakly increasing these predecessors are a
    contiguous block of {1, ..., pred[i]}.  The finished listing is always a
    valid area sequence, and its poset is the original order up to the
    relabeling that numbers its elements by (value, position) (_order_of).
    """
    cur, lv, cs, positions = _insert_all(u)
    AreaSequence(cur)   # the finished listing must be an area sequence
    trace = InsertionTrace(tuple(lv), tuple(cs), tuple(positions))
    return PartListing(cur), trace


def p_map(u: UnitIntervalOrder) -> DyckWord:
    """Path whose area sequence is the listing produced by q_map."""
    return _word_of_area(_insert_all(u)[0])


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


def _order_of(w: Sequence[int]) -> tuple[int, ...]:
    """The pred vector of the unit interval order that poset_of(w) is
    isomorphic to: the sorted sizes of the down-sets, where the entry x at
    position p lies above the entries <= x - 2 and the entries x - 1
    before p.

    Number the elements by (value, position): the 0s left to right, then
    the 1s, and so on.  The down-set of x at p is then a prefix: every
    entry <= x - 2, then the entries x - 1 before p, which come first among
    the x - 1.  The prefixes grow along the order: an x after p has no fewer
    x - 1 before it, and the down-set of an x + 1 or more holds every entry
    <= x - 1.  So poset_of(w), so renumbered, is the unit interval order
    whose pred vector lists these sizes in that order, which is the sorted
    one (tests/helpers.py's relabeled_poset renumbers it).  The C_n pred
    vectors give the C_n orders up to isomorphism, so two listings have
    isomorphic posets exactly when their vectors are equal.  So _order_of
    inverts q, and the bijections sweep checks q by it.
    """
    ordered = sorted(w)
    seen = [0] * (ordered[-1] + 2) if ordered else []   # seen[x]: x - 1 so far
    down = []
    for x in w:
        down.append(bisect_left(ordered, x - 1) + seen[x])
        seen[x + 1] += 1
    return tuple(sorted(down))


def grevlex_min(pred: Sequence[int]) -> bytes:
    """The grevlex-minimal listing whose poset is isomorphic to the order
    with this pred vector, as bytes, read off the vector: nothing inserts
    and no listing is searched, so this is an oracle for q_map.

    By _order_of's lemma, a listing of the order U splits U's labels into
    value blocks: numbered by (value, position), value x holds the labels
    b_x..b_(x+1) - 1, and label i of block x has pred_i = b_(x-1) + the
    number of letters x - 1 before it (b_(-1) = b_0 = 0, and b_x = n past
    the largest value).  So b_(x-1) <= pred_i <= b_x, and the listing's sum
    is the sum over x >= 1 of n - b_x.

    Least sum.  Every label of blocks 0..x has pred <= b_x, and pred rises
    weakly, so b_1 <= #{pred = 0} and b_(x+1) <= #{pred <= b_x}.  Let the
    level boundaries be L_0 = 0 and L_(x+1) = #{pred <= L_x}.  If
    b_x <= L_x, then b_(x+1) <= #{pred <= b_x} <= #{pred <= L_x} = L_(x+1);
    so b_x <= L_x for every x, and a partition other than the levels' has a
    larger sum.  The levels' one is realized by the merge below, so it is
    the unique least-sum partition.  Its block x + 1 starts at the first
    label whose pred exceeds L_x, and then L_x < pred_i <= L_(x+1) holds
    for each of its labels i.

    Least listing.  Within one sum, the grevlex-least listing is the
    lexicographically largest.  A listing merges the blocks, each in label
    order, and the next label i of block x can come next exactly when
    pred_i - b_(x-1) letters x - 1 are placed, that is, when pred_i is the
    next label of block x - 1: call x ready then.  Placing the largest ready
    x each time gives the lexicographically largest listing, as long as the
    merge never gets stuck.  It does not.  The largest ready x has no ready
    x + 1, so no pending x + 1 needs the count of x's to stay as it is now:
    the next x + 1 needs more x's than are placed, and after this x at
    least as many as are placed.  So each pending label needs at least the
    letters below it that are placed, and the least block left is ready: it
    needs at most the whole block below, and all of that is placed.
    Placing x changes only whether x and x + 1 are ready, so the search for
    the next largest ready value starts at x + 1, and a merge is linear in n.
    """
    n = len(pred)
    starts = [0]                    # starts[x]: the first label of value x
    for i, p in enumerate(pred):
        if p > starts[-1]:
            starts.append(i)
    ends = starts[1:] + [n]
    nxt = [0] + starts              # nxt[x + 1]: the next label of value x
    listing = bytearray()
    x = top = len(starts) - 1
    for _ in range(n):
        while not (nxt[x + 1] < ends[x] and pred[nxt[x + 1]] == nxt[x]):
            x -= 1
        listing.append(x)
        nxt[x + 1] += 1
        x = min(x + 1, top)
    return bytes(listing)


def grevlex_min_search(u: UnitIntervalOrder) -> PartListing:
    """Grevlex-minimal listing whose poset is isomorphic to u (grevlex_min,
    whose bytes hold orders of size <= LISTING_MAX_N)."""
    _bound_listing(u.n)
    return PartListing(grevlex_min(u.pred))
