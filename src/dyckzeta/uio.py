"""Unit interval orders on {1..n}.

An order arises from n unit-length intervals numbered left to right, with
i below j exactly when interval i ends strictly before interval j begins.
The canonical encoding is the predecessor-count vector: pred[j] is the
number of elements below j, and the elements below j are exactly
{1, ..., pred[j]}.  A vector encodes such an order iff 0 <= pred[j] <= j - 1
and pred is weakly increasing; both are enforced at construction.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from operator import sub
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import PreconditionError, ValidationError
from .lattice import (
    DyckWord,
    _csv,
    _parse_int_vector,
    _word_of_area,
    area_sequence_from_word,
    catalan,
)

if TYPE_CHECKING:       # imported where used: fractions pulls in decimal
    from fractions import Fraction


@dataclass(frozen=True, slots=True)
class UnitIntervalOrder:
    """Order stored as its weakly increasing predecessor-count vector."""

    pred: tuple[int, ...]

    def __post_init__(self):
        pred = self.pred
        if type(pred) is not tuple:
            pred = tuple(pred)
            object.__setattr__(self, "pred", pred)
        prev = 0
        for top, p in enumerate(pred):
            if not prev <= p <= top:
                raise ValidationError(
                    f"pred[{top + 1}] = {p} outside 0..{top}" if not 0 <= p <= top
                    else f"pred[{top + 1}] = {p} breaks weak monotonicity "
                    f"(pred[{top}] = {prev})"
                )
            prev = p

    @property
    def n(self) -> int:
        return len(self.pred)

    def __str__(self) -> str:
        return _csv(self.pred)


@dataclass(frozen=True, slots=True)
class IntervalConfiguration:
    """Left endpoints of n unit-length intervals, weakly increasing.

    Endpoints are exact rationals; floats are rejected so that "strictly to
    the left" stays decidable.
    """

    lefts: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "lefts", tuple(_exact(x) for x in self.lefts))
        for idx in range(1, len(self.lefts)):
            if self.lefts[idx] < self.lefts[idx - 1]:
                raise ValidationError(
                    f"left endpoints must be weakly increasing: endpoint "
                    f"{idx + 1} = {self.lefts[idx]} < endpoint {idx} = "
                    f"{self.lefts[idx - 1]}"
                )

    @property
    def n(self) -> int:
        return len(self.lefts)


def _exact(x) -> Fraction:
    from fractions import Fraction
    if isinstance(x, float):
        raise ValidationError(
            f"floating-point endpoint {x!r} rejected; use Fraction or int"
        )
    return Fraction(x)


def uio_from_intervals(config: IntervalConfiguration) -> UnitIntervalOrder:
    """Order with i below j iff interval i lies strictly left of interval j.

    With unit lengths that reads lefts[i] + 1 < lefts[j]; sorted endpoints
    make the predecessors of j a prefix, so pred[j] is a bisection count.
    """
    lefts = config.lefts
    pred = tuple(bisect_left(lefts, left - 1) for left in lefts)
    return UnitIntervalOrder(pred)


def levels(u: UnitIntervalOrder) -> tuple[int, ...]:
    """Longest-chain heights: level of j is 0 if j is minimal, else 1 + max
    level of its predecessors.

    Monotonicity of levels makes that max the level of the last predecessor.
    """
    lv: list[int] = []
    for p in u.pred:
        lv.append(0 if p == 0 else lv[p - 1] + 1)
    return tuple(lv)


def _complement(v: tuple[int, ...]) -> tuple[int, ...]:
    """j - 1 - v[j] per entry, unchecked: pred vector to area sequence under a,
    and back under a_inverse (the map is its own inverse)."""
    return tuple(map(sub, range(len(v)), v))


def a_map(u: UnitIntervalOrder) -> DyckWord:
    """Path whose area set is the incomparable pairs {(x,y) : pred[y] < x < y}.

    Row-wise that is the area sequence a_j = j - 1 - pred[j].
    """
    return _word_of_area(_complement(u.pred))


def a_inverse(d: DyckWord) -> UnitIntervalOrder:
    """Inverse of a_map: pred[j] = j - 1 - a_j."""
    return UnitIntervalOrder(_complement(area_sequence_from_word(d).entries))


def extend(u: UnitIntervalOrder, k: int) -> UnitIntervalOrder:
    """Append a rightmost element with predecessor count k.

    Geometrically: a new unit interval to the right of the existing ones,
    strictly right of intervals 1..k and overlapping the rest.  The new
    element is incomparable to exactly n - k elements.
    """
    floor = u.pred[-1] if u.n else 0
    if not floor <= k <= u.n:
        raise PreconditionError(
            f"extension count k = {k} outside {floor}..{u.n}"
        )
    return UnitIntervalOrder(u.pred + (k,))


def _lex_steps(n: int, start: Optional[tuple[int, ...]] = None):
    """(d, pred) per pred vector of size n in lexicographic order, ascending,
    from the valid pred vector start on (the least one, all 0, by default);
    pred is one list that keeps its first d entries from the step before
    (d = 0 first).  A step is the lexicographic successor: the last entry
    pred[d] below its ceiling d goes up by one and every entry after it
    drops to the new value, the smallest that keeps the vector weakly
    increasing.  That keeps it an order, so only start goes through
    UnitIntervalOrder's check, one order per stream."""
    if n < 0:
        raise PreconditionError(f"size must be non-negative, got {n}")
    pred = list(UnitIntervalOrder((0,) * n if start is None else start).pred)
    if len(pred) != n:
        raise PreconditionError(f"start vector has size {len(pred)}, expected {n}")

    def steps():
        d = 0
        while True:
            yield d, pred
            d = n - 1
            while d > 0 and pred[d] == d:
                d -= 1
            if d <= 0:
                return
            pred[d:] = [pred[d] + 1] * (n - d)

    return steps()


def enumerate_uio(
    n: int, start: Optional[tuple[int, ...]] = None
) -> Iterator[UnitIntervalOrder]:
    """Yield every unit interval order on {1..n} exactly once, in the
    lexicographic order of pred vectors (_lex_steps), from start on if
    given.  Verification shards rely on this order being stable, and one
    that starts at unrank_uio(n, lo) draws only its own orders."""
    steps = _lex_steps(n, start)
    new, put = object.__new__, object.__setattr__

    def stream() -> Iterator[UnitIntervalOrder]:
        for _, pred in steps:
            put(u := new(UnitIntervalOrder), "pred", tuple(pred))
            yield u

    return stream()


def unrank_uio(n: int, r: int) -> tuple[int, ...]:
    """The pred vector of rank r in enumerate_uio(n) order.

    Standard Catalan unranking by ballot numbers (Ruskey, Combinatorial
    Generation; Knuth, TAOCP 7.2.1.6).  count[j][f] is the number of
    weakly increasing tails pred[j..n-1] with every entry at least f and
    pred[i] <= i: count[n][f] = 1 and count[j][f] is the sum of
    count[j + 1][p] over p = f..j.  Entry by entry, each smaller value p is
    skipped together with the count[j + 1][p] completions that start with
    it.  The table is O(n^2) integers, built per call.
    """
    total = catalan(n)
    if not 0 <= r < total:
        raise PreconditionError(f"rank {r} outside 0..{total - 1} for n = {n}")
    count = [[1] * (n + 1)]
    for j in range(n - 1, -1, -1):
        row = [0] * (j + 2)
        for f in range(j, -1, -1):
            row[f] = row[f + 1] + count[0][f]
        count.insert(0, row)
    pred = []
    p = 0
    for j in range(n):
        tail = count[j + 1]
        while r >= tail[p]:
            r -= tail[p]
            p += 1
        pred.append(p)
    return tuple(pred)


def parse_pred(text: str) -> UnitIntervalOrder:
    """Parse a comma-separated predecessor-count vector such as "0,1,1,2"."""
    return UnitIntervalOrder(_parse_int_vector(text))


def _kept_prefixes(rows):
    """(d, row) per row, d the length of the prefix it keeps from the one before."""
    prev = ()
    for row in rows:
        d, top = 0, min(len(row), len(prev))
        while d < top and row[d] == prev[d]:
            d += 1
        yield d, row
        prev = row


def _preds(values):
    """(d, pred) per pred line of map's stream, pred one list that keeps the
    d entries of the tokens kept from the line before and reads the others
    as plain ASCII digits under the order rule pred[j - 1] <= pred[j] <= j;
    any other token or entry gets the line's parse_pred vector or error."""
    pred = []
    for d, tokens in _kept_prefixes(line.split(",") if line else [] for line in values):
        digits = "".join(rest := tokens[d:])
        try:                # an empty token, or one past int()'s digit limit
            suffix = list(map(int, rest)) if digits.isdigit() and digits.isascii() else ()
        except ValueError:
            suffix = ()
        low = pred[d - 1] if d else 0
        for j, p in enumerate(suffix, d):
            if not low <= p <= j:
                suffix = ()
                break
            low = p
        if len(suffix) != len(rest):
            suffix = parse_pred(",".join(tokens)).pred[d:]
        pred[d:] = suffix
        yield d, pred


def parse_intervals(text: str) -> IntervalConfiguration:
    """Parse a JSON list of {"num": ..., "den": ...} left endpoints."""
    from fractions import Fraction
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad interval JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ValidationError("interval JSON must be a list of {num, den} objects")
    lefts = []
    for pos, item in enumerate(raw, start=1):
        if not isinstance(item, dict) or set(item) != {"num", "den"}:
            raise ValidationError(
                f"interval {pos} must be an object with exactly num and den"
            )
        num, den = item["num"], item["den"]
        if type(num) is not int or type(den) is not int:   # bool is an int subclass
            raise ValidationError(f"interval {pos}: num and den must be integers")
        if den == 0:
            raise ValidationError(f"interval {pos}: zero denominator")
        lefts.append(Fraction(num, den))
    return IntervalConfiguration(tuple(lefts))
