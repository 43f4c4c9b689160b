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
from enum import Enum
from fractions import Fraction
from operator import sub
from typing import Iterable, Iterator, Optional

from .errors import PreconditionError, ValidationError
from .lattice import (
    DyckWord,
    _csv,
    _parse_int_vector,
    _word_of_area,
    area_sequence_from_word,
    catalan,
)


class Relation(Enum):
    BELOW = "below"
    ABOVE = "above"
    INCOMPARABLE = "incomparable"


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

    @classmethod
    def normalized(cls, lefts: Iterable[Fraction | int]) -> "IntervalConfiguration":
        """Sort endpoints; ties keep their input order (stable)."""
        return cls(tuple(sorted(_exact(x) for x in lefts)))

    @property
    def n(self) -> int:
        return len(self.lefts)


@dataclass(frozen=True, slots=True)
class LevelProfile:
    """Longest-chain heights: 0 for minimal elements, weakly increasing."""

    levels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        for j, lv in enumerate(self.levels, start=1):
            if lv < 0:
                raise ValidationError(f"level {j} is negative: {lv}")
            if j == 1 and lv != 0:
                raise ValidationError(f"level 1 must be 0, got {lv}")
            if j > 1 and lv < self.levels[j - 2]:
                raise ValidationError(
                    f"levels must be weakly increasing: level {j} = {lv} < "
                    f"level {j - 1} = {self.levels[j - 2]}"
                )

    @property
    def n(self) -> int:
        return len(self.levels)


def _exact(x) -> Fraction:
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


def relation(u: UnitIntervalOrder, i: int, j: int) -> Relation:
    """How elements i and j compare in u (1-based, distinct)."""
    for e in (i, j):
        if not 1 <= e <= u.n:
            raise PreconditionError(f"element {e} outside 1..{u.n}")
    if i == j:
        raise PreconditionError("relation() expects two distinct elements")
    if i <= u.pred[j - 1]:
        return Relation.BELOW
    if j <= u.pred[i - 1]:
        return Relation.ABOVE
    return Relation.INCOMPARABLE


def levels(u: UnitIntervalOrder) -> LevelProfile:
    """Level of j: 0 if j is minimal, else 1 + max level of its predecessors.

    Monotonicity of levels makes that max the level of the last predecessor.
    """
    lv: list[int] = []
    for p in u.pred:
        lv.append(0 if p == 0 else lv[p - 1] + 1)
    return LevelProfile(tuple(lv))


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


def enumerate_uio(
    n: int, start: Optional[tuple[int, ...]] = None
) -> Iterator[UnitIntervalOrder]:
    """Yield every unit interval order on {1..n} exactly once.

    Order is lexicographic, ascending, on pred vectors; verification shards
    rely on this order being stable.  With start, a valid pred vector of
    size n, the stream begins at that order and goes on in the same order,
    so a shard that starts at unrank_uio(n, lo) draws only its own orders.
    Each step is the lexicographic successor: the last entry below its
    ceiling j - 1 goes up by one and every entry after it drops to the new
    value, the smallest that keeps the vector weakly increasing.
    """
    if n < 0:
        raise PreconditionError(f"size must be non-negative, got {n}")
    if start is None:
        pred = [0] * n
    else:
        pred = list(UnitIntervalOrder(start).pred)
        if len(pred) != n:
            raise PreconditionError(
                f"start vector has size {len(pred)}, expected {n}"
            )

    def stream() -> Iterator[UnitIntervalOrder]:
        while True:
            yield UnitIntervalOrder(tuple(pred))
            j = n - 1
            while j > 0 and pred[j] == j:
                j -= 1
            if j <= 0:
                return
            pred[j:] = [pred[j] + 1] * (n - j)

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


def parse_intervals(text: str) -> IntervalConfiguration:
    """Parse a JSON list of {"num": ..., "den": ...} left endpoints."""
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
