"""Dyck paths and their interchangeable representations.

A Dyck path of size n runs from (0,0) to (n,n) in unit UP and RIGHT steps
without passing below the diagonal.  Three lossless encodings are supported:
the step word itself, the area sequence (per-row count of complete boxes
between the path and the diagonal, bottom row first), and the area set (the
boxes themselves, box (i,j) covering i-1 <= x <= i, j-1 <= y <= j).

Geometry used throughout: row j's UP step sits at x = j - 1 - a_j, and row j
contributes exactly the boxes (j - a_j, j), ..., (j - 1, j).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator, NamedTuple

from .errors import PreconditionError, ValidationError


class Step(Enum):
    """One step of a lattice path; the textual letters are a = UP, b = RIGHT."""

    UP = "a"
    RIGHT = "b"


#: the members bound once for the per-step loops (here, in zeta and in
#: cli's renderers): an Enum class attribute lookup costs as much as 14
#: module-global lookups
_UP, _RIGHT = Step.UP, Step.RIGHT

_STEP_FROM_CHAR = {
    "a": Step.UP, "b": Step.RIGHT,
    "U": Step.UP, "R": Step.RIGHT,
    "1": Step.UP, "0": Step.RIGHT,
}


def catalan(n: int) -> int:
    """Count of Dyck paths (equivalently, unit interval orders) of size n."""
    if n < 0:
        raise PreconditionError(f"size must be non-negative, got {n}")
    return comb(2 * n, n) // (n + 1)


@dataclass(frozen=True, slots=True)
class DyckWord:
    """Immutable sequence of UP/RIGHT steps forming a Dyck path."""

    steps: tuple[Step, ...]

    def __post_init__(self):
        steps = self.steps
        if type(steps) is not tuple:
            steps = tuple(steps)
            object.__setattr__(self, "steps", steps)
        height = 0
        for idx, step in enumerate(steps):
            if step is _UP:
                height += 1
            elif step is _RIGHT and height:
                height -= 1
            else:
                raise ValidationError(
                    f"path passes below the diagonal at step index {idx}"
                    if step is _RIGHT
                    else f"step index {idx} is not an UP/RIGHT step"
                )
        if height:
            raise ValidationError(
                f"unbalanced word: {(len(steps) + height) // 2} up steps vs "
                f"{(len(steps) - height) // 2} right steps"
            )

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def __str__(self) -> str:
        return "".join([step._value_ for step in self.steps])


@dataclass(frozen=True, slots=True)
class AreaSequence:
    """Integer sequence (a_1..a_n) with a_1 = 0 and a_i <= a_{i-1} + 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = self.entries
        if type(entries) is not tuple:
            entries = tuple(entries)
            object.__setattr__(self, "entries", entries)
        top = 0                 # the largest entry allowed here
        for j, a in enumerate(entries, start=1):
            if not 0 <= a <= top:
                raise ValidationError(
                    f"entry {j} is negative: {a}" if a < 0
                    else f"entry 1 must be 0, got {a}" if j == 1
                    else f"entry {j} is {a}, exceeding entry {j - 1} + 1 = {top}"
                )
            top = a + 1

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)


@dataclass(frozen=True, slots=True)
class AreaSet:
    """Set of boxes (i,j), 1 <= i < j <= n, closed under moving south-east.

    Closure means: if (i,j) is present, so is every (i',j') with
    i <= i' < j' <= j.  Exactly the box sets that arise between a Dyck path
    and the diagonal.  Checking the neighbours (i+1,j) and (i,j-1) of each
    box suffices: closure of the rest follows by induction on j - i.
    """

    boxes: frozenset[tuple[int, int]]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "boxes", frozenset(self.boxes))
        if self.n < 0:
            raise ValidationError(f"ambient size must be non-negative, got {self.n}")
        for i, j in self.boxes:
            if not (1 <= i < j <= self.n):
                raise ValidationError(
                    f"box ({i},{j}) violates 1 <= i < j <= n with n = {self.n}"
                )
        for i, j in self.boxes:
            for i2, j2 in ((i + 1, j), (i, j - 1)):
                if i2 < j2 and (i2, j2) not in self.boxes:
                    raise ValidationError(
                        f"staircase closure violated: ({i},{j}) present "
                        f"but ({i2},{j2}) missing"
                    )

    def __str__(self) -> str:
        pairs = ";".join(f"{i},{j}" for i, j in sorted(self.boxes))
        return f"n={self.n}:{pairs}"


class Peak(NamedTuple):
    """An UP step immediately followed by a RIGHT step."""

    word_index: int          # 0-based index of the UP step in the word
    apex: tuple[int, int]    # lattice point at the top of the UP step
    height: int              # apex y - apex x, always >= 1


def word_from_area_sequence(s: AreaSequence) -> DyckWord:
    """Path whose row-j UP step sits at x = j - 1 - a_j.

    So a_{j-1} + 1 - a_j RIGHT steps come before row j's UP step (none
    before row 1), and a_n + 1 after the last one."""
    steps: list[Step] = []
    prev = -1
    for a in s.entries:
        steps += (_RIGHT,) * (prev + 1 - a)
        steps.append(_UP)
        prev = a
    steps += (_RIGHT,) * (prev + 1)
    return DyckWord(tuple(steps))


def _word_of_area(entries: tuple[int, ...]) -> DyckWord:
    """The path of a plain area-sequence tuple; the tuple must pass
    AreaSequence and the path DyckWord."""
    return word_from_area_sequence(AreaSequence(entries))


def _text_of_area(entries: tuple[int, ...]) -> str:
    """The a/b text of word_from_area_sequence's path, with no DyckWord built.

    For a valid area sequence it is a Dyck word by construction: a_j >= 0
    puts row j's UP step at x = j - 1 - a_j, on or left of the diagonal, and
    a_j <= a_{j-1} + 1 keeps each count of RIGHT steps non-negative."""
    text = ""
    prev = -1
    for a in entries:
        text += "b" * (prev + 1 - a) + "a"
        prev = a
    return text + "b" * (prev + 1)


def area_sequence_from_word(d: DyckWord) -> AreaSequence:
    """Per-row box count between the path and the diagonal, bottom row first."""
    return AreaSequence(_area_of_steps(d.steps))


def _area_of_steps(steps: tuple[Step, ...]) -> tuple[int, ...]:
    """The area sequence of a valid step word, unchecked: row j's count is
    the height y - x at which its UP step starts."""
    entries: list[int] = []
    height = 0
    for step in steps:
        if step is _UP:
            entries.append(height)
            height += 1
        else:
            height -= 1
    return tuple(entries)


def area_set_from_area_sequence(s: AreaSequence) -> AreaSet:
    """Row j holds the a_j boxes (j - a_j, j), ..., (j - 1, j)."""
    boxes = {
        (i, j)
        for j, a in enumerate(s.entries, start=1)
        for i in range(j - a, j)
    }
    return AreaSet(frozenset(boxes), s.n)


def area_sequence_from_area_set(area: AreaSet) -> AreaSequence:
    """Count boxes per row; inverse of area_set_from_area_sequence."""
    counts = [0] * area.n
    for _, j in area.boxes:
        counts[j - 1] += 1
    return AreaSequence(tuple(counts))


def peaks(d: DyckWord) -> tuple[Peak, ...]:
    """All peaks in word order.

    The last element is the final peak; the last one attaining the maximum
    height is the final maximal peak (see final_maximal_peak).
    """
    found: list[Peak] = []
    x = y = 0
    for idx, step in enumerate(d.steps):
        if step is _UP:
            y += 1
            if idx + 1 < len(d.steps) and d.steps[idx + 1] is _RIGHT:
                found.append(Peak(idx, (x, y), y - x))
        else:
            x += 1
    return tuple(found)


def final_peak(d: DyckWord) -> Peak:
    """Last peak of the path."""
    all_peaks = peaks(d)
    if not all_peaks:
        raise PreconditionError("the empty path has no peaks")
    return all_peaks[-1]


def final_maximal_peak(d: DyckWord) -> Peak:
    """Last peak whose apex lies on the highest diagonal touched by the path."""
    all_peaks = peaks(d)
    if not all_peaks:
        raise PreconditionError("the empty path has no peaks")
    top = max(p.height for p in all_peaks)
    return [p for p in all_peaks if p.height == top][-1]


def add_final_peak(d: DyckWord, t: int) -> DyckWord:
    """Insert an UP step followed (after the t existing trailing RIGHT steps
    plus one appended RIGHT step) by exactly t + 1 RIGHT steps.

    The result has size n + 1 and its final peak apex is (n - t, n + 1).
    """
    if t < 0:
        raise PreconditionError(f"trailing-step count must be non-negative, got {t}")
    trailing = 0
    for step in reversed(d.steps):
        if step is not _RIGHT:
            break
        trailing += 1
    if t > trailing:
        raise PreconditionError(
            f"cannot place a final peak before {t} trailing right steps: "
            f"path has only {trailing}"
        )
    cut = len(d.steps) - t
    return DyckWord(d.steps[:cut] + (_UP,) + d.steps[cut:] + (_RIGHT,))


def enumerate_dyck(n: int) -> Iterator[DyckWord]:
    """Yield every Dyck word of size n exactly once.

    Order is lexicographic on the step word with UP < RIGHT, i.e. textual
    order of the a/b strings.  Verification shards rely on this order being
    stable.
    """
    if n < 0:
        raise PreconditionError(f"size must be non-negative, got {n}")

    def rec(prefix: list[Step], ups: int, rights: int) -> Iterator[DyckWord]:
        if len(prefix) == 2 * n:
            yield DyckWord(tuple(prefix))
            return
        if ups < n:
            prefix.append(_UP)
            yield from rec(prefix, ups + 1, rights)
            prefix.pop()
        if rights < ups:
            prefix.append(_RIGHT)
            yield from rec(prefix, ups, rights + 1)
            prefix.pop()

    return rec([], 0, 0)


def parse_word(text: str) -> DyckWord:
    """Parse a step word over a/b (also accepted: U/R, 1/0)."""
    steps = tuple(map(_STEP_FROM_CHAR.get, text))
    if None in steps:
        pos = steps.index(None)
        raise ValidationError(
            f"bad step letter {text[pos]!r} at position {pos}; expected a/b, U/R or 1/0"
        )
    return DyckWord(steps)


def parse_area_sequence(text: str) -> AreaSequence:
    """Parse comma-separated entries; the empty string is the size-0 sequence."""
    return AreaSequence(_parse_int_vector(text))


#: Largest ambient size parse_area_set accepts.  The size is one number in
#: the text, while converting the set allocates a row per element, so
#: "n=2000000:" alone took 175 MB to convert to an area sequence.
AREA_SET_TEXT_MAX_N = 10_000


def parse_area_set(text: str) -> AreaSet:
    """Parse the "n=N:i,j;i,j;..." encoding emitted by str(AreaSet); N and
    the box entries follow _parse_int_vector: an optional "-", ASCII digits.

    N must be at most AREA_SET_TEXT_MAX_N, checked before any box is read.
    """
    head, sep, body = text.partition(":")
    if not sep or not head.startswith("n="):
        raise ValidationError(
            f"area set text must look like 'n=N:i,j;...', got {text!r}"
        )
    try:
        (n,) = _parse_int_vector(head[2:])
    except (ValidationError, ValueError):
        raise ValidationError(f"bad ambient size in {head!r}") from None
    if n > AREA_SET_TEXT_MAX_N:
        raise ValidationError(
            f"area set size n = {n} exceeds {AREA_SET_TEXT_MAX_N}"
        )
    boxes = set()
    if body:
        for token in body.split(";"):
            try:
                i, j = _parse_int_vector(token)
            except (ValidationError, ValueError):
                raise ValidationError(f"bad box token {token!r}") from None
            boxes.add((i, j))
    return AreaSet(frozenset(boxes), n)


_INTEGER = "-?[0-9]+"
_INT_VECTOR = re.compile(f"{_INTEGER}(?:,{_INTEGER})*")


def _parse_int_vector(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each an optional "-" and ASCII digits (int()
    alone would also take "+1", " 1", "1_0" and non-ASCII digits)."""
    if text == "":
        return ()
    tokens = text.split(",")
    if _INT_VECTOR.fullmatch(text) is None:
        pos, token = next((pos, token) for pos, token in enumerate(tokens, start=1)
                          if re.fullmatch(_INTEGER, token) is None)
        raise ValidationError(f"entry {pos} is not an integer: {token!r}")
    try:
        return tuple(map(int, tokens))
    except ValueError:      # past int()'s digit limit, sys.get_int_max_str_digits()
        for pos, token in enumerate(tokens, start=1):
            try:
                int(token)
            except ValueError:
                raise ValidationError(
                    f"entry {pos} is too long to read: {len(token)} characters"
                ) from None
        raise
