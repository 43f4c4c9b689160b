"""The zeta map on Dyck paths.

Label every lattice point of a path except (0,0): the top endpoint of an UP
step gets the letter a, the right endpoint of a RIGHT step gets b.  Read the
labels along the diagonals y = x + t for t = 0, 1, 2, ..., each diagonal
bottom-left to top-right, and reinterpret the letters as steps of a new path.

Label dictionary, fixed once to avoid the classic swapped-convention bug:

    input labeling:   UP endpoint -> a,  RIGHT endpoint -> b
    output reading:   b -> UP step,      a -> RIGHT step

Both directions reuse the same two letters on purpose: the textual form of
the input word and the diagonal reading share an alphabet, so worked strings
can be compared letter for letter.

On area sequences the same map is Haglund's scan (zeta_scan): for
i = 0, 1, ..., max + 1, read the sequence left to right; an entry equal to i
gives an UP step and an entry equal to i - 1 a RIGHT step.  It reads the
same labels without drawing the path: on diagonal i ends the UP step (a) of
each row with a_j = i - 1, and for each row with a_j = i the RIGHT step (b)
by which the path comes back down to diagonal i, in the same left-to-right
order.  The extension stream in harness reads zeta this way, with
bytes.translate; zeta's diagonal reading stays the independent oracle it
is tested against.

zeta_inverse is p o a^-1 (p from partlist, a^-1 from uio): the paper's
theorem a(U) = zeta(p(U)) leaves no separate inverse to compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .lattice import DyckWord
from .partlist import p_map, q_map
from .uio import UnitIntervalOrder, a_inverse, extend


@dataclass(frozen=True, slots=True)
class DiagonalDecomposition:
    """Step-endpoint labels bucketed by diagonal y = x + t, sorted by x.

    per_diagonal[t] is the label sequence on diagonal t; 2n labels in all.
    Between consecutive diagonals the path crosses up and down alternately,
    so the a-count of bucket t equals the b-count of bucket t - 1.
    """

    per_diagonal: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "per_diagonal", tuple(tuple(b) for b in self.per_diagonal)
        )
        for t, bucket in enumerate(self.per_diagonal):
            for label in bucket:
                if label not in ("a", "b"):
                    raise ValidationError(f"bad label {label!r} on diagonal {t}")
        total = sum(len(b) for b in self.per_diagonal)
        if total % 2:
            raise ValidationError(f"odd label count {total}")
        if self.per_diagonal and self.per_diagonal[0].count("a"):
            raise ValidationError("diagonal 0 cannot carry up-step endpoints")
        for t in range(1, len(self.per_diagonal)):
            ups = self.per_diagonal[t].count("a")
            downs = self.per_diagonal[t - 1].count("b")
            if ups != downs:
                raise ValidationError(
                    f"strip {t} unbalanced: {ups} up crossings vs {downs} down"
                )

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.per_diagonal) // 2


def diagonal_decomposition(d: DyckWord) -> DiagonalDecomposition:
    """Bucket the 2n step-endpoint labels of d by diagonal.

    d is a valid Dyck word, so every strip is crossed up and down
    alternately; DiagonalDecomposition checks the resulting balance.
    """
    if not d.steps:
        return DiagonalDecomposition(())
    buckets: list[list[str]] = [[]]
    height = 0              # y - x: the diagonal of the step's endpoint
    for step in d.steps:
        if step == "a":
            height += 1
            if height == len(buckets):
                buckets.append([])
        else:
            height -= 1
        buckets[height].append(step)    # an endpoint's label is its step
    return DiagonalDecomposition(buckets)


#: the reading's letters as steps: b -> UP (a), a -> RIGHT (b)
_SWAP = str.maketrans("ab", "ba")


def zeta(d: DyckWord) -> DyckWord:
    """Concatenate the diagonal buckets and reread b as UP, a as RIGHT."""
    labels = "".join(map("".join, diagonal_decomposition(d).per_diagonal))
    return DyckWord(labels.translate(_SWAP))


def zeta_scan(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Area sequence of zeta of the path with area sequence `entries`.

    Haglund's scan: for i = 0..max + 1, entries equal to i give UP steps and
    entries equal to i - 1 give RIGHT steps, left to right; each UP step's
    entry is the ups minus the rights before it.  `entries` must be an area
    sequence; nothing is checked.
    """
    out = []
    height = 0
    for i in range(max(entries, default=-1) + 2):
        for e in entries:
            if e == i:
                out.append(height)
                height += 1
            elif e == i - 1:
                height -= 1
    return tuple(out)


def zeta_inverse(d: DyckWord) -> DyckWord:
    """The unique path mapping to d under zeta, at any size: p(a^-1(d))."""
    return p_map(a_inverse(d))


def added_peak_parameters(u: UnitIntervalOrder, k: int) -> tuple[int, int]:
    """The two counts governing what a rightmost extension does to the paths.

    With L the level of the element appended by extend(u, k):

    r = (occurrences of L in the listing of u)
      + (occurrences of L - 1 strictly after the inserted L in the listing
         of the extension);

    s = n - k, the number of elements incomparable to the new one.

    The diagonal reading appends the extension's peak after exactly r right
    steps, while the incomparability boxes put it after s; the two counts
    agree, which the harness asserts on every extension pair.
    """
    small, _ = q_map(u)
    big, trace = q_map(extend(u, k))
    return _peak_parameters(small.entries, big.entries, trace.positions[-1], k)


def _peak_parameters(
    small: tuple[int, ...], big: tuple[int, ...], pos: int, k: int
) -> tuple[int, int]:
    """added_peak_parameters from the listings of u (small) and of
    extend(u, k) (big); the new element's letter landed at big[pos]."""
    level = big[pos]
    r = small.count(level) + (big[pos + 1:].count(level - 1) if level else 0)
    return r, len(small) - k
