"""Shared oracles and hypothesis strategies.

The oracles here are deliberately independent of the library's conversion
formulas: they re-derive expected values by drawing the path and testing
box membership, or by direct recurrences.
"""

from collections import defaultdict

from hypothesis import strategies as st

from dyckzeta import (
    AreaSequence,
    PartListing,
    UnitIntervalOrder,
    grevlex_key,
    is_isomorphic,
    poset_from_uio,
    poset_of,
)


def catalan_by_recurrence(up_to):
    """c_0..c_up_to via c_{k+1} = sum_i c_i * c_{k-i}."""
    c = [1]
    for k in range(up_to):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c


def drawn_boxes(word):
    """Boxes between the drawn path and the diagonal, by membership test.

    Box (i,j) covers i-1 <= x <= i, j-1 <= y <= j.  It lies strictly above
    the diagonal iff i < j, and between path and diagonal iff the path's
    vertical crossing of the strip j-1 <= y <= j is weakly left of the box.
    """
    n = len(word) // 2
    crossing = {}
    x = y = 0
    for ch in word:
        if ch == "a":
            y += 1
            crossing[y] = x
        else:
            x += 1
    return {
        (i, j)
        for j in range(1, n + 1)
        for i in range(1, j)
        if crossing[j] <= i - 1
    }


def drawn_area_sequence(word):
    """Per-row counts of drawn_boxes, bottom row first."""
    n = len(word) // 2
    counts = [0] * n
    for _, j in drawn_boxes(word):
        counts[j - 1] += 1
    return tuple(counts)


def staircase_closed(boxes):
    """Definitional closure: (i,j) present forces every (i',j') with
    i <= i' < j' <= j."""
    return all(
        (i2, j2) in boxes
        for i, j in boxes
        for i2 in range(i, j)
        for j2 in range(i2 + 1, j + 1)
    )


def strip_crossings(word):
    """Per-strip crossing sequences: 'u' for an up step into strip t from
    below, 'd' for a right step leaving it downward."""
    seqs = defaultdict(list)
    x = y = 0
    for ch in word:
        if ch == "a":
            y += 1
            seqs[y - x].append("u")
        else:
            x += 1
            seqs[y - x + 1].append("d")
    return dict(seqs)


def compositions(total, parts):
    """Every tuple of `parts` non-negative entries summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def grevlex_min_brute_force(u):
    """Grevlex-minimal listing whose poset is isomorphic to u, one order at
    a time: for each sum in turn, every listing is tried with is_isomorphic
    and the smallest grevlex_key kept.  Its own listing walk and its
    comparison by key make it independent of how partlist.grevlex_minima
    orders its walk."""
    n = u.n
    target = poset_from_uio(u)
    for total in range(n * (n - 1) // 2 + 1):
        best = None
        for entries in compositions(total, n):
            w = PartListing(entries)
            if best is not None and grevlex_key(w) >= grevlex_key(best):
                continue
            if is_isomorphic(poset_of(w), target):
                best = w
        if best is not None:
            return best
    raise AssertionError(f"no listing for {u}")


@st.composite
def area_sequences(draw, max_n=20):
    n = draw(st.integers(min_value=0, max_value=max_n))
    entries = []
    for j in range(n):
        ceiling = 0 if j == 0 else entries[-1] + 1
        entries.append(draw(st.integers(min_value=0, max_value=ceiling)))
    return AreaSequence(tuple(entries))


@st.composite
def box_sets(draw, max_n=7):
    """(n, boxes) with 1 <= i < j <= n: a staircase or the empty set, with
    an arbitrary set of boxes toggled, so both closed and unclosed sets
    come up."""
    seq = draw(area_sequences(max_n=max_n))
    n = seq.n
    base = set()
    if draw(st.booleans()):
        base = {(j - a + k, j) for j, a in enumerate(seq.entries, start=1)
                for k in range(a)}
    candidates = [(i, j) for j in range(1, n + 1) for i in range(1, j)]
    toggled = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    return n, frozenset(base ^ toggled)


@st.composite
def pred_vectors(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pred = []
    for j in range(n):
        floor = pred[-1] if pred else 0
        pred.append(draw(st.integers(min_value=floor, max_value=j)))
    return UnitIntervalOrder(tuple(pred))
