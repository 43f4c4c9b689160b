"""Shared oracles and hypothesis strategies.

The oracles here are deliberately independent of the library's conversion
formulas: they re-derive expected values by drawing the path and testing
box membership, or by direct recurrences.
"""

import ast
import inspect
import textwrap
from collections import defaultdict
from functools import cache, lru_cache

from hypothesis import strategies as st

from dyckzeta import (
    AreaSequence,
    PartListing,
    UnitIntervalOrder,
    ValidationError,
    grevlex_key,
    is_isomorphic,
    poset_from_uio,
    poset_of,
)
from dyckzeta import harness
from dyckzeta.partlist import _order_of
from dyckzeta.zeta import zeta_scan


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
    comparison by key make it independent of how grevlex_minima orders
    its walk."""
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


# ------------------------------------------------------- the listing walk
# The exhaustive grevlex oracle: one walk over the listings of size n in
# ascending grevlex order, about five times longer per size, finds every
# order's minimum.  partlist.grevlex_min reads each minimum off its order.

def missing_values(mask):
    """How many more distinct values a listing needs before it is
    normalized, given its set of values as a bit mask (bit v for value v),
    and their least sum.

    Below a present value b, after a run from the present value a before
    it, it needs k = (b - a - 1) // 2 values, at least b - 2, ..., b - 2k.
    Below the least value, which must reach 0, the same holds with a = -2,
    a value -1 becoming 0.
    """
    count, total, a = 0, 0, -2
    for b in (v for v in range(mask.bit_length()) if mask >> v & 1):
        k = (b - a - 1) // 2
        count, total, a = count + k, total + k * b - k * (k + 1) + (a == -2 and b % 2), b
    return count, total


def normalized_listings(n):
    """Every normalized listing of length n and sum at most n(n-1)/2 with
    no rise of 2 or more (w_(i+1) <= w_i + 1), by sum and within a sum
    lexicographically descending, as bytes.

    A listing is normalized when its least entry is 0 and its distinct
    values, sorted, step by at most 2.  Every grevlex minimum is, with no
    such rise: the listing rule compares only differences with 1 and 2, so
    subtracting the least entry, or lowering the entries above a step of 3
    or more until it is 2, keeps poset_of and lowers the sum, and swapping
    a rise of 2 or more relabels poset_of by the transposition and puts the
    larger entry first.

    A depth-first walk over prefixes.  The children of a prefix depend only
    on its set of values, the number of entries left, their sum and the cap
    (last entry + 1) on the next one; they are memoized, keeping only those
    that lead to a listing: none does where the values missing
    (missing_values) outnumber or outweigh what is left.  The last two entries are placed
    together, the last one forced by the sum.
    """
    if n < 2:
        yield bytes(n)
        return
    top = 2 * n - 2                 # the largest entry of a normalized listing
    missing = cache(missing_values)
    memo = {}

    def children(mask, left, total, prev):
        # above the largest value plus 2 * left, a gap cannot be filled
        high = min(total, top, mask.bit_length() + 2 * left - 1, prev + 1)
        key = (mask, left, total, high)
        kids = memo.get(key)
        if kids is None:
            kids = []
            for v in range(high, -1, -1):
                m = mask | 1 << v
                count, least = missing(m)
                if count >= left or least > total - v:
                    continue
                if left == 2:
                    w = total - v
                    if w <= v + 1 and missing(m | 1 << w)[0] == 0:
                        kids.append(bytes((v, w)))
                elif grand := children(m, left - 1, total - v, v):
                    kids.append((v, grand))
            memo[key] = kids
        return kids

    for total in range(n * (n - 1) // 2 + 1):
        stack = [(children(0, n, total, top), b"")]
        while stack:
            kids, xs = stack.pop()
            if len(xs) == n - 2:
                for tail in kids:
                    yield xs + tail
                continue
            for v, grand in reversed(kids):
                stack.append((grand, xs + bytes((v,))))


def grevlex_minima(orders):
    """For each order (all of one size n), the grevlex-minimal listing whose
    poset is isomorphic to it, found in one walk over the listings.

    The walk (normalized_listings) goes in ascending grevlex order over
    the normalized listings with no rise of 2 or more, which hold every
    minimum, so an order's first listing with an isomorphic poset is its
    minimum.  partlist._order_of names that order exactly by its pred
    vector, so each listing is looked up among the orders still waiting,
    with no isomorphism search.  Nothing here inserts, so this is an
    oracle for q_map, and an exhaustive one for partlist.grevlex_min.
    Every order has a listing of sum at most n(n-1)/2, the largest
    area-sequence sum, which bounds the walk.
    """
    n = orders[0].n if orders else 0
    waiting = {}
    for idx, u in enumerate(orders):
        waiting.setdefault(u.pred, []).append(idx)
    found = [None] * len(orders)
    for entries in normalized_listings(n):
        if not waiting:
            return found
        for idx in waiting.pop(_order_of(entries), ()):
            found[idx] = PartListing(entries)
    if waiting:
        raise RuntimeError("unreachable: every unit interval order has a part listing")
    return found


# ------------------------------------------------- reference validators
# The constructors' checks as they were written before they became one
# comparison chain per entry: each rule tested on its own, in the order
# that picks the message.

def reference_pred_check(pred):
    """UnitIntervalOrder's rule: 0 <= pred[j] <= j - 1, weakly increasing."""
    for j, p in enumerate(pred, start=1):
        if not 0 <= p <= j - 1:
            raise ValidationError(f"pred[{j}] = {p} outside 0..{j - 1}")
        if j > 1 and p < pred[j - 2]:
            raise ValidationError(
                f"pred[{j}] = {p} breaks weak monotonicity "
                f"(pred[{j - 1}] = {pred[j - 2]})"
            )


def reference_area_check(entries):
    """AreaSequence's rule: a_1 = 0 and 0 <= a_j <= a_{j-1} + 1."""
    for j, a in enumerate(entries, start=1):
        if a < 0:
            raise ValidationError(f"entry {j} is negative: {a}")
        if j == 1 and a != 0:
            raise ValidationError(f"entry 1 must be 0, got {a}")
        if j > 1 and a > entries[j - 2] + 1:
            raise ValidationError(
                f"entry {j} is {a}, exceeding entry {j - 1} + 1 = "
                f"{entries[j - 2] + 1}"
            )


def reference_steps_check(steps):
    """DyckWord's rule: UP (a) and RIGHT (b) letters, never more RIGHTs than
    UPs so far, as many of each in all."""
    ups = rights = 0
    for idx, step in enumerate(steps):
        if step == "a":
            ups += 1
        elif step == "b":
            rights += 1
            if rights > ups:
                raise ValidationError(
                    f"path passes below the diagonal at step index {idx}"
                )
        else:
            raise ValidationError(f"step index {idx} is not an UP/RIGHT step")
    if ups != rights:
        raise ValidationError(
            f"unbalanced word: {ups} up steps vs {rights} right steps"
        )


# ------------------------------------------------------------------ ranks

@lru_cache(maxsize=None)
def _tails(n, j, floor):
    """Weakly increasing tails pred[j..n-1] with every entry >= floor and
    pred[i] <= i, counted by recursion on the next entry."""
    if j == n:
        return 1
    return sum(_tails(n, j + 1, p) for p in range(floor, j + 1))


def rank_by_counting(pred):
    """The rank of pred in enumerate_uio order: the vectors of its size that
    are lexicographically smaller, counted by their first difference."""
    n = len(pred)
    rank, floor = 0, 0
    for j, p in enumerate(pred):
        rank += sum(_tails(n, j + 1, smaller) for smaller in range(floor, p))
        floor = p
    return rank


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


# ----------------------------------------- the extension stream in tests

_KERNEL = harness._extension_children


def rewrite_kernel(monkeypatch, edits, **names):
    """Swap harness._extension_children for a copy that runs more statements.

    The stream inlines the insertion, so a test faults or watches one of its
    steps by rewriting it: `edits` maps the target of an assignment in the
    stream, as source text such as "grown", to statements run right after
    that assignment, which must occur exactly once.  Edits add up over
    calls within one test; wrap_children comes after them.  `names` are set
    on harness for those statements to call; monkeypatch undoes all of it.
    """
    current = harness._extension_children
    assert current is _KERNEL or hasattr(current, "edits"), "rewrite before wrapping"
    edits = {**getattr(current, "edits", {}), **edits}
    tree = ast.parse(textwrap.dedent(inspect.getsource(_KERNEL)))
    sites = []
    for node in ast.walk(tree):
        for block in (getattr(node, "body", None), getattr(node, "orelse", None)):
            for idx, stmt in enumerate(block if isinstance(block, list) else ()):
                if isinstance(stmt, ast.Assign):
                    target = ast.unparse(stmt.targets[0])
                    if target in edits:
                        sites.append((idx, target, block))
    assert sorted(target for _, target, _ in sites) == sorted(edits), sites
    for idx, target, block in sorted(sites, key=lambda site: -site[0]):
        block[idx + 1:idx + 1] = ast.parse(edits[target]).body
    for name, value in names.items():
        monkeypatch.setattr(harness, name, value, raising=False)
    scope = {}
    code = compile(ast.fix_missing_locations(tree), "<rewritten kernel>", "exec")
    exec(code, vars(harness), scope)
    scope["_extension_children"].edits = edits
    monkeypatch.setattr(harness, "_extension_children", scope["_extension_children"])


def wrap_children(monkeypatch, edit):
    """Pass each child that harness._extension_children yields, the tuple
    (rank, U, k, cur, grown, pos, fit, path, reading, through), through
    edit, which may record it and returns the tuple the sweep gets."""
    inner = harness._extension_children
    monkeypatch.setattr(
        harness, "_extension_children", lambda m, lo, hi: map(edit, inner(m, lo, hi))
    )


def path_text(area):
    """The kernel's a/b bytes for the path with area sequence `area`,
    unchecked: a_{j-1} + 1 - a_j RIGHT steps before row j's UP step."""
    text = []
    prev = -1
    for a in area:
        text.append("b" * (prev + 1 - a) + "a")
        prev = a
    return ("".join(text) + "b" * (prev + 1)).encode()


def read_zeta_by_scan(monkeypatch, scan=zeta_scan):
    """Give each child of the stream the reading of `scan` on its listing,
    so that a test can fault zeta on area sequences.  (The induction step's
    zeta(q(U)) stays the parent's prefix reading.)"""

    def rescan(child):
        grown = child[4]
        if grown is None:
            return child
        return child[:8] + (path_text(scan(tuple(grown))),) + child[9:]

    wrap_children(monkeypatch, rescan)


def extension_pairs(n, lo=0):
    """The pairs (U, k) of harness._extension_pairs(n, lo), one by one."""
    return [(u, k) for u, ks in harness._extension_pairs(n, lo) for k in ks]
