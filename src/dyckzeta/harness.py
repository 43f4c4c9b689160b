"""Exhaustive desk-scale verification.

Four checks, each driving a full enumeration and recording counterexamples
as data rather than raising:

  theorem     a(U) == zeta(p(U)) over every unit interval order of size n
  induction   the four facts behind the rightmost-extension step, over
              every pair (U, k): the listing grows by one final-maximal
              letter; both path maps grow by a final peak placed r resp.
              s right steps from the end; and r == s
  bijections  a, q and zeta have pairwise-distinct images, each a Dyck
              path of size n; q emits valid area sequences; a_inverse
              undoes a, read off a's path
  grevlex     the grevlex-minimal listing isomorphic to U, found for all
              orders in one pass over the listings, agrees with q

Every order of size n is extend(U, k) for exactly one pair (U, k) of size
n - 1.  The theorem, induction and bijections sweeps each consume one
stream over these pairs (_extension_children), which yields per child its
listing q, a's path and the zeta reading of q, as bytes.  The bijections
sweep keeps no image: each shard marks every image as one bit of a bitmap
per map, and only a bit met twice, in one shard or two, is traced back to
its ranks.  The grevlex sweep
and `dyckzeta map --name p|q|unzeta` read q(U) off a prefix-sharing
insertion walk over integer tuples (_walk).  The objects (a_map, p_map,
q_map, zeta, ...) are the re-check: an instance the stream flags is
checked again on them, and a flag they do not confirm is reported as a
disagreement of the kernel.  Each check has one code path, its shard
function, which the CLI runs too.

Work shards by contiguous enumeration-rank ranges, so reports are
deterministic for a fixed n regardless of worker count.  A shard of ranks
lo..hi - 1 starts its stream at its first instance, unranked by
uio.unrank_uio (for extension pairs, the child of rank lo), and draws
exactly hi - lo instances (for extension pairs, the parents of its hi - lo
pairs): no shard builds the orders before its own.
Pool workers ignore SIGINT; on Ctrl-C the parent stops them and raises
KeyboardInterrupt, which the CLI reports with exit status 2.
"""

from __future__ import annotations

import os
import signal
import time
import zlib
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, islice
from multiprocessing import active_children
from operator import attrgetter, sub
from typing import Iterator, Optional

from .errors import PreconditionError, ValidationError
from .lattice import (
    AreaSequence,
    _csv,
    add_final_peak,
    catalan,
    final_maximal_peak,
)
from .partlist import _insert, _insert_all, grevlex_minima, p_map, q_map
from .uio import (
    UnitIntervalOrder,
    a_inverse,
    a_map,
    enumerate_uio,
    extend,
    unrank_uio,
)
from .zeta import _peak_parameters, zeta

#: Per-check size ceilings keeping the full sweep under a minute on a 2-CPU VM
#: (Python 3.11).  They are sized for jobs=2, while verify defaults to one
#: job: theorem 15 took 37 s at jobs=2 and 66 s at jobs=1, induction 13 took
#: 16 s at jobs=2 and 27 s at jobs=1, bijections 14 31-32 s at jobs=2 and
#: 49-52 s at jobs=1 (its bitmaps cap it at BITMAP_MAX_N = 15).  grevlex
#: always runs in one process (n = 8 in 17 s).  Raise via the max_n argument
#: (or --max-n in the CLI).
DEFAULT_CEILINGS = {"theorem": 15, "induction": 13, "bijections": 14, "grevlex": 8}


@dataclass(frozen=True)
class Failure:
    """One counterexample, with enough textual encodings to diagnose it
    without re-running anything."""

    rank: int
    inputs: tuple[tuple[str, str], ...]
    equation: str
    lhs: str
    rhs: str

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "inputs": dict(self.inputs),
            "equation": self.equation,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }

    def render_text(self) -> str:
        ins = " ".join(f"{k}={v}" for k, v in self.inputs)
        return (
            f"  rank {self.rank}: {self.equation} violated "
            f"[{ins}] lhs={self.lhs} rhs={self.rhs}"
        )


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    n: int
    instances_checked: int
    failures: tuple[Failure, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "n": self.n,
            "instances": self.instances_checked,
            "failures": [f.to_json_dict() for f in self.failures],
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }

    def render_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"check={self.check_name} n={self.n} "
            f"instances={self.instances_checked} "
            f"failures={len(self.failures)} "
            f"elapsed_ms={self.elapsed * 1000.0:.1f} {verdict}"
        ]
        lines.extend(f.render_text() for f in self.failures)
        return "\n".join(lines)


def _ceiling(check: str, n: int, max_n: Optional[int]) -> None:
    if n < 1:
        raise PreconditionError(f"{check} check needs n >= 1, got {n}")
    ceiling = DEFAULT_CEILINGS[check] if max_n is None else max_n
    if n > ceiling:
        raise PreconditionError(
            f"{check} check capped at n = {ceiling}; pass max_n to raise it"
        )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def _shard_bounds(total: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous rank ranges covering [0, total), one per worker.

    The worker count is capped by the instance count and by the CPUs this
    process may run on, so a huge jobs value never starts a huge pool.
    """
    jobs = max(1, min(jobs, total, _usable_cpus()))
    base, extra = divmod(total, jobs)
    bounds = []
    lo = 0
    for w in range(jobs):
        hi = lo + base + (1 if w < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _sweep(check, n, total, jobs, shard, merge=None):
    """Run shard(n, lo, hi) over contiguous rank ranges and report.

    A shard returns its instance count and its failures, and the counts must
    add up to `total`; merge(total, results), if given, returns the failures
    that only the results of all shards together show.
    """
    start = time.perf_counter()
    bounds = _shard_bounds(total, jobs)
    if len(bounds) == 1:
        results = [shard(n, 0, total)]
    else:
        results = _pool_map(shard, n, bounds)
    count = sum(r[0] for r in results)
    if count != total:
        raise RuntimeError(
            f"{check} enumeration truncated: saw {count} of {total} instances"
        )
    failures = [f for r in results for f in r[1]]
    if merge is not None:
        failures += merge(total, results)
    failures.sort(key=lambda f: f.rank)
    return VerificationReport(
        check, n, count, tuple(failures), time.perf_counter() - start
    )


def _pool_map(shard, n, bounds):
    """shard(n, lo, hi) for each (lo, hi) in bounds, one worker process each.

    Ctrl-C sends SIGINT to the whole process group.  The workers ignore it,
    so none of them prints a traceback; the parent stops the workers it
    started and re-raises KeyboardInterrupt, which the CLI reports.
    """
    before = set(active_children())
    with ProcessPoolExecutor(
        max_workers=len(bounds), initializer=_ignore_sigint
    ) as pool:
        try:
            return list(pool.map(shard, *zip(*((n, lo, hi) for lo, hi in bounds))))
        except KeyboardInterrupt:
            for worker in set(active_children()) - before:
                worker.terminate()
            raise


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _walk(items, pred_of=attrgetter("pred")):
    """The insertion listings along a stream of orders.

    The vectors pred_of(item) may have any sizes and come in any order,
    with repeats.  Each item re-inserts only the elements past the prefix
    its vector shares with the previous one, so a stream in lexicographic
    order (the preorder of the tree of rightmost extensions, which is how
    enumerate_uio and the order shards deliver it) costs about 1.4
    insertions per order at n = 10, against n for a lone q_map.  Yields
    (item, listings) with n = len(pred_of(item)): listings[i] is the
    listing of elements 0..i-1 for i <= n (listings[n] is q(U); entries
    past n are left over from longer vectors).  The same listings list is
    updated for every item.
    """
    prev = ()
    lv = []                         # lv[i]: level of element i
    listings = [()]
    for item in items:
        pred = pred_of(item)
        n = len(pred)
        d = 0
        try:                        # the common prefix ends with the shorter vector
            while pred[d] == prev[d]:
                d += 1
        except IndexError:
            pass
        if n >= len(listings):      # the longest vector so far
            grow = n + 1 - len(listings)
            listings += [()] * grow
            lv += [0] * grow
        for i in range(d, n):
            listings[i + 1], lv[i], _, _ = _insert(listings[i], lv, pred[i])
        prev = pred
        yield item, listings


def _is_area_sequence(s: tuple[int, ...]) -> bool:
    """AreaSequence's rule for a listing, whose entries are levels (>= 0)."""
    return s[0] == 0 and max(map(sub, s[1:], s), default=0) <= 1


# ---------------------------------------------------------------- theorem

def check_theorem(
    n: int, jobs: int = 1, max_n: Optional[int] = None
) -> VerificationReport:
    """Assert a(U) == zeta(p(U)) for every order of size n.

    The sweep runs on bytes (_theorem_shard); an order on which they
    disagree is re-checked on the objects a_map, p_map and zeta.
    """
    _ceiling("theorem", n, max_n)
    return _sweep("theorem", n, catalan(n), jobs, _theorem_shard)


def _theorem_shard(n: int, lo: int, hi: int):
    """The theorem for the orders of rank lo..hi - 1: the children of the
    extension pairs of size n - 1 with the same ranks."""
    failures = []
    rank = lo - 1              # rank + 1 - lo: the children drawn
    for rank, u, k, cur, grown, _, fit, path, reading, _, _ in _extension_children(
        n - 1, lo, hi
    ):
        if fit and reading == path:
            continue
        child = extend(u, k)
        failures.append(_theorem_failure(rank, child) or (
            _unanchored(rank, u, k, cur) if grown is None else Failure(
                rank, (("pred", str(child)), ("q", _csv(grown))),
                "kernel agrees with a_map, p_map and zeta",
                reading.decode(), path.decode(),
            )))
    return rank + 1 - lo, failures


def _theorem_failure(rank, u) -> Optional[Failure]:
    """The Failure for a(U) != zeta(p(U)) on the objects, or None."""
    bad = _area_failure(rank, u)
    if bad is not None:
        return bad
    left, p_word = a_map(u), p_map(u)
    right = zeta(p_word)
    if left == right:
        return None
    inputs = (("pred", str(u)), ("q", str(q_map(u)[0])), ("p_word", str(p_word)))
    return Failure(rank, inputs, "a(U) == zeta(p(U))", str(left), str(right))


def _area_failure(rank, u, listing=None) -> Optional[Failure]:
    """The Failure for a q(U), `listing` or else the objects' own, that the
    objects cannot build, or that is no area sequence, or None.  p_map and
    q_map refuse such a listing, so the object re-checks ask this first."""
    try:
        listing = _insert_all(u)[0] if listing is None else listing
        AreaSequence(tuple(listing))
    except PreconditionError as exc:    # an insertion finds no anchor
        return Failure(rank, (("pred", str(u)),), "q(U) is defined", "no anchor",
                       str(exc))
    except ValidationError as exc:
        return Failure(
            rank, (("pred", str(u)), ("q", _csv(listing))),
            "q(U) is a valid area sequence", _csv(listing), str(exc),
        )
    return None


# -------------------------------------------------------- extension pairs

def _extension_pairs(n: int, lo: int = 0) -> Iterator[tuple[UnitIntervalOrder, range]]:
    """Per order U of size n, in enumerate_uio order: (U, ks), the pairs
    (U, k) for k in ks, in the lexicographic order of pred + (k,).  The
    stream starts at the pair of rank lo, the one whose child extend(U, k)
    is unrank_uio(n + 1, lo), so the first ks may start past U's first k."""
    child = unrank_uio(n + 1, lo)
    floor = child[n]
    for u in enumerate_uio(n, child[:n]):
        yield u, range(max(floor, u.pred[-1] if n else 0), n + 1)
        floor = 0


def _extension_children(m: int, lo: int, hi: int):
    """Per child extend(U, k) of the pairs (U, k) of size m and rank
    lo..hi - 1, in rank order: (rank, U, k, cur, grown, pos, fit, path,
    reading, through, top).  The bytes cur and grown are q(U) and
    q(extend(U, k)), its new letter at pos; fit says if grown is an area
    sequence; path is a(extend(U, k)), reading zeta of grown, and through
    the reading of cur's diagonals 0..top, top being cur's largest letter.
    With no anchor in cur, grown, pos, path and reading are None, fit False.

    The descent loops over the parents U and, at depth m, over each
    parent's children.  A stack holds, per depth i, the listing cur of
    elements 0..i - 1 and what is known of it: a new parent re-inserts only
    its changed suffix, each child only its last letter.  zeta is read off
    a listing as a/b text by Haglund's scan, where diagonal j keeps the
    letters j (read a) and j - 1 (read b).  Levels rise with the element
    index, so the letter L inserted into cur is cur's largest letter top or
    top + 1: the grown listing reads its diagonals 0..L - 1 as cur does, so
    a step translates only diagonal L onto a prefix the stack keeps, and
    diagonal L + 1 holds just the L's, read b.  Only readings of unchanged
    input are reused; the reading does not assume what the induction step
    checks.
    """
    n = m + 1
    if n > 255:                 # levels < n and the diagonals 0..n are bytes
        raise PreconditionError(f"bytes listings hold orders of size <= 255, got {n}")
    # diagonal j keeps the letters j - 1 (read b; none for j = 0) and j (a)
    keeps = [bytes(range(max(j - 1, 0), j + 1)) for j in range(n + 1)]
    tables = [bytes.maketrans(keep, b"ba"[-len(keep):]) for keep in keeps]
    deletes = [bytes(range(n)).translate(None, keep) for keep in keeps]
    letters = [bytes((level,)) for level in range(n)]
    rights = [b"b" * j for j in range(n + 1)]
    pred = [-1] * m             # the parent's vector; -1: nothing inserted yet
    lv = [0] * n                # lv[i]: level of element i
    # stack[i]: the listing cur of elements 0..i - 1, whether it is an area
    # sequence, a's path up to row i's UP step, and the readings of cur's
    # diagonals 0..top - 1 and 0..top
    stack = [(b"", True, b"", b"", b"")] * (n + 1)
    rank = lo
    for u, ks in _extension_pairs(m, lo):
        d = 0
        while d < m and u.pred[d] == pred[d]:
            d += 1
        pred[d:m] = u.pred[d:]
        for i in range(d, n):
            cur, fit, path_i, below, through = stack[i]
            top = lv[i - 1] if i else 0
            last = pred[i - 1] if i else 0
            # depth i < m inserts the parent's element i, depth m each child's
            for p in (pred[i],) if i < m else ks[:hi - rank]:
                pos = 0
                if p:           # just after the C-th letter level - 1
                    level = lv[p - 1] + 1
                    c = p - bisect_left(lv, level - 1, 0, p)
                    try:
                        for _ in range(c):
                            pos = cur.index(level - 1, pos) + 1
                    except ValueError:      # cur lacks a letter level - 1
                        break
                else:
                    level = 0
                while pos < i and cur[pos] == level:    # then past a run of level
                    pos += 1
                grown = cur[:pos] + letters[level] + cur[pos:]
                # grown is cur with a letter at pos: only the steps next to it are new
                grown_fit = (
                    (grown[pos - 1] + 1 >= grown[pos] if pos else grown[0] == 0)
                    and (pos == i or grown[pos + 1] <= grown[pos] + 1)
                ) if fit else _is_area_sequence(grown)
                # a_i = i - p: p - pred[i - 1] RIGHT steps lead to row i
                row = path_i + rights[p - last] + b"a"
                # level is top or top + 1: grown's diagonals 0..level - 1 are cur's
                head = through if level > top else below
                diagonal = head + grown.translate(tables[level], deletes[level])
                if i < m:
                    lv[i] = level
                    stack[i + 1] = grown, grown_fit, row, head, diagonal
                    continue
                # the child extend(U, k), k = p: diagonal level + 1 holds only
                # its letters level, read b
                reading = diagonal + rights[grown.count(level)]
                path = row + rights[n - p]
                yield rank, u, p, cur, grown, pos, grown_fit, path, reading, through, top
                rank += 1
            else:
                continue
            # the listing cur is corrupt, an insertion found no anchor in it:
            # U's children left have no listing, and no later parent reuses
            # the stack past depth i
            pred[i:] = [-1] * (m - i)
            for k in (range(p, ks.stop) if i == m else ks)[:hi - rank]:
                yield rank, u, k, cur, None, None, False, None, None, through, top
                rank += 1
            break
        if rank == hi:
            break


def _unanchored(rank, u, k, cur) -> Failure:
    """The kernel's disagreement for the pair (U, k), whose objects find
    nothing wrong: it found no anchor for an insertion into cur."""
    return Failure(
        rank, (("pred", str(u)), ("k", str(k))), "kernel finds every insertion's anchor",
        f"no anchor in {_csv(cur)}", _csv(_insert_all(extend(u, k))[0]))


# -------------------------------------------------------------- induction

def check_induction_step(
    n: int, jobs: int = 1, max_n: Optional[int] = None
) -> VerificationReport:
    """Check every rightmost extension of every order of size n.

    Extension pairs (U, k) biject with the orders of size n + 1, so the
    instance count must equal Catalan(n + 1).
    """
    _ceiling("induction", n, max_n)
    return _sweep("induction", n, catalan(n + 1), jobs, _induction_shard)


def _induction_shard(n: int, lo: int, hi: int):
    """The induction step for the pairs of rank lo..hi - 1."""
    failures = []
    rank = lo - 1              # rank + 1 - lo: the children drawn
    for rank, u, k, cur, grown, pos, fit, _, reading, through, top in _extension_children(
        n, lo, hi
    ):
        if grown is None:
            failures += _induction_failures(rank, u, k) or [_unanchored(rank, u, k, cur)]
            continue
        r, s = _peak_parameters(cur, grown, pos, k)
        # zeta(q(U)) ends in diagonal top + 1, read b; then
        # add_final_peak(zeta(q(U)), r): an UP step before the
        # last r RIGHT steps, and one more RIGHT step at the end
        zeta_q = through + b"b" * cur.count(top)
        kept = zeta_q.rstrip(b"b")
        t = len(zeta_q) - len(kept)
        expected = kept + b"b" * (t - r) + b"a" + b"b" * (r + 1)
        if (
            grown[:pos] + grown[pos + 1:] != cur
            or grown[pos] != max(grown)
            or grown[pos] in grown[pos + 1:]
            or not fit
            or r != s
            or reading != expected
        ):
            failures += _induction_failures(rank, u, k) or [Failure(
                rank,
                (("pred", str(u)), ("k", str(k)),
                 ("q", _csv(cur)), ("q_ext", _csv(grown))),
                "kernel agrees with q_map, p_map, a_map and zeta",
                f"pos={pos} r={r} zeta={reading.decode()}",
                f"s={s} zeta(p(U))+r={expected.decode()}",
            )]
    return rank + 1 - lo, failures


def _induction_failures(rank, u, k) -> list[Failure]:
    """The Failures of the pair (U, k) on the objects; empty if it holds."""
    extended = extend(u, k)
    bad = _area_failure(rank, u) or _area_failure(rank, extended)
    if bad is not None:
        return [bad]
    failures = []
    q_small, _ = q_map(u)
    q_big, trace = q_map(extended)
    p_big = p_map(extended)
    pos = trace.positions[-1]
    inputs = (("pred", str(u)), ("k", str(k)),
              ("q", str(q_small)), ("q_ext", str(q_big)))

    def fail(equation, lhs, rhs):
        failures.append(Failure(rank, inputs, equation, str(lhs), str(rhs)))

    # the listing gains exactly one letter, in final-maximal position
    without = q_big.entries[:pos] + q_big.entries[pos + 1:]
    if without != q_small.entries:
        fail("q(extend(U,k)) is q(U) with one letter inserted", _csv(without), q_small)
    else:
        top = max(q_big.entries)
        last_top = max(i for i, w in enumerate(q_big.entries) if w == top)
        if q_big.entries[pos] != top or pos != last_top:
            fail("inserted letter is the last maximal letter",
                 f"inserted at {pos}", f"last maximum at {last_top}")
        row = final_maximal_peak(p_big).apex[1]
        if row != pos + 1:
            fail("final maximal peak of p(extend(U,k)) sits in the inserted row",
                 f"apex row {row}", f"inserted row {pos + 1}")

    r, s = _peak_parameters(q_small.entries, q_big.entries, pos, k)
    for equation, got, path, t in (
        ("zeta(p(extend(U,k))) == add_final_peak(zeta(p(U)), r)",
         zeta(p_big), zeta(p_map(u)), r),
        ("a(extend(U,k)) == add_final_peak(a(U), s)", a_map(extended), a_map(u), s),
    ):
        try:
            expected = add_final_peak(path, t)
        except PreconditionError as exc:
            fail(equation, got, f"unrealizable: {exc}")
        else:
            if got != expected:
                fail(equation, got, expected)
    if r != s:
        fail("r == s", r, s)
    return failures


# ------------------------------------------------------------- bijections

#: the largest size whose bitmaps, 2^(2n - 2) bits per map, are allocated
BITMAP_MAX_N = 15
#: a/b bytes as binary digits
_BITS = bytes.maketrans(b"ab", b"10")
#: bytes of each shard's bitmap that the parent decompresses at a time
BITMAP_WINDOW = 1 << 16


def check_bijections(
    n: int, jobs: int = 1, max_n: Optional[int] = None
) -> VerificationReport:
    """Distinct images for a, q and zeta; each image a Dyck path of size n;
    a_inverse undoes a.

    a_inverse is read off a's path on bytes (_pred_of_path), and a rank it
    flags is re-checked on the objects.  Each shard marks each map's images
    as bits of a bitmap, so n <= BITMAP_MAX_N = 15 (2^28 bits = 32 MB per
    map and shard), checked before anything is allocated.  Only an image
    that is a Dyck path of size n is marked, so a passing report has C_n
    distinct Dyck paths of size n per map: each map is onto them.
    """
    _ceiling("bijections", n, max_n)
    if n > BITMAP_MAX_N:
        raise PreconditionError(f"bijections bitmaps hold sizes <= {BITMAP_MAX_N} "
                                f"(2^{2 * BITMAP_MAX_N - 2} bits per map), got {n}")
    return _sweep("bijections", n, catalan(n), jobs, _bijections_shard,
                  partial(_repeated_images, n))


def _pred_of_path(path: bytes, n: int) -> Optional[tuple[int, ...]]:
    """a_inverse on a/b bytes: pred[j] is the number of b's before the j-th
    a.  None unless the path has 2n steps, n of them a and n of them b."""
    runs = path.split(b"a")
    if len(runs) != n + 1 or path.count(b"b") != n or len(path) != 2 * n:
        return None
    runs.pop()
    return tuple(accumulate(map(len, runs)))


def _dyck_pred(path: bytes, n: int) -> Optional[tuple[int, ...]]:
    """_pred_of_path(path, n) if path is a Dyck path of size n, else None.

    Between two a's the b count peaks just before the next a, so the path
    stays on or above the diagonal iff pred[j] <= j for every j; the total
    b count n closes it on the diagonal."""
    pred = _pred_of_path(path, n)
    if pred is not None:
        for j, p in enumerate(pred):
            if p > j:
                return None
    return pred


def _image_key(image: bytes, n: int) -> int:
    """The bit of a Dyck path of size n >= 1: its middle 2n - 2 steps read
    as binary, a = 1 (the first step is a, the last b)."""
    return int(image.translate(_BITS), 2) >> 1 ^ 1 << (2 * n - 2)


def _bijection_images(n: int, lo: int, hi: int, failures: list):
    """Per order of rank lo..hi - 1: (rank, (a, q, zeta image), q(U)), the
    images as a/b bytes, q's the path of q(U).  An image is None where it
    is no Dyck path of size n, so where q(U) has no anchor and q's where
    q(U) is no area sequence.  The order's failures go to `failures`."""
    rights = [b"b" * j for j in range(n + 1)]
    for rank, u, k, cur, grown, _, fit, path, reading, _, _ in _extension_children(
        n - 1, lo, hi
    ):
        if grown is None:
            child = extend(u, k)
            failures += filter(None, (_a_failure(rank, child), _area_failure(
                rank, child) or _unanchored(rank, u, k, cur)))
            yield rank, (None, None, None), None
            continue
        if _pred_of_path(path, n) != u.pred + (k,):
            failures.append(_a_failure(rank, extend(u, k), path))
            if _dyck_pred(path, n) is None:
                path = None
        if fit or not (bad := _area_failure(rank, extend(u, k), grown)):
            # a_{j-1} + 1 - a_j RIGHT steps before row j's UP step, a_n + 1 after
            q_path = b"a".join([b"", *[
                rights[last + 1 - a] for last, a in zip(grown, grown[1:])
            ], rights[grown[-1] + 1]])
        else:
            failures.append(bad)
            q_path = None
        # the theorem makes the reading a's path; any reading must be a path
        if reading != path and _dyck_pred(reading, n) is None:
            failures.append(Failure(
                rank, (("pred", str(extend(u, k))), ("q", _csv(grown))),
                "zeta(p(U)) is a Dyck path", reading.decode(),
                f"no Dyck path of size {n}"))
            reading = None
        yield rank, (path, q_path, reading), grown


def _a_failure(rank, child, path=None) -> Optional[Failure]:
    """The Failure for a_inverse(a(U)) != U on the objects; else, for a path
    the stream gave, the kernel's disagreement; else None."""
    word = a_map(child)
    back = a_inverse(word)
    if back != child:
        return Failure(rank, (("pred", str(child)), ("a_word", str(word))),
                       "a_inverse(a(U)) == U", str(back), str(child))
    if path is not None:
        pred = _pred_of_path(path, child.n)
        return Failure(rank, (("pred", str(child)), ("a_path", path.decode())),
                       "kernel agrees with a_map and a_inverse",
                       "no order" if pred is None else _csv(pred), str(child))
    return None


def _bijections_shard(n: int, lo: int, hi: int):
    """The orders of rank lo..hi - 1: (count, failures, bitmaps, repeats).
    Each image's key (_image_key) is a bit of its map's bitmap, 2^(2n - 2)
    bits, returned zlib-compressed; repeats holds (map, key) for each key
    met twice."""
    failures = []
    bitmaps = [bytearray(((1 << (2 * n - 2)) + 7) // 8) for _ in range(3)]
    repeats = set()
    rank = lo - 1              # rank + 1 - lo: the orders drawn
    for rank, images, _ in _bijection_images(n, lo, hi, failures):
        for column, image in enumerate(images):
            if image is None:
                continue
            key = _image_key(image, n)
            bitmap, byte, bit = bitmaps[column], key >> 3, 1 << (key & 7)
            if bitmap[byte] & bit:
                repeats.add((column, key))
            bitmap[byte] |= bit
    return rank + 1 - lo, failures, [zlib.compress(b, 1) for b in bitmaps], repeats


def _windows(data: bytes):
    """The bytes zlib-compressed as `data`, BITMAP_WINDOW bytes at a time."""
    stream = zlib.decompressobj()
    while window := stream.decompress(data, BITMAP_WINDOW):
        yield window
        data = stream.unconsumed_tail


def _repeated_images(n, total, results) -> list[Failure]:
    """A Failure per rank whose a, q or zeta image an earlier rank made.
    The shards' repeats and the bits two shards share (an AND of their
    bitmaps, window by window) are looked up in one more pass of the
    stream."""
    wanted = set().union(*(r[3] for r in results))
    for column in range(3):
        streams = zip(*(_windows(r[2][column]) for r in results))
        for start, windows in enumerate(streams):
            seen = 0
            for window in windows:
                marks = int.from_bytes(window, "little")
                shared = seen & marks
                while shared:
                    key = shared.bit_length() - 1
                    wanted.add((column, start * 8 * BITMAP_WINDOW + key))
                    shared ^= 1 << key
                seen |= marks
    if not wanted:
        return []
    failures = []
    first_seen = {}
    for rank, images, grown in _bijection_images(n, 0, total, []):
        for column, image in enumerate(images):
            if image is None or (column, key := _image_key(image, n)) not in wanted:
                continue
            first = first_seen.setdefault((column, key), rank)
            if first != rank:
                failures.append(Failure(
                    rank, (("image", _csv(grown) if column == 1 else image.decode()),),
                    f"{('a', 'q', 'zeta')[column]} images pairwise distinct",
                    f"rank {rank}", f"already produced at rank {first}",
                ))
    return failures


# ---------------------------------------------------------------- grevlex

def check_grevlex(n: int, max_n: Optional[int] = None) -> VerificationReport:
    """The independent exhaustive minimum equals the insertion listing."""
    _ceiling("grevlex", n, max_n)
    return _sweep("grevlex", n, catalan(n), 1, _grevlex_shard)


def _grevlex_shard(n: int, lo: int, hi: int):
    """The walk's listings against grevlex_minima of the orders of rank
    lo..hi - 1, which one pass over the listings finds for all of them."""
    count = 0
    failures = []
    orders = list(islice(enumerate_uio(n, unrank_uio(n, lo)), hi - lo))
    walk = zip(_walk(orders), grevlex_minima(orders))
    for rank, ((u, listings), found) in enumerate(walk, start=lo):
        count += 1
        if found.entries != listings[n]:
            failures.append(Failure(
                rank, (("pred", str(u)),), "grevlex_min_search(U) == q(U)",
                str(found), _csv(listings[n]),
            ))
    return count, failures
