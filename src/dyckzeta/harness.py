"""Exhaustive desk-scale verification.

Four checks, each driving a full enumeration and recording counterexamples
as data rather than raising:

  theorem     a(U) == zeta(p(U)) over every unit interval order of size n
  induction   the four facts behind the rightmost-extension step, over
              every pair (U, k): the listing grows by one final-maximal
              letter; both path maps grow by a final peak placed r resp.
              s right steps from the end; and r == s
  bijections  a, q and zeta send the orders of size n one-to-one onto the
              Dyck paths of size n, each checked by a left inverse
  grevlex     the grevlex-minimal listing isomorphic to U, read off U's
              pred vector without inserting (grevlex_min), agrees with q

Every order of size n is extend(U, k) for exactly one pair (U, k) of size
n - 1.  All four sweeps consume one stream over these pairs
(_extension_children), which yields per child its listing q, a's path and
the zeta reading of q, as bytes, in one pass per parent: a parent
re-inserts only the suffix its successor step changed, and its children
share one anchor walk.  The bijections sweep checks each map's left
inverse on each order alone, so it keeps no image and a failure is
recorded on the rank that carries it.  The grevlex sweep holds each
child's listing against grevlex_min of its pred vector, which merges the
child's level blocks greedily and inserts nothing.  The induction
sweep's q check counts n - r letters below the new one: that count is
its r == s.  The objects (a_map, p_map, q_map, zeta, ...) are the
re-check.  Each shard is one predicate on the stream's tuple, false for a
child with no anchor, and an object oracle for each order it flags, which
starts with _area_failure and gives the order's records.  An order the
oracle finds nothing wrong with gets the one record of the kernel
disagreeing with the objects (_kernel_failure).  Each check has one code
path, its shard function, which the CLI runs too (CHECKS).

Work shards by contiguous enumeration-rank ranges, so reports are
deterministic for a fixed n regardless of worker count.  A shard of ranks
lo..hi - 1 starts its stream at the child of rank lo, unranked by
uio.unrank_uio, and draws exactly the parents of its hi - lo pairs: no
shard builds the orders before its own.  Pool workers ignore SIGINT; on
Ctrl-C the parent stops them and raises KeyboardInterrupt, which the CLI
reports with exit status 2.
"""

from __future__ import annotations

import os
import signal
import time
from bisect import bisect_left
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import active_children
from operator import sub
from typing import Iterator, Optional

from .errors import PreconditionError, SweepError, ValidationError
from .lattice import AreaSequence, _csv, add_final_peak, catalan
from .partlist import _bound_listing, _insert_all, _order_of, grevlex_min, p_map, q_map
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
#: (Python 3.11.7) at two jobs, verify's default there (the usable CPUs), and
#: at one.  At commit 2061212, two interleaved rounds: theorem 15 took
#: 15.9-16.9 s at jobs=2 and 29.6-31.2 s at jobs=1, induction 13 5.9-8.3 s
#: and 12.1-15.8 s, bijections 14 10.8-14.1 s and 20.6-20.8 s, grevlex 14
#: 14.7-20.4 s and 30.7-33.0 s, at 19 MB peak RSS.  Bijections 15 (46 s at
#: jobs=2) would pass a minute when the VM runs at half speed, and grevlex 15
#: took 68 s.  Raise via the max_n argument (or --max-n in the CLI).
DEFAULT_CEILINGS = {"theorem": 15, "induction": 13, "bijections": 14, "grevlex": 14}


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
    _bound_listing(n)           # before catalan(n), which a huge n makes slow


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
    cuts = [w * base + min(w, extra) for w in range(jobs + 1)]
    return list(zip(cuts, cuts[1:]))


def _sweep(check, n, total, jobs, shard):
    """Run shard(n, lo, hi) over contiguous rank ranges and report.

    A shard returns its instance count and its failures, and the counts must
    add up to `total`.
    """
    start = time.perf_counter()
    bounds = _shard_bounds(total, jobs)
    results = [shard(n, 0, total)] if len(bounds) == 1 else _pool_map(shard, n, bounds)
    count = sum(r[0] for r in results)
    if count != total:
        raise SweepError(
            f"{check} enumeration truncated: saw {count} of {total} instances"
        )
    failures = sorted((f for r in results for f in r[1]), key=lambda f: f.rank)
    return VerificationReport(
        check, n, count, tuple(failures), time.perf_counter() - start
    )


def _pool_map(shard, n, bounds):
    """shard(n, lo, hi) for each (lo, hi) in bounds, one worker process each.

    Ctrl-C sends SIGINT to the whole process group.  The workers ignore it,
    so none of them prints a traceback; the parent stops the workers it
    started and re-raises KeyboardInterrupt, which the CLI reports.  A
    worker that dies breaks the pool, which stops the others: SweepError.
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
        except BrokenExecutor as exc:
            raise SweepError(f"a worker process died: {exc}") from None


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _is_area_sequence(s: tuple[int, ...]) -> bool:
    """AreaSequence's rule for a listing, whose entries are levels (>= 0)."""
    return not s or s[0] == 0 and max(map(sub, s[1:], s), default=0) <= 1


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
    for child in _extension_children(n - 1, lo, hi):
        rank, u, k, _, _, _, fit, path, reading, _ = child
        if fit and reading == path:
            continue
        failures += _theorem_failures(rank, extend(u, k)) or [_kernel_failure(child)]
    return rank + 1 - lo, failures


def _theorem_failures(rank, u) -> list[Failure]:
    """The Failure of a(U) == zeta(p(U)) on the objects, if any."""
    bad = _area_failure(rank, u)
    if bad is not None:
        return [bad]
    left, p_word = a_map(u), p_map(u)
    if left == (right := zeta(p_word)):
        return []
    inputs = (("pred", str(u)), ("q", str(q_map(u)[0])), ("p_word", str(p_word)))
    return [Failure(rank, inputs, "a(U) == zeta(p(U))", str(left), str(right))]


def _area_failure(rank, u) -> Optional[Failure]:
    """The Failure for a q(U) that the objects cannot build, or that is no
    area sequence, or None.  p_map and q_map refuse such a listing, so each
    object oracle asks this first."""
    try:
        listing = _insert_all(u)[0]
        AreaSequence(tuple(listing))
    except PreconditionError as exc:    # an insertion finds no anchor
        return Failure(rank, (("pred", str(u)),), "q(U) is defined", "no anchor",
                       str(exc))
    except ValidationError as exc:
        return Failure(rank, (("pred", str(u)), ("q", _csv(listing))),
                       "q(U) is a valid area sequence", _csv(listing), str(exc))
    return None


def _kernel_failure(child) -> Failure:
    """The one record of the kernel disagreeing with the objects, for the
    stream's tuple `child` of a pair (U, k) whose order the check's oracle
    finds nothing wrong with: the stream's listing, its new letter's place,
    a's path and zeta reading, or the listing cur it found no anchor in,
    against q_map's, a_map's and zeta(p_map)'s."""
    rank, u, k, cur, grown, pos, _, path, reading, _ = child
    order = extend(u, k)
    listing, trace = q_map(order)
    kernel = (f"no anchor in {_csv(cur)}" if grown is None else
              f"q={_csv(grown)} pos={pos} a={_ab_text(path)} "
              f"zeta={_ab_text(reading)}")
    return Failure(
        rank, (("pred", str(u)), ("k", str(k))),
        "kernel agrees with q_map, a_map and zeta(p_map)", kernel,
        f"q={listing} pos={trace.positions[-1]} a={a_map(order)} zeta={zeta(p_map(order))}")


def _ab_text(steps: bytes) -> str:
    """The stream's a/b bytes as text, every other byte as \\xNN, so that a
    stray byte can neither stop the decoding nor split a field=value."""
    return "".join(chr(b) if b in b"ab" else f"\\x{b:02x}" for b in steps)


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
    reading, through).  The bytes cur and grown are q(U) and
    q(extend(U, k)), its new letter at pos; fit says if grown is an area
    sequence; path is a(extend(U, k)), reading zeta of grown, and through
    the reading of cur's diagonals 0..max(cur).  With no anchor in cur,
    grown, pos, path and reading are None, fit False.

    The descent loops over the parents U and, at depth m, over each
    parent's children.  A stack holds, per depth i, the listing cur of
    elements 0..i - 1 and what is known of it: a new parent re-inserts only
    its changed suffix, each child only its last letter.  U is the
    lexicographic successor of the parent before it, which raises the first
    entry of U's last run and keeps every entry before it, so the suffix
    starts there.  The children take their anchors in one pass: the level
    does not fall as k rises, and within a level C rises by one per k, so a
    child walks on from its elder sibling's anchor.  zeta is read off
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
    _bound_listing(n)           # levels < n and the diagonals 0..n are bytes
    # diagonal j keeps the letters j - 1 (read b; none for j = 0) and j (a)
    keeps = [bytes(range(max(j - 1, 0), j + 1)) for j in range(n + 1)]
    tables = [bytes.maketrans(keep, b"ba"[-len(keep):]) for keep in keeps]
    deletes = [bytes(range(n)).translate(None, keep) for keep in keeps]
    letters = [bytes((level,)) for level in range(n)]
    rights = [b"b" * j for j in range(n + 1)]
    lv = [0] * n                # lv[i]: level of element i
    # stack[i]: the listing cur of elements 0..i - 1, whether it is an area
    # sequence, a's path up to row i's UP step, and the readings of cur's
    # diagonals 0..top - 1 and 0..top
    stack = [(b"", True, b"", b"", b"")] * (n + 1)
    rank = lo
    cap = 0                     # stack[0..cap] still fits the next parent
    for u, ks in _extension_pairs(m, lo):
        pred = u.pred           # unchanged before its last run (see above)
        d = min(pred.index(pred[-1]), cap) if cap else 0
        cap = m
        for i in range(d, n):
            cur, fit, path_i, below, through = stack[i]
            top = lv[i - 1] if i else 0
            last = pred[i - 1] if i else 0
            walked = -1         # the level whose letters level - 1 were walked
            # depth i < m inserts the parent's element i, depth m each child's
            for p in (pred[i],) if i < m else ks[:hi - rank]:
                pos = 0
                if p:           # just after the C-th letter level - 1
                    level = lv[p - 1] + 1
                    if level != walked:     # lv rises: one first per level
                        walked, steps, anchor = level, 0, 0
                        first = bisect_left(lv, level - 1, 0, p)
                    c = p - first
                    if c < steps:           # siblings walk on; any other restarts
                        steps = anchor = 0
                    try:
                        while steps < c:
                            anchor = cur.index(level - 1, anchor) + 1
                            steps += 1
                    except ValueError:      # cur lacks a letter level - 1
                        break
                    pos = anchor
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
                yield rank, u, p, cur, grown, pos, grown_fit, path, reading, through
                rank += 1
            else:
                continue
            # the listing cur is corrupt, an insertion found no anchor in it:
            # U's children left have no listing, and no later parent reuses
            # the stack past depth i
            cap = i
            for k in (range(p, ks.stop) if i == m else ks)[:hi - rank]:
                yield rank, u, k, cur, None, None, False, None, None, through
                rank += 1
            break
        if rank == hi:
            break


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
    """The induction step for the pairs of rank lo..hi - 1.  The q check's
    count n - #L - #(L - 1 after L) is n - r, so it holds iff r == s = n - k;
    then the reading must be zeta(q(U)) with a final peak after s steps."""
    failures, parent = [], None
    rank = lo - 1              # rank + 1 - lo: the children drawn
    for child in _extension_children(n, lo, hi):
        rank, u, k, cur, grown, pos, fit, _, reading, through = child
        if u is not parent:
            # zeta(q(U)) ends in diagonal top + 1, read b
            parent, top = u, max(cur)
            zeta_q = through + b"b" * cur.count(top)
            kept = zeta_q.rstrip(b"b")
            t = len(zeta_q) - len(kept)
        s = n - k
        if fit and _extends_listing(cur, top, grown, pos, k) and (
                reading == kept + b"b" * (t - s) + b"a" + b"b" * (s + 1)):
            continue
        failures += _induction_failures(rank, u, k) or [_kernel_failure(child)]
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

    # the listing gains exactly one letter, in final-maximal position, so
    # p(extend(U,k))'s final maximal peak sits in the inserted row
    without = q_big.entries[:pos] + q_big.entries[pos + 1:]
    top = max(q_big.entries)
    last_top = max(i for i, w in enumerate(q_big.entries) if w == top)
    if without != q_small.entries:
        fail("q(extend(U,k)) is q(U) with one letter inserted", _csv(without), q_small)
    elif q_big.entries[pos] != top or pos != last_top:
        fail("inserted letter is the last maximal letter",
             f"inserted at {pos}", f"last maximum at {last_top}")

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

#: a/b bytes as binary digits; every other byte as ?, which int(_, 2) refuses
_BITS = b"?" * ord("a") + b"10" + b"?" * (254 - ord("a"))


def check_bijections(
    n: int, jobs: int = 1, max_n: Optional[int] = None
) -> VerificationReport:
    """a, q and zeta are one-to-one onto the Dyck paths of size n, each by a
    left inverse checked on each order alone (_bijections_shard), so no
    image is kept: C_n distinct Dyck paths of size n per map."""
    _ceiling("bijections", n, max_n)
    return _sweep("bijections", n, catalan(n), jobs, _bijections_shard)


def _unscan(reading: bytes, n: int) -> Optional[bytes]:
    """The listing of size n whose zeta reading by Haglund's scan is
    `reading`, else None.  The leading a's are the letters 0; segment i >= 1
    holds a b per letter i - 1, and the a's after its j-th b are letters i
    just after the j-th i - 1 (without the letters above i, an area
    sequence has an i - 1 or an i before each i)."""
    runs = reading.split(b"b")      # runs[t]: the a's after the t-th b
    listing, letter, t = bytes(len(runs[0])), 0, 1
    while (count := listing.count(letter)) and t + count <= len(runs):
        grown = bytearray()
        for x in listing:
            grown.append(x)
            if x == letter:
                grown += bytes((letter + 1,)) * len(runs[t])
                t += 1
        listing, letter = bytes(grown), letter + 1
    # all runs used, n of them a's: n letters, n a's and n b's
    if count or t != len(runs) or len(listing) != n or reading.count(b"a") != n:
        return None
    return listing


def _is_a_path(path: bytes, n: int, steps: int) -> bool:
    """Whether path is 2n a/b bytes that read as binary (a = 1) to steps."""
    try:
        return len(path) == 2 * n and int(path.translate(_BITS), 2) == steps
    except ValueError:      # a byte other than a and b
        return False


def _extends_listing(cur: bytes, top: int, grown: bytes, pos: int, k: int) -> bool:
    """Whether grown is cur, whose largest letter is top, with a letter L
    inserted at pos that keeps the area rule, is the last maximal letter
    and lies above k letters by _order_of's rule: all but the L's and the
    L - 1's after it.  A largest letter moves no other letter's count, so
    _order_of(grown) is then _order_of(cur) + (k,)."""
    if grown[:pos] + grown[pos + 1:] != cur:
        return False
    level = grown[pos]          # the letters after it are lower
    return (level >= top and level not in grown[pos + 1:]
            and (grown[pos - 1] + 1 >= level if pos else level == 0)
            and k == (len(grown) - grown.count(level) - grown.count(level - 1, pos)
                      if level else 0))


def _bijections_shard(n: int, lo: int, hi: int):
    """Left inverses of a, q and zeta on the orders of rank lo..hi - 1.

    a: a's path reads as binary to the bits of the steps j + pred[j]
    (_is_a_path), so it names pred.  q: per parent U, q(U) is an area
    sequence and _order_of(q(U)) == U.pred, the paper's definition of q;
    per child, _extends_listing carries both to q(extend(U, k)), so the
    sweep rests on no sweep of another size.  zeta: a reading equal to a's
    path is a's image, as the theorem says; any other must un-scan to q.
    """
    failures, parent = [], None
    rank = lo - 1              # rank + 1 - lo: the orders drawn
    for child in _extension_children(n - 1, lo, hi):
        rank, u, k, cur, grown, pos, _, path, reading, _ = child
        if u is not parent:
            # the j-th a is step j + pred[j], bit 2n - 1 - j - pred[j]
            parent, base = u, sum(1 << (2 * n - 1 - j - p) for j, p in enumerate(u.pred))
            inverted = _is_area_sequence(cur) and _order_of(cur) == u.pred
            top = max(cur, default=0)
        # the last a is step n - 1 + k
        if inverted and grown is not None and _extends_listing(cur, top, grown, pos, k) and (
                _is_a_path(path, n, base + (1 << (n - k)))
                and (reading == path or _unscan(reading, n) == grown)):
            continue
        failures += _bijections_failures(rank, extend(u, k)) or [_kernel_failure(child)]
    return rank + 1 - lo, failures


def _bijections_failures(rank, u) -> list[Failure]:
    """The Failures of the left inverses on the objects: a_inverse(a(U)) is
    U, q(U) is an area sequence whose poset is U (_order_of), and zeta(p(U))
    un-scans to q(U); empty if they hold."""
    bad = _area_failure(rank, u)
    if bad is not None:
        return [bad]
    failures, word, listing = [], a_map(u), q_map(u)[0]
    if (back := a_inverse(word)) != u:
        failures.append(Failure(rank, (("pred", str(u)), ("a_word", str(word))),
                                "a_inverse(a(U)) == U", str(back), str(u)))
    inputs = (("pred", str(u)), ("q", str(listing)))
    if (order := _order_of(listing.entries)) != u.pred:
        failures.append(Failure(rank, inputs, "the poset of q(U) is U", _csv(order), str(u)))
    scanned = _unscan(str(zeta(p_map(u))).encode(), u.n)
    if scanned != bytes(listing.entries):
        failures.append(Failure(rank, inputs, "zeta(p(U)) un-scans to q(U)",
                                "no listing" if scanned is None else _csv(scanned),
                                str(listing)))
    return failures


# ---------------------------------------------------------------- grevlex

def check_grevlex(
    n: int, jobs: int = 1, max_n: Optional[int] = None
) -> VerificationReport:
    """Each order's listing from the stream is the grevlex-minimal listing
    isomorphic to it, which grevlex_min reads off the order alone."""
    _ceiling("grevlex", n, max_n)
    return _sweep("grevlex", n, catalan(n), jobs, _grevlex_shard)


def _grevlex_shard(n: int, lo: int, hi: int):
    """The stream's listings for the orders of rank lo..hi - 1 (the
    children of the pairs of size n - 1 with those ranks) against their
    grevlex_min."""
    failures = []
    rank = lo - 1              # rank + 1 - lo: the children drawn
    for child in _extension_children(n - 1, lo, hi):
        rank, u, k, _, grown, *_ = child
        if grevlex_min(u.pred + (k,)) == grown:
            continue
        failures += _grevlex_failures(rank, extend(u, k)) or [_kernel_failure(child)]
    return rank + 1 - lo, failures


def _grevlex_failures(rank, u) -> list[Failure]:
    """The Failure of grevlex_min(U) == q(U) on the objects, if any."""
    bad = _area_failure(rank, u)
    if bad is not None:
        return [bad]
    listing, minimum = q_map(u)[0], grevlex_min(u.pred)
    return [] if minimum == bytes(listing.entries) else [Failure(
        rank, (("pred", str(u)),), "grevlex_min(U) == q(U)", _csv(minimum), str(listing))]


#: check name -> its sweep, keyed like DEFAULT_CEILINGS: verify's --check choices
CHECKS = {"theorem": check_theorem, "induction": check_induction_step,
          "bijections": check_bijections, "grevlex": check_grevlex}
