"""Exhaustive desk-scale verification.

Four checks, each driving a full enumeration and recording counterexamples
as data rather than raising:

  theorem     a(U) == zeta(p(U)) over every unit interval order of size n
  induction   the four facts behind the rightmost-extension step, over
              every pair (U, k): the listing grows by one final-maximal
              letter; both path maps grow by a final peak placed r resp.
              s right steps from the end; and r == s
  bijections  a, q and zeta have pairwise-distinct images; q emits valid
              area sequences; a_inverse undoes a
  grevlex     the grevlex-minimal listing isomorphic to U, found for all
              orders in one pass over the listings, agrees with q

All four sweeps run on integer tuples and share one walk (_walk): the
orders come in lexicographic order of their pred vectors, consecutive
vectors share a prefix, and only the changed suffix is inserted again
(partlist._insert) to get the listing q(U).  The walk takes vectors of any
size in any order, so `dyckzeta map --name p|unzeta` streams its input
lines through it too.  The theorem applies Haglund's
scan (zeta.zeta_scan) to q(U) and compares it with a(U)'s area sequence;
the induction step compares the listings and scans of U and extend(U, k);
bijections take the images of a, q and zeta from tuples; grevlex compares
the walk's listings with partlist.grevlex_minima, which never inserts.  The
objects (a_map, p_map, q_map, zeta, ...) are the re-check: an instance the
tuples flag is checked again on them, and a flag they do not confirm is
reported as a disagreement of the kernel.  Each check has one code path,
its shard function; tests that corrupt a map patch the names this module
looks up (harness.zeta, harness.zeta_scan, harness._insert,
harness.a_inverse) and so run the same code as the CLI.

Work shards by contiguous enumeration-rank ranges, so reports are
deterministic for a fixed n regardless of worker count.  A shard of ranks
lo..hi - 1 starts its stream at its first instance, unranked by
uio.unrank_uio (for induction pairs, the child of rank lo), and draws
exactly hi - lo instances: no shard builds the orders before its own.
Pool workers ignore SIGINT; on Ctrl-C the parent stops them and raises
KeyboardInterrupt, which the CLI reports with exit status 2.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from multiprocessing import active_children
from operator import attrgetter, sub
from typing import Iterator, Optional

from .errors import PreconditionError, ValidationError
from .lattice import (
    AreaSequence,
    add_final_peak,
    catalan,
    final_maximal_peak,
    word_from_area_sequence,
)
from .partlist import _insert, grevlex_minima, p_map, q_map
from .uio import (
    UnitIntervalOrder,
    a_inverse,
    a_map,
    enumerate_uio,
    extend,
    unrank_uio,
)
from .zeta import _peak_parameters, zeta, zeta_scan

#: Per-check size ceilings keeping the full sweep under a minute on
#: commodity hardware; raise via the max_n argument (or --max-n in the CLI).
DEFAULT_CEILINGS = {"theorem": 14, "induction": 12, "bijections": 12, "grevlex": 7}


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


def _sweep(check, n, total, jobs, shard, images=()):
    """Run shard(n, lo, hi) over contiguous rank ranges and report.

    A shard returns its instance count, its failures and, per (name, text)
    in `images`, the images of that map in rank order; the counts must add
    up to `total`, and each map's images must be distinct across shards.
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
    for column, (name, text) in enumerate(images, start=2):
        if len(set(chain.from_iterable(r[column] for r in results))) == count:
            continue            # distinct; ranks are looked up only for a duplicate
        first_seen: dict[bytes, int] = {}
        for rank, img in enumerate(chain.from_iterable(r[column] for r in results)):
            first = first_seen.setdefault(img, rank)
            if first != rank:
                failures.append(Failure(
                    rank, (("image", text(img)),), f"{name} images pairwise distinct",
                    f"rank {rank}", f"already produced at rank {first}",
                ))
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
    enumerate_uio and the sweeps' shards deliver it) costs about 1.4
    insertions per order at n = 10, against n for a lone q_map.  Yields
    (item, listings, pos) with n = len(pred_of(item)): listings[i] is the
    listing of elements 0..i-1 for i <= n (listings[n] is q(U); entries
    past n are left over from longer vectors), and the last element's
    letter landed at listings[n][pos] (pos is None for n = 0).  The same
    listings list is updated for every item.
    """
    prev = ()
    lv = []                         # lv[i]: level of element i
    listings = [()]
    at = [None]                     # at[i + 1]: where element i's letter landed
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
            at += [None] * grow
        for i in range(d, n):
            listings[i + 1], lv[i], _, at[i + 1] = _insert(listings[i], lv, pred[i])
        prev = pred
        yield item, listings, at[n]


def _orders(n: int, lo: int, hi: int) -> Iterator[UnitIntervalOrder]:
    """The orders of rank lo..hi - 1: the stream starts at the order of rank
    lo, so a shard draws exactly hi - lo of them."""
    return islice(enumerate_uio(n, unrank_uio(n, lo)), hi - lo)


def _is_area_sequence(s: tuple[int, ...]) -> bool:
    """AreaSequence's rule for a listing, whose entries are levels (>= 0)."""
    return s[0] == 0 and max(map(sub, s[1:], s), default=0) <= 1


def _csv(s) -> str:
    return ",".join(map(str, s))


# ---------------------------------------------------------------- theorem

def check_theorem(
    n: int, jobs: int = 1, max_n: Optional[int] = None
) -> VerificationReport:
    """Assert a(U) == zeta(p(U)) for every order of size n.

    The sweep runs on integer tuples (_theorem_shard); an order on which
    the tuples disagree is re-checked on the objects a_map, p_map and zeta.
    """
    _ceiling("theorem", n, max_n)
    return _sweep("theorem", n, catalan(n), jobs, _theorem_shard)


def _theorem_shard(n: int, lo: int, hi: int):
    """The theorem on integer tuples, for the orders of rank lo..hi - 1:
    q(U) from the walk must be an area sequence whose zeta_scan is a(U)'s
    area sequence a_j = j - 1 - pred[j].  A disagreement is re-checked on
    the objects."""
    count = 0
    failures = []
    for rank, (u, listings, _) in enumerate(_walk(_orders(n, lo, hi)), start=lo):
        count += 1
        listing = listings[n]
        area = tuple(map(sub, range(n), u.pred))
        if not _is_area_sequence(listing) or zeta_scan(listing) != area:
            failures.append(_theorem_failure(rank, u) or Failure(
                rank, (("pred", str(u)), ("q", _csv(listing))),
                "kernel agrees with a_map, p_map and zeta",
                _csv(zeta_scan(listing)), _csv(area),
            ))
    return count, failures


def _theorem_failure(rank, u) -> Optional[Failure]:
    """The Failure for a(U) != zeta(p(U)) on the objects, or None."""
    left = a_map(u)
    p_word = p_map(u)
    right = zeta(p_word)
    if left == right:
        return None
    listing, _ = q_map(u)
    return Failure(
        rank,
        (
            ("pred", str(u)),
            ("q", str(listing)),
            ("p_word", str(p_word)),
        ),
        "a(U) == zeta(p(U))",
        str(left),
        str(right),
    )


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


def _extension_pairs(n: int, lo: int = 0) -> Iterator[tuple[UnitIntervalOrder, int]]:
    """The pairs (U, k) in the lexicographic order of pred + (k,), from the
    pair of rank lo on: the one whose child extend(U, k) is
    unrank_uio(n + 1, lo)."""
    child = unrank_uio(n + 1, lo)
    floor = child[n]
    for u in enumerate_uio(n, child[:n]):
        for k in range(max(floor, u.pred[-1] if n else 0), n + 1):
            yield u, k
        floor = 0


def _induction_shard(n: int, lo: int, hi: int):
    """The induction step on integer tuples, for the pairs of rank lo..hi - 1.

    The walk runs over the extended vectors pred + (k,), which come in
    lexicographic order, giving small = q(U) and big = q(extend(U, k)) with
    the new letter at pos.  Without it big is small; it is big's last
    maximal letter; big is an area sequence; r == s; and big's scan is
    small's with r appended, which is what add_final_peak does to an area
    sequence (a(extend(U, k)) is a(U) with s appended by definition).  A
    flagged pair is re-checked on the objects.
    """
    count = 0
    failures = []
    u_prev = None
    pairs = islice(_extension_pairs(n, lo), hi - lo)
    walk = _walk(pairs, lambda pair: pair[0].pred + (pair[1],))
    for rank, ((u, k), listings, pos) in enumerate(walk, start=lo):
        count += 1
        small, big = listings[n], listings[n + 1]
        if u is not u_prev:     # pairs of one U come for consecutive k
            u_prev = u
            scan = zeta_scan(small)
        r, s = _peak_parameters(small, big, pos, k)
        top = big[pos]
        if (
            big[:pos] + big[pos + 1:] != small
            or top != max(big)
            or top in big[pos + 1:]
            or not _is_area_sequence(big)
            or r != s
            or zeta_scan(big) != scan + (r,)
        ):
            failures += _induction_failures(rank, u, k) or [Failure(
                rank,
                (("pred", str(u)), ("k", str(k)),
                 ("q", _csv(small)), ("q_ext", _csv(big))),
                "kernel agrees with q_map, p_map, a_map and zeta",
                f"pos={pos} r={r} zeta={_csv(zeta_scan(big))}",
                f"s={s} zeta(p(U))+r={_csv(scan + (r,))}",
            )]
    return count, failures


def _induction_failures(rank, u, k) -> list[Failure]:
    """The Failures of the pair (U, k) on the objects; empty if it holds."""
    failures = []
    q_small, _ = q_map(u)
    extended = extend(u, k)
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

def check_bijections(
    n: int, jobs: int = 1, max_n: Optional[int] = None
) -> VerificationReport:
    """Distinct images for a, q and zeta; q valid; a_inverse undoes a."""
    _ceiling("bijections", n, max_n)
    images = (("a", _word_text), ("q", _csv), ("zeta", _word_text))
    return _sweep("bijections", n, catalan(n), jobs, _bijections_shard, images)


def _word_text(area: bytes) -> str:
    return str(word_from_area_sequence(AreaSequence(area)))


def _bijections_shard(n: int, lo: int, hi: int):
    """Failures and the a, q and zeta images of the orders of rank lo..hi - 1.

    Images are area sequences packed as bytes: a(U) is a_j = j - 1 - pred[j],
    q(U) comes from the walk, and zeta's image is zeta_scan(a(U)), since
    a_map sends enumerate_uio(n) order onto enumerate_dyck(n) order.  Each
    q(U) must be an area sequence, and a_inverse must undo a_map.
    """
    count = 0
    failures = []
    a_images, q_images, z_images = [], [], []
    for rank, (u, listings, _) in enumerate(_walk(_orders(n, lo, hi)), start=lo):
        count += 1
        area = tuple(map(sub, range(n), u.pred))
        listing = listings[n]
        a_images.append(bytes(area))
        q_images.append(bytes(listing))
        z_images.append(bytes(zeta_scan(area)))
        word = a_map(u)
        back = a_inverse(word)
        if back != u:
            failures.append(Failure(
                rank, (("pred", str(u)), ("a_word", str(word))),
                "a_inverse(a(U)) == U", str(back), str(u),
            ))
        if not _is_area_sequence(listing):
            try:
                AreaSequence(listing)
            except ValidationError as exc:
                failures.append(Failure(
                    rank, (("pred", str(u)), ("q", _csv(listing))),
                    "q(U) is a valid area sequence", _csv(listing), str(exc),
                ))
    return count, failures, a_images, q_images, z_images


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
    orders = list(_orders(n, lo, hi))
    walk = zip(_walk(orders), grevlex_minima(orders))
    for rank, ((u, listings, _), found) in enumerate(walk, start=lo):
        count += 1
        if found.entries != listings[n]:
            failures.append(Failure(
                rank, (("pred", str(u)),), "grevlex_min_search(U) == q(U)",
                str(found), _csv(listings[n]),
            ))
    return count, failures
