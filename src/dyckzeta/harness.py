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
  grevlex     the exhaustive grevlex-minimum search agrees with q

The theorem sweep runs on integer tuples: levels and listings by the
insertion of partlist, zeta by Haglund's scan (zeta.zeta_scan), compared
with a(U)'s area sequence.  An order on which they disagree is re-checked
through the objects (a_map, p_map, zeta); the other checks use the objects
throughout.  Each check has one code path, its shard function; tests that
corrupt a map patch the names this module looks up (harness.zeta,
harness.zeta_scan) and so run the same code as the CLI.

Work shards by contiguous enumeration-rank ranges, so reports are
deterministic for a fixed n regardless of worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from operator import sub
from typing import Callable, Iterator, Optional

from .errors import PreconditionError, ValidationError
from .lattice import (
    AreaSequence,
    add_final_peak,
    catalan,
    enumerate_dyck,
    final_maximal_peak,
)
from .partlist import _insert, grevlex_min_search, p_map, q_map
from .uio import UnitIntervalOrder, a_inverse, a_map, enumerate_uio, extend
from .zeta import _peak_parameters, zeta, zeta_scan

#: Per-check size ceilings keeping the full sweep under a minute on
#: commodity hardware; raise via the max_n argument (or --max-n in the CLI).
DEFAULT_CEILINGS = {"theorem": 13, "induction": 9, "bijections": 11, "grevlex": 5}


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


def _run_sharded(worker: Callable, n: int, total: int, jobs: int):
    """Run worker(n, lo, hi) over contiguous rank ranges; merge in order."""
    bounds = _shard_bounds(total, jobs)
    if len(bounds) == 1:
        return [worker(n, 0, total)]
    with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
        return list(pool.map(worker, *zip(*((n, lo, hi) for lo, hi in bounds))))


def _assert_complete(check: str, seen: int, expected: int) -> None:
    if seen != expected:
        raise RuntimeError(
            f"{check} enumeration truncated: saw {seen} of {expected} instances"
        )


def _sweep(check, n, total, jobs, shard):
    """Run shard(n, lo, hi) over the `total` instances of one check and report.

    Each shard returns its instance count and its failures; the counts must
    add up to `total`.
    """
    start = time.perf_counter()
    results = _run_sharded(shard, n, total, jobs)
    count = sum(r[0] for r in results)
    failures = tuple(f for r in results for f in r[1])
    _assert_complete(check, count, total)
    return VerificationReport(
        check, n, count, failures, time.perf_counter() - start
    )


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
    """The theorem on integer tuples, for the orders of rank lo..hi - 1.

    Orders come in lexicographic order, the preorder of the tree of
    rightmost extensions, so consecutive orders share a prefix; the levels
    and listings of the prefix are kept per depth and only the changed
    suffix is inserted again.  Each finished listing must be an area
    sequence, and its zeta_scan must equal a(U)'s area sequence
    a_j = j - 1 - pred[j].  A disagreement is re-checked on the objects.
    """
    count = 0
    failures = []
    prev = (-1,) * n                # no order of size n matches it anywhere
    lv = [0] * n                    # lv[i]: level of element i
    listings = [()] * (n + 1)       # listings[i]: listing of elements 0..i-1
    for rank, u in enumerate(islice(enumerate_uio(n), lo, hi), start=lo):
        count += 1
        pred = u.pred
        d = 0
        while pred[d] == prev[d]:
            d += 1
        for i in range(d, n):
            listings[i + 1], lv[i], _, _ = _insert(listings[i], lv, pred[i])
        prev = pred
        listing = listings[n]
        area = tuple(map(sub, range(n), pred))     # a_j = j - 1 - pred[j]
        if (
            listing[0] != 0
            or max(map(sub, listing[1:], listing), default=0) > 1
            or zeta_scan(listing) != area
        ):
            failures.append(
                _theorem_failure(rank, u)
                or Failure(
                    rank,
                    (("pred", str(u)), ("q", ",".join(map(str, listing)))),
                    "kernel agrees with a_map, p_map and zeta",
                    ",".join(map(str, zeta_scan(listing))),
                    ",".join(map(str, area)),
                )
            )
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


def _extension_pairs(n: int) -> Iterator[tuple[UnitIntervalOrder, int]]:
    for u in enumerate_uio(n):
        for k in range(u.pred[-1] if u.n else 0, n + 1):
            yield u, k


def _induction_shard(n: int, lo: int, hi: int):
    count = 0
    failures = []
    u_prev = None
    for rank, (u, k) in enumerate(islice(_extension_pairs(n), lo, hi), start=lo):
        count += 1
        if u != u_prev:         # pairs of one U come for consecutive k
            u_prev = u
            q_small, _ = q_map(u)
            zp_small = zeta(p_map(u))
            a_small = a_map(u)
        extended = extend(u, k)
        q_big, trace = q_map(extended)
        p_big = p_map(extended)
        pos = trace.positions[-1]
        inputs = (
            ("pred", str(u)),
            ("k", str(k)),
            ("q", str(q_small)),
            ("q_ext", str(q_big)),
        )

        def fail(equation, lhs, rhs):
            failures.append(Failure(rank, inputs, equation, str(lhs), str(rhs)))

        # the listing gains exactly one letter, in final-maximal position
        without = q_big.entries[:pos] + q_big.entries[pos + 1:]
        if without != q_small.entries:
            fail(
                "q(extend(U,k)) is q(U) with one letter inserted",
                ",".join(map(str, without)),
                str(q_small),
            )
        else:
            top = max(q_big.entries)
            last_top = max(i for i, w in enumerate(q_big.entries) if w == top)
            if q_big.entries[pos] != top or pos != last_top:
                fail(
                    "inserted letter is the last maximal letter",
                    f"inserted at {pos}",
                    f"last maximum at {last_top}",
                )
            peak = final_maximal_peak(p_big)
            if peak.apex[1] != pos + 1:
                fail(
                    "final maximal peak of p(extend(U,k)) sits in the inserted row",
                    f"apex row {peak.apex[1]}",
                    f"inserted row {pos + 1}",
                )

        r, s = _peak_parameters(q_small.entries, q_big.entries, pos, k)
        zp_big = zeta(p_big)
        try:
            expected = add_final_peak(zp_small, r)
        except PreconditionError as exc:
            fail("zeta(p(extend(U,k))) == add_final_peak(zeta(p(U)), r)",
                 str(zp_big), f"unrealizable: {exc}")
        else:
            if zp_big != expected:
                fail("zeta(p(extend(U,k))) == add_final_peak(zeta(p(U)), r)",
                     str(zp_big), str(expected))

        a_big = a_map(extended)
        try:
            expected = add_final_peak(a_small, s)
        except PreconditionError as exc:
            fail("a(extend(U,k)) == add_final_peak(a(U), s)",
                 str(a_big), f"unrealizable: {exc}")
        else:
            if a_big != expected:
                fail("a(extend(U,k)) == add_final_peak(a(U), s)",
                     str(a_big), str(expected))

        if r != s:
            fail("r == s", str(r), str(s))
    return count, failures


# ------------------------------------------------------------- bijections

def check_bijections(
    n: int, jobs: int = 1, max_n: Optional[int] = None
) -> VerificationReport:
    """Distinct images for a, q and zeta; q valid; a_inverse undoes a."""
    _ceiling("bijections", n, max_n)
    start = time.perf_counter()
    results = _run_sharded(_bijections_shard, n, catalan(n), jobs)
    count = sum(r[0] for r in results)
    failures = [f for r in results for f in r[4]]
    a_images = [img for r in results for img in r[1]]
    q_images = [img for r in results for img in r[2]]
    z_images = [img for r in results for img in r[3]]
    _assert_complete("bijections", count, catalan(n))
    for name, images in (("a", a_images), ("q", q_images), ("zeta", z_images)):
        first_seen: dict[str, int] = {}
        for rank, img in enumerate(images):
            if img in first_seen:
                failures.append(
                    Failure(
                        rank,
                        (("image", img),),
                        f"{name} images pairwise distinct",
                        f"rank {rank}",
                        f"already produced at rank {first_seen[img]}",
                    )
                )
            else:
                first_seen[img] = rank
    failures.sort(key=lambda f: f.rank)
    return VerificationReport(
        "bijections", n, count, tuple(failures), time.perf_counter() - start
    )


def _bijections_shard(n: int, lo: int, hi: int):
    count = 0
    failures = []
    a_images = []
    q_images = []
    for rank, u in enumerate(islice(enumerate_uio(n), lo, hi), start=lo):
        count += 1
        word = a_map(u)
        a_images.append(str(word))
        back = a_inverse(word)
        if back != u:
            failures.append(
                Failure(
                    rank,
                    (("pred", str(u)), ("a_word", str(word))),
                    "a_inverse(a(U)) == U",
                    str(back),
                    str(u),
                )
            )
        listing, _ = q_map(u)
        q_images.append(str(listing))
        try:
            AreaSequence(listing.entries)
        except ValidationError as exc:
            failures.append(
                Failure(
                    rank,
                    (("pred", str(u)), ("q", str(listing))),
                    "q(U) is a valid area sequence",
                    str(listing),
                    str(exc),
                )
            )
    z_images = [
        str(zeta(d)) for d in islice(enumerate_dyck(n), lo, hi)
    ]
    return count, a_images, q_images, z_images, failures


# ---------------------------------------------------------------- grevlex

def check_grevlex(n: int, max_n: Optional[int] = None) -> VerificationReport:
    """The independent exhaustive minimum equals the insertion listing."""
    _ceiling("grevlex", n, max_n)
    return _sweep("grevlex", n, catalan(n), 1, _grevlex_shard)


def _grevlex_shard(n: int, lo: int, hi: int):
    count = 0
    failures = []
    for rank, u in enumerate(islice(enumerate_uio(n), lo, hi), start=lo):
        count += 1
        found = grevlex_min_search(u, n_max_guard=n)
        expected, _ = q_map(u)
        if found != expected:
            failures.append(
                Failure(
                    rank,
                    (("pred", str(u)),),
                    "grevlex_min_search(U) == q(U)",
                    str(found),
                    str(expected),
                )
            )
    return count, failures
