"""The theorem sweep's tuple kernel against the object-level maps.

The kernel (harness._theorem_shard) builds q(U) by prefix-sharing insertion
and applies zeta by Haglund's scan (zeta.zeta_scan).  Each piece is checked
here against an independent object-level computation: the listing against
q_map, the scan against zeta's diagonal reading.
"""

import pytest

from dyckzeta import (
    a_map,
    area_sequence_from_word,
    catalan,
    check_theorem,
    enumerate_dyck,
    enumerate_uio,
    harness,
    p_map,
    q_map,
    word_from_area_sequence,
    zeta,
)
from dyckzeta.zeta import zeta_scan


def test_kernel_listings_equal_q_map(monkeypatch):
    seen = []

    def scan(listing):
        seen.append(listing)
        return zeta_scan(listing)

    monkeypatch.setattr(harness, "zeta_scan", scan)
    for n in range(1, 10):
        seen.clear()
        assert check_theorem(n).passed
        orders = list(enumerate_uio(n))
        assert len(seen) == len(orders) == catalan(n)
        for u, listing in zip(orders, seen):
            assert listing == q_map(u)[0].entries, str(u)


def test_theorem_holds_on_the_objects():
    # the kernel's oracle, on its own: a(U) == zeta(p(U)) for every order
    for n in range(0, 9):
        for u in enumerate_uio(n):
            assert a_map(u) == zeta(p_map(u)), str(u)


def test_scan_equals_diagonal_reading():
    for n in range(0, 10):
        for word in enumerate_dyck(n):
            s = area_sequence_from_word(word)
            expected = area_sequence_from_word(zeta(word_from_area_sequence(s)))
            assert zeta_scan(s.entries) == expected.entries, str(s)


def test_corrupted_scan_is_reported_as_kernel_disagreement(monkeypatch):
    n, bad_rank = 5, 17
    bad = q_map(list(enumerate_uio(n))[bad_rank])[0].entries

    def scan(listing):
        out = zeta_scan(listing)
        return out[:-1] + (out[-1] + 1,) if listing == bad else out

    monkeypatch.setattr(harness, "zeta_scan", scan)
    report = check_theorem(n)
    assert report.instances_checked == catalan(n)
    (failure,) = report.failures
    assert failure.rank == bad_rank
    assert failure.equation == "kernel agrees with a_map, p_map and zeta"
    assert dict(failure.inputs)["q"] == ",".join(map(str, bad))
    assert failure.lhs != failure.rhs


@pytest.mark.parametrize("n, pred, good, bad", [
    (1, "0", (0,), (1,)),          # starts above 0
    (2, "0,1", (0, 1), (0, 2)),    # climbs by 2
])
def test_listing_that_is_no_area_sequence_is_reported(monkeypatch, n, pred, good, bad):
    # the scan of `bad` is a(U), so only the area-sequence check catches it
    real_insert = harness._insert

    def insert(cur, lv, p):
        grown, *rest = real_insert(cur, lv, p)
        return (bad if grown == good else grown, *rest)

    monkeypatch.setattr(harness, "_insert", insert)
    assert zeta_scan(bad) == zeta_scan(good)
    (failure,) = check_theorem(n).failures
    assert failure.rank == catalan(n) - 1
    assert failure.equation == "kernel agrees with a_map, p_map and zeta"
    assert dict(failure.inputs) == {"pred": pred, "q": ",".join(map(str, bad))}


def test_shards_restart_the_prefix_stack_at_any_rank():
    n = 5
    for lo in range(catalan(n)):
        assert harness._theorem_shard(n, lo, catalan(n)) == (catalan(n) - lo, [])


def test_two_shards_match_one(monkeypatch):
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    assert len(harness._shard_bounds(catalan(8), 2)) == 2
    lone = check_theorem(8, jobs=1)
    two = check_theorem(8, jobs=2)
    assert lone.instances_checked == two.instances_checked == catalan(8)
    assert lone.failures == two.failures
