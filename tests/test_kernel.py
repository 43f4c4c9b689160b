"""The sweeps' kernels against the object-level maps.

The theorem and induction sweeps share one kernel over extension pairs
(harness._extension_sweep): bytes listings, the insertion inlined, zeta
read by bytes.translate.  The bijections and grevlex sweeps read q(U) from
a prefix-sharing insertion walk (harness._walk) and apply zeta by
Haglund's scan (zeta.zeta_scan).  Each piece is checked here against an
independent computation: the listings against q_map, the readings and
scans against zeta's diagonal reading, the kernel's a-paths against
a_map, the induction kernel against the per-pair object body, and the
bijection images against a_map's rank alignment.  Fault tests patch the
names the harness looks up, or rewrite the kernel, whose steps have no
names (helpers.rewrite_kernel), and check the exact record each fault
yields; three mutations of the kernel must each be flagged.
"""

from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from dyckzeta import (
    AreaSequence,
    UnitIntervalOrder,
    ValidationError,
    a_inverse,
    a_map,
    area_sequence_from_word,
    catalan,
    check_bijections,
    check_grevlex,
    check_induction_step,
    check_theorem,
    enumerate_dyck,
    enumerate_uio,
    harness,
    p_map,
    parse_pred,
    q_map,
    word_from_area_sequence,
    zeta,
)
from dyckzeta.partlist import _insert_all
from dyckzeta.zeta import zeta_scan

from helpers import path_text, pred_vectors, read_zeta_by_scan, rewrite_kernel


def test_kernel_listings_equal_q_map(monkeypatch):
    seen = []

    def scan(listing):
        seen.append(listing)
        return zeta_scan(listing)

    monkeypatch.setattr(harness, "zeta_scan", scan)
    read_zeta_by_scan(monkeypatch)
    for n in range(1, 10):
        seen.clear()
        assert check_theorem(n).passed
        orders = list(enumerate_uio(n))
        assert len(seen) == len(orders) == catalan(n)
        for u, listing in zip(orders, seen):
            assert listing == q_map(u)[0].entries, str(u)


@given(st.lists(pred_vectors(max_n=8), max_size=12))
@example([parse_pred(text) for text in (
    "", "0,0,1", "0,0,1", "0", "0,1,1,2", "0,1", "0,0", "0,0,1,1", "0,0,2,2,2")])
def test_walk_over_any_stream_equals_insert_all(orders):
    # sizes 0..8 in any order, with repeats and shorter or empty vectors
    # (in the example, 0,0 changes a prefix that 0,0,1,1 then extends past
    # the shorter vector): every listing the walk holds for an order is the
    # insertion run of that prefix
    seen = []
    for u, listings in harness._walk(orders):
        seen.append(u)
        for i in range(u.n + 1):
            prefix = UnitIntervalOrder(u.pred[:i])
            assert listings[i] == _insert_all(prefix)[0], (str(u), i)
    assert seen == orders


def test_translate_reading_and_kernel_paths_equal_the_oracles(monkeypatch):
    # the theorem kernel reads zeta once per order, off q(U), and builds
    # a(U)'s path on its depth stack
    readings, paths = [], []
    rewrite_kernel(
        monkeypatch,
        {"readings[i + 1]": "_seen_reading(grown, readings[i + 1])",
         "path": "_seen_path(path)"},
        _seen_reading=lambda listing, reading: readings.append((listing, reading)),
        _seen_path=paths.append,
    )
    for n in range(1, 10):
        readings.clear()
        paths.clear()
        assert check_theorem(n).passed
        orders = list(enumerate_uio(n))
        assert len(readings) == len(paths) == len(orders)
        for u, (listing, reading), path in zip(orders, readings, paths):
            assert listing == bytes(q_map(u)[0].entries), str(u)
            assert reading == path_text(zeta_scan(listing)), str(u)
            assert reading.decode() == str(zeta(p_map(u))), str(u)
            assert path.decode() == str(a_map(u)), str(u)


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


def test_kernel_area_rule_is_area_sequences_rule():
    # on listings, whose entries are levels >= 0, the two rules agree
    for length in range(1, 6):
        for s in product(range(4), repeat=length):
            try:
                AreaSequence(s)
                accepted = True
            except ValidationError:
                accepted = False
            assert harness._is_area_sequence(s) == accepted, s


def test_corrupted_scan_is_reported_as_kernel_disagreement(monkeypatch):
    n, bad_rank = 5, 17
    bad = q_map(list(enumerate_uio(n))[bad_rank])[0].entries

    def scan(listing):
        out = zeta_scan(listing)
        return out[:-1] + (out[-1] + 1,) if listing == bad else out

    monkeypatch.setattr(harness, "zeta_scan", scan)
    read_zeta_by_scan(monkeypatch)
    report = check_theorem(n)
    assert report.instances_checked == catalan(n)
    (failure,) = report.failures
    assert failure.rank == bad_rank
    assert failure.equation == "kernel agrees with a_map, p_map and zeta"
    assert dict(failure.inputs)["q"] == ",".join(map(str, bad))
    assert failure.lhs != failure.rhs


def _insert_replacing(monkeypatch, good, bad=None, pos=None):
    """Make the harness's insertion return `bad` (or put the letter at `pos`)
    wherever it would grow the listing `good`: harness._insert, which the
    walk calls, and the kernel's inlined insertion."""
    real_insert = harness._insert

    def insert(cur, lv, p):
        grown, level, c, at = real_insert(cur, lv, p)
        if grown == good:
            return (grown if bad is None else bad), level, c, (at if pos is None else pos)
        return grown, level, c, at

    def grow(grown, at):
        if tuple(grown) == good:
            return (grown if bad is None else bytes(bad)), (at if pos is None else pos)
        return grown, at

    monkeypatch.setattr(harness, "_insert", insert)
    rewrite_kernel(monkeypatch, {"grown": "grown, pos = _grow(grown, pos)"}, _grow=grow)


@pytest.mark.parametrize("n, pred, good, bad", [
    (1, "0", (0,), (1,)),          # starts above 0
    (2, "0,1", (0, 1), (0, 2)),    # climbs by 2
])
def test_listing_that_is_no_area_sequence_is_reported(monkeypatch, n, pred, good, bad):
    # the scan of `bad` is a(U), so only the area-sequence check catches it
    _insert_replacing(monkeypatch, good, bad)
    read_zeta_by_scan(monkeypatch)
    assert zeta_scan(bad) == zeta_scan(good)
    (failure,) = check_theorem(n).failures
    assert failure.rank == catalan(n) - 1
    assert failure.equation == "kernel agrees with a_map, p_map and zeta"
    assert dict(failure.inputs) == {"pred": pred, "q": ",".join(map(str, bad))}


def test_wrong_listing_fails_the_grevlex_check(monkeypatch):
    # rank 5 (pred 0,0,1,2) gets q = 0,1,1,0 instead of its minimum 0,1,0,1
    _insert_replacing(monkeypatch, (0, 1, 0, 1), (0, 1, 1, 0))
    report = check_grevlex(4)
    assert report.instances_checked == catalan(4)
    (failure,) = report.failures
    assert failure.to_json_dict() == {
        "rank": 5,
        "inputs": {"pred": "0,0,1,2"},
        "equation": "grevlex_min_search(U) == q(U)",
        "lhs": "0,1,0,1",
        "rhs": "0,1,1,0",
    }


def test_shards_restart_the_prefix_stack_at_any_rank():
    n = 5
    for lo in range(catalan(n)):
        assert harness._theorem_shard(n, lo, catalan(n)) == (catalan(n) - lo, [])


@pytest.mark.parametrize("edits", [
    # the letter lands one place further right at depth 4, where it can
    {"lv[i]": "pos += i == 4 and pos < i"},
    # C_i one too small where it is at least 2
    {"c": "c -= c > 1"},
    # at depth 3, row 3's UP step comes before the RIGHT steps that should
    # lead to it
    {"paths[i + 1]": "if i == 3: paths[i + 1] = paths[i] + b'a' + b'b' * (p - pred[2])"},
])
def test_kernel_mutations_are_flagged(monkeypatch, edits):
    # the incremental area-sequence rule must also agree with the full one
    # on the listings a mutation spoils
    fits = []
    rewrite_kernel(
        monkeypatch,
        {**edits, "fits[i + 1]": "_seen_fit(fits[i], fits[i + 1], grown)"},
        _seen_fit=lambda before, fit, grown: fits.append(
            (fit, harness._is_area_sequence(grown) if before else fit)
        ),
    )
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    report = check_theorem(8)
    assert report.instances_checked == catalan(8)
    assert report.failures
    assert check_theorem(8, jobs=2).failures == report.failures
    for failure in report.failures:
        # flagged for a reading other than a(U)'s path, or for the listing
        assert failure.equation == "kernel agrees with a_map, p_map and zeta"
        listing = tuple(map(int, dict(failure.inputs)["q"].split(",")))
        assert failure.lhs != failure.rhs or not harness._is_area_sequence(listing)
    assert all(fit == full for fit, full in fits)


def test_two_shards_match_one(monkeypatch):
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    assert len(harness._shard_bounds(catalan(8), 2)) == 2
    lone = check_theorem(8, jobs=1)
    two = check_theorem(8, jobs=2)
    assert lone.instances_checked == two.instances_checked == catalan(8)
    assert lone.failures == two.failures


# -------------------------------------------------------------- induction

def test_induction_kernel_agrees_with_the_objects():
    # the object body, the kernel's re-check, on its own: no pair n <= 7 fails
    for n in range(1, 8):
        total = catalan(n + 1)
        assert harness._induction_shard(n, 0, total) == (total, [])
        pairs = list(harness._extension_pairs(n))
        assert len(pairs) == total
        for rank, (u, k) in enumerate(pairs):
            assert harness._induction_failures(rank, u, k) == [], (str(u), k)


@pytest.mark.parametrize("rank, k, big, bad, pos", [
    (0, 0, (0, 0), None, 0),       # letter reported at the first of two 0s
    (1, 1, (0, 1), (0, 2), None),  # grown listing climbs by 2
])
def test_induction_kernel_alone_catches(monkeypatch, rank, k, big, bad, pos):
    # every other identity still holds, so only the last-maximal-letter check
    # resp. the area-sequence check can flag the pair; the objects (q_map)
    # are not patched and find nothing
    _insert_replacing(monkeypatch, big, bad, pos)
    (failure,) = check_induction_step(1).failures
    assert failure.rank == rank
    assert failure.equation == "kernel agrees with q_map, p_map, a_map and zeta"
    assert dict(failure.inputs) == {
        "pred": "0", "k": str(k), "q": "0", "q_ext": ",".join(map(str, bad or big))
    }


def test_induction_kernel_catches_a_listing_that_is_no_insertion(monkeypatch):
    # q(extend(U, 2)) for U = 0,0 (rank 2) comes out as 0,1,1 instead of
    # 0,0,1, and the scan is made to accept it, so only "without the new
    # letter it is q(U)" flags rank 2; 0,1,1 is the listing of rank 3, whose
    # scan is now the one that is wrong
    _insert_replacing(monkeypatch, (0, 0, 1), (0, 1, 1))
    monkeypatch.setattr(
        harness, "zeta_scan", lambda s: zeta_scan((0, 0, 1) if s == (0, 1, 1) else s)
    )
    read_zeta_by_scan(monkeypatch)
    failures = check_induction_step(2).failures
    assert [f.rank for f in failures] == [2, 3]
    assert {f.equation for f in failures} == {
        "kernel agrees with q_map, p_map, a_map and zeta"
    }


def test_induction_kernel_checks_r_equals_s(monkeypatch):
    # s one too large for k = 0 leaves the listings and readings right, so
    # only r == s can flag those pairs
    rewrite_kernel(monkeypatch, {"(r, s)": "s += k == 0"})
    failures = check_induction_step(3).failures
    pairs = list(harness._extension_pairs(3))
    assert [f.rank for f in failures] == [r for r, (_, k) in enumerate(pairs) if k == 0]
    for failure in failures:
        assert failure.equation == "kernel agrees with q_map, p_map, a_map and zeta"
        assert " r=3 " in failure.lhs and failure.rhs.startswith("s=4 ")


def test_induction_shard_restarts_at_any_rank():
    n = 4
    total = catalan(n + 1)
    for lo in range(total):
        assert harness._induction_shard(n, lo, total) == (total - lo, [])


# ------------------------------------------------------------- bijections

def test_a_map_sends_order_ranks_to_dyck_ranks():
    # why the zeta images of the bijections sweep need no second enumeration
    for n in range(0, 10):
        assert [a_map(u) for u in enumerate_uio(n)] == list(enumerate_dyck(n))


def test_bijections_shard_restarts_at_any_rank():
    n = 5
    total = catalan(n)
    count, failures, *images = harness._bijections_shard(n, 0, total)
    assert (count, failures) == (total, [])
    for lo in range(total):
        assert harness._bijections_shard(n, lo, total) == (
            total - lo, [], *(column[lo:] for column in images)
        )


def _bijections_failure(monkeypatch):
    """The one failure of check_bijections(4), the same at jobs 1 and 2."""
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    lone = check_bijections(4, jobs=1)
    two = check_bijections(4, jobs=2)
    assert lone.instances_checked == two.instances_checked == catalan(4)
    assert lone.failures == two.failures
    (failure,) = lone.failures
    return failure


def _area(pred):
    return area_sequence_from_word(a_map(parse_pred(pred))).entries


def test_duplicated_zeta_image_is_reported(monkeypatch):
    # rank 9 (pred 0,1,1,1) gets the zeta image of rank 3 (pred 0,0,0,3)
    first, dup = _area("0,0,0,3"), _area("0,1,1,1")
    monkeypatch.setattr(
        harness, "zeta_scan", lambda s: zeta_scan(first if s == dup else s)
    )
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 9
    assert failure.equation == "zeta images pairwise distinct"
    assert dict(failure.inputs) == {"image": "aababbab"}
    assert (failure.lhs, failure.rhs) == ("rank 9", "already produced at rank 3")


def test_duplicated_q_image_is_reported(monkeypatch):
    # rank 10 (q = 0,1,2,1) gets the listing of rank 2 (q = 0,0,1,0)
    _insert_replacing(monkeypatch, (0, 1, 2, 1), (0, 0, 1, 0))
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 10
    assert failure.equation == "q images pairwise distinct"
    assert dict(failure.inputs) == {"image": "0,0,1,0"}
    assert (failure.lhs, failure.rhs) == ("rank 10", "already produced at rank 2")


def test_q_listing_that_is_no_area_sequence_is_reported(monkeypatch):
    # rank 5 (pred 0,0,1,2, q = 0,1,0,1) gets a listing that climbs by 2
    _insert_replacing(monkeypatch, (0, 1, 0, 1), (0, 1, 0, 2))
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 5
    assert failure.equation == "q(U) is a valid area sequence"
    assert dict(failure.inputs) == {"pred": "0,0,1,2", "q": "0,1,0,2"}
    assert failure.lhs == "0,1,0,2"
    assert failure.rhs == "entry 4 is 2, exceeding entry 3 + 1 = 1"


def test_a_inverse_mismatch_is_reported(monkeypatch):
    # a_inverse sends a(U) for U = 0,0,2,2 (rank 7) to 0,0,2,3
    word, wrong = a_map(parse_pred("0,0,2,2")), parse_pred("0,0,2,3")
    monkeypatch.setattr(
        harness, "a_inverse", lambda d: wrong if d == word else a_inverse(d)
    )
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 7
    assert failure.equation == "a_inverse(a(U)) == U"
    assert dict(failure.inputs) == {"pred": "0,0,2,2", "a_word": "aabbaabb"}
    assert (failure.lhs, failure.rhs) == ("0,0,2,3", "0,0,2,2")
