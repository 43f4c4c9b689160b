"""The sweeps' kernels against the object-level maps.

The theorem, induction and bijections sweeps read one stream of extension
pairs (harness._extension_children), which yields per child its bytes
listing, inserted inline, a's path, and zeta read by bytes.translate onto
the parent's prefix readings; each sweep is one consumer of it.  The
grevlex sweep reads q(U) from a prefix-sharing insertion walk
(harness._walk).  Each piece is checked here against an independent
computation: the stream's listings against q_map, its paths against
a_map, its readings against Haglund's scan (zeta.zeta_scan) and zeta's
diagonal reading, the induction consumer against the per-pair object body,
the bijections check's bytes inverse (harness._pred_of_path) against
a_inverse, and the walk's listings against the insertion run.  Fault tests
patch the names the harness looks up, wrap the stream to corrupt or watch
what it yields (helpers.wrap_children), or rewrite the insertion, whose
steps have no names (helpers.rewrite_kernel), and check the exact record
each fault yields; four mutations of the insertion must each be flagged.
"""

import zlib
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
    extend,
    harness,
    p_map,
    parse_pred,
    q_map,
    unrank_uio,
    word_from_area_sequence,
    zeta,
)
from dyckzeta import cli, partlist
from dyckzeta.partlist import _insert_all
from dyckzeta.zeta import _peak_parameters, zeta_scan

from helpers import (
    extension_pairs,
    path_text,
    pred_vectors,
    read_zeta_by_scan,
    rewrite_kernel,
    wrap_children,
)


def test_extension_children_equal_the_object_maps():
    # the stream on its own: each child's listing is q, an area sequence,
    # its path a, and its reading zeta of p
    for n in range(1, 9):
        children = list(harness._extension_children(n - 1, 0, catalan(n)))
        assert len(children) == catalan(n)
        for rank, u, k, _, grown, _, fit, path, reading, _, _ in children:
            assert unrank_uio(n, rank) == u.pred + (k,)
            child = extend(u, k)
            assert fit and grown == bytes(q_map(child)[0].entries), str(child)
            assert path.decode() == str(a_map(child)), str(child)
            assert reading.decode() == str(zeta(p_map(child))), str(child)


def test_kernel_listings_equal_q_map(monkeypatch):
    seen = []
    wrap_children(monkeypatch, lambda child: seen.append(child[4]) or child)
    for n in range(1, 10):
        seen.clear()
        assert check_theorem(n).passed
        orders = list(enumerate_uio(n))
        assert len(seen) == len(orders) == catalan(n)
        for u, listing in zip(orders, seen):
            assert listing == bytes(q_map(u)[0].entries), str(u)


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
    # the theorem sweep reads zeta once per order, off q(U) and its
    # parent's prefixes, and a(U)'s path, built on the stream's depth stack
    readings, paths = [], []

    def seen(child):
        readings.append((child[4], child[8]))
        paths.append(child[7])
        return child

    wrap_children(monkeypatch, seen)
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


def test_induction_kernel_reads_zeta_of_q_off_the_prefixes(monkeypatch):
    # the induction step takes zeta(q(U)) from the prefix reading that its
    # children reuse: diagonals 0..top, then diagonal top + 1, which holds
    # only q(U)'s largest letters top, read b; for every pair with n <= 8
    seen = []

    def zeta_q(child):
        _, u, _, cur, _, _, _, _, _, through, top = child
        seen.append((u, cur, through + b"b" * cur.count(top)))
        return child

    wrap_children(monkeypatch, zeta_q)
    for n in range(1, 9):
        seen.clear()
        assert check_induction_step(n).passed
        assert len(seen) == catalan(n + 1)
        for u, listing, reading in dict.fromkeys(seen):
            assert listing == bytes(q_map(u)[0].entries), str(u)
            assert reading == path_text(zeta_scan(listing)), str(u)
            assert reading.decode() == str(zeta(p_map(u))), str(u)


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

    read_zeta_by_scan(monkeypatch, scan)
    report = check_theorem(n)
    assert report.instances_checked == catalan(n)
    (failure,) = report.failures
    assert failure.rank == bad_rank
    assert failure.equation == "kernel agrees with a_map, p_map and zeta"
    assert dict(failure.inputs)["q"] == ",".join(map(str, bad))
    assert failure.lhs != failure.rhs


def _insert_replacing(monkeypatch, good, bad=None, pos=None, objects=False):
    """Make the harness's insertion return `bad` (or put the letter at `pos`)
    wherever it would grow the listing `good`: harness._insert, which the
    walk calls, and the kernel's inlined insertion; with `objects`, also
    partlist._insert, which q_map and p_map call."""
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
    if objects:
        monkeypatch.setattr(partlist, "_insert", insert)
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


@pytest.mark.parametrize("check, n, pred, good, bad, rhs", [
    (check_theorem, 1, "0", (0,), (1,), "entry 1 must be 0, got 1"),
    (check_theorem, 2, "0,1", (0, 1), (0, 2), "entry 2 is 2, exceeding entry 1 + 1 = 1"),
    (check_induction_step, 1, "0,1", (0, 1), (0, 2),
     "entry 2 is 2, exceeding entry 1 + 1 = 1"),
])
def test_objects_whose_q_is_no_area_sequence_give_a_counterexample(
    monkeypatch, check, n, pred, good, bad, rhs
):
    # the insertion goes wrong on the objects too, so q_map and p_map refuse
    # the listing: the re-check reports that as a failure of the last order
    # (the pair's child), not as an error of the run
    _insert_replacing(monkeypatch, good, bad, objects=True)
    with pytest.raises(ValidationError):
        q_map(parse_pred(pred))
    report = check(n)
    (failure,) = report.failures
    assert failure.to_json_dict() == {
        "rank": report.instances_checked - 1,
        "inputs": {"pred": pred, "q": ",".join(map(str, bad))},
        "equation": "q(U) is a valid area sequence",
        "lhs": ",".join(map(str, bad)),
        "rhs": rhs,
    }
    name = "theorem" if check is check_theorem else "induction"
    assert cli.main(["verify", "--check", name, "--n", str(n)]) == 1


def unanchored(rank, pred, rhs):
    return {"rank": rank, "inputs": {"pred": pred}, "equation": "q(U) is defined",
            "lhs": "no anchor", "rhs": rhs}


@pytest.mark.parametrize("check, n, records", [
    (check_induction_step, 2, [{
        "rank": 4, "inputs": {"pred": "0,1", "q": "0,2"},
        "equation": "q(U) is a valid area sequence", "lhs": "0,2",
        "rhs": "entry 2 is 2, exceeding entry 1 + 1 = 1",
    }]),
    (check_theorem, 3, [
        unanchored(4, "0,1,2", "need 1 occurrences of 1, found only 0"),
    ]),
    (check_theorem, 4, [
        unanchored(11, "0,1,1,3", "need 2 occurrences of 1, found only 1"),
        unanchored(12, "0,1,2,2", "need 1 occurrences of 1, found only 0"),
        unanchored(13, "0,1,2,3", "need 1 occurrences of 1, found only 0"),
    ]),
    (check_bijections, 4, [
        unanchored(11, "0,1,1,3", "need 2 occurrences of 1, found only 1"),
        unanchored(12, "0,1,2,2", "need 1 occurrences of 1, found only 0"),
        unanchored(13, "0,1,2,3", "need 1 occurrences of 1, found only 0"),
    ]),
])
def test_listing_corrupted_at_a_parent_depth_is_reported_not_raised(
    monkeypatch, check, n, records
):
    # partlist._insert and the kernel both send 0,1 to 0,2, so a later
    # insertion, in a child or (theorem and bijections at n = 4) in the
    # parent 0,1,2, finds no letter 1 to anchor on, in the kernel and in the
    # objects' _insertion_point; those pairs end the sweep and are recorded
    # as the objects' failures: the induction re-check first finds q(0,1)
    # invalid.  An order without a listing has no images, so it adds no
    # duplicate-image record
    _insert_replacing(monkeypatch, (0, 1), (0, 2), objects=True)
    report = check(n)
    assert report.instances_checked == catalan(n + (check is check_induction_step))
    assert [f.to_json_dict() for f in report.failures[-len(records):]] == records
    name = {check_theorem: "theorem", check_induction_step: "induction",
            check_bijections: "bijections"}[check]
    assert cli.main(["verify", "--check", name, "--n", str(n)]) == 1


def test_unanchored_kernel_insertion_is_a_kernel_disagreement(monkeypatch):
    # only the kernel sends 0,1 to 0,2, so the objects confirm nothing: the
    # parents 0,1,2,2 and 0,1,2,3 find no anchor at depth 2, and the second
    # re-inserts from there instead of reusing the stack the first left
    _insert_replacing(monkeypatch, (0, 1), (0, 2))
    failures = check_theorem(5).failures
    assert [(f.rank, f.inputs, f.lhs, f.rhs) for f in failures[-5:]] == [
        (rank, (("pred", pred), ("k", str(k))), "no anchor in 0,2", q)
        for rank, pred, k, q in [
            (37, "0,1,2,2", 2, "0,1,2,2,2"), (38, "0,1,2,2", 3, "0,1,2,3,2"),
            (39, "0,1,2,2", 4, "0,1,2,2,3"), (40, "0,1,2,3", 3, "0,1,2,3,3"),
            (41, "0,1,2,3", 4, "0,1,2,3,4"),
        ]
    ]
    assert {f.equation for f in failures[-5:]} == {
        "kernel finds every insertion's anchor"
    }


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
    {"grown": "pos += i == 4 and pos < i\ngrown = cur[:pos] + letters[level] + cur[pos:]"},
    # C_i one too small where it is at least 2
    {"c": "c -= c > 1"},
    # at depth 3, row 3's UP step comes before the RIGHT steps that should
    # lead to it
    {"row": "if i == 3: row = path_i + b'a' + b'b' * (p - pred[2])"},
    # a child whose letter equals its parent's largest letter reads the
    # parent's prefix one diagonal too far
    {"head": "if i == m: head = through"},
])
def test_kernel_mutations_are_flagged(monkeypatch, edits):
    # the incremental area-sequence rule must also agree with the full one
    # on the listings a mutation spoils
    fits = []
    rewrite_kernel(
        monkeypatch,
        {**edits, "grown_fit": "_seen_fit(fit, grown_fit, grown)"},
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
        pairs = extension_pairs(n)
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
    read_zeta_by_scan(monkeypatch, lambda s: zeta_scan((0, 0, 1) if s == (0, 1, 1) else s))
    failures = check_induction_step(2).failures
    assert [f.rank for f in failures] == [2, 3]
    assert {f.equation for f in failures} == {
        "kernel agrees with q_map, p_map, a_map and zeta"
    }


def test_induction_kernel_checks_r_equals_s(monkeypatch):
    # s one too large for k = 0 leaves the listings and readings right, so
    # only r == s can flag those pairs; the objects' re-check reads the same
    # s, and reports r == s and the peak that a(U) gains after s steps
    def peak_parameters(small, big, pos, k):
        r, s = _peak_parameters(small, big, pos, k)
        return r, s + (k == 0)

    monkeypatch.setattr(harness, "_peak_parameters", peak_parameters)
    failures = check_induction_step(3).failures
    pairs = extension_pairs(3)
    flagged = [r for r, (_, k) in enumerate(pairs) if k == 0]
    assert [f.rank for f in failures] == [r for r in flagged for _ in range(2)]
    assert [(f.equation, f.lhs, f.rhs) for f in failures if f.rank == flagged[0]] == [
        ("a(extend(U,k)) == add_final_peak(a(U), s)", "aaaabbbb",
         "unrealizable: cannot place a final peak before 4 trailing right steps: "
         "path has only 3"),
        ("r == s", "3", "4"),
    ]


def test_induction_shard_restarts_at_any_rank():
    n = 4
    total = catalan(n + 1)
    for lo in range(total):
        assert harness._induction_shard(n, lo, total) == (total - lo, [])


# ------------------------------------------------------------- bijections

def test_a_map_sends_order_ranks_to_dyck_ranks():
    # the two enumerations line up: the order of rank r has the Dyck path
    # of rank r as its a-path
    for n in range(0, 10):
        assert [a_map(u) for u in enumerate_uio(n)] == list(enumerate_dyck(n))


def _bitmaps(result):
    return [int.from_bytes(zlib.decompress(b), "little") for b in result[2]]


def test_bijections_shard_restarts_at_any_rank():
    # the bitmaps of the shards (0, lo) and (lo, total) are disjoint and OR
    # to those of (0, total)
    n = 5
    total = catalan(n)
    whole = harness._bijections_shard(n, 0, total)
    assert (whole[0], whole[1], whole[3]) == (total, [], set())
    assert [bitmap.bit_count() for bitmap in _bitmaps(whole)] == [total] * 3
    for lo in range(total):
        head = harness._bijections_shard(n, 0, lo)
        tail = harness._bijections_shard(n, lo, total)
        assert (tail[0], tail[1], tail[3]) == (total - lo, [], set())
        for first, second, both in zip(_bitmaps(head), _bitmaps(tail), _bitmaps(whole)):
            assert first & second == 0
            assert first | second == both


def _bijections_failures(monkeypatch):
    """The failures of check_bijections(4), the same at jobs 1 and 2, and
    at jobs 2 with the parent's AND one byte at a time (8 windows)."""
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    lone = check_bijections(4, jobs=1)
    two = check_bijections(4, jobs=2)
    monkeypatch.setattr(harness, "BITMAP_WINDOW", 1)
    windowed = check_bijections(4, jobs=2)
    assert lone.instances_checked == two.instances_checked == catalan(4)
    assert lone.failures == two.failures == windowed.failures
    return lone.failures


def _bijections_failure(monkeypatch):
    """The one failure of check_bijections(4), the same at jobs 1 and 2."""
    (failure,) = _bijections_failures(monkeypatch)
    return failure


def _no_path(rank, pred, q, reading):
    """The record of a zeta reading that is no Dyck path of size 4."""
    return harness.Failure(rank, (("pred", pred), ("q", q)), "zeta(p(U)) is a Dyck path",
                           reading, "no Dyck path of size 4")


def test_duplicated_zeta_image_is_reported(monkeypatch):
    # rank 9 (pred 0,1,1,1) gets the zeta image zeta(p(U)) of rank 3
    # (pred 0,0,0,3)
    first = str(zeta(p_map(parse_pred("0,0,0,3")))).encode()
    wrap_children(monkeypatch, lambda child: (
        child[:8] + (first,) + child[9:] if child[0] == 9 else child))
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 9
    assert failure.equation == "zeta images pairwise distinct"
    assert dict(failure.inputs) == {"image": "aaabbbab"}
    assert (failure.lhs, failure.rhs) == ("rank 9", "already produced at rank 3")


def test_duplicated_q_image_is_reported(monkeypatch):
    # rank 10 (q = 0,1,2,1) gets the listing of rank 2 (q = 0,0,1,0); the
    # reading, which reuses the parent's prefix readings, is then no path
    _insert_replacing(monkeypatch, (0, 1, 2, 1), (0, 0, 1, 0))
    no_path, failure = _bijections_failures(monkeypatch)
    assert no_path == _no_path(10, "0,1,1,2", "0,0,1,0", "abaab")
    assert failure.rank == 10
    assert failure.equation == "q images pairwise distinct"
    assert dict(failure.inputs) == {"image": "0,0,1,0"}
    assert (failure.lhs, failure.rhs) == ("rank 10", "already produced at rank 2")


def test_q_listing_that_is_no_area_sequence_is_reported(monkeypatch):
    # rank 5 (pred 0,0,1,2, q = 0,1,0,1) gets a listing that climbs by 2,
    # and its reading is then no path
    _insert_replacing(monkeypatch, (0, 1, 0, 1), (0, 1, 0, 2))
    failure, no_path = _bijections_failures(monkeypatch)
    assert no_path == _no_path(5, "0,0,1,2", "0,1,0,2", "aababb")
    assert failure.rank == 5
    assert failure.equation == "q(U) is a valid area sequence"
    assert dict(failure.inputs) == {"pred": "0,0,1,2", "q": "0,1,0,2"}
    assert failure.lhs == "0,1,0,2"
    assert failure.rhs == "entry 4 is 2, exceeding entry 3 + 1 = 1"


def _read_pred_wrong(monkeypatch, path, wrong):
    """Make the bytes inverse send `path` to `wrong`."""
    inner = harness._pred_of_path
    monkeypatch.setattr(harness, "_pred_of_path",
                        lambda p, n: wrong if p == path else inner(p, n))


def test_a_inverse_mismatch_is_reported(monkeypatch):
    # the bytes inverse and a_inverse both send a(U) for U = 0,0,2,2
    # (rank 7) to 0,0,2,3
    word, wrong = a_map(parse_pred("0,0,2,2")), parse_pred("0,0,2,3")
    _read_pred_wrong(monkeypatch, str(word).encode(), wrong.pred)
    monkeypatch.setattr(
        harness, "a_inverse", lambda d: wrong if d == word else a_inverse(d)
    )
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 7
    assert failure.equation == "a_inverse(a(U)) == U"
    assert dict(failure.inputs) == {"pred": "0,0,2,2", "a_word": "aabbaabb"}
    assert (failure.lhs, failure.rhs) == ("0,0,2,3", "0,0,2,2")


def test_bytes_inverse_the_objects_do_not_confirm_is_a_kernel_disagreement(monkeypatch):
    _read_pred_wrong(monkeypatch, b"aabbaabb", (0, 0, 2, 3))
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 7
    assert failure.equation == "kernel agrees with a_map and a_inverse"
    assert dict(failure.inputs) == {"pred": "0,0,2,2", "a_path": "aabbaabb"}
    assert (failure.lhs, failure.rhs) == ("0,0,2,3", "0,0,2,2")


def test_a_path_the_bytes_inverse_refuses_is_a_kernel_disagreement(monkeypatch):
    # rank 7's path loses its last step: the bytes inverse refuses it, and
    # the short image, no path, is not marked
    wrap_children(monkeypatch, lambda child: (
        child[:7] + (child[7][:-1],) + child[8:] if child[0] == 7 else child))
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 7
    assert failure.equation == "kernel agrees with a_map and a_inverse"
    assert dict(failure.inputs) == {"pred": "0,0,2,2", "a_path": "aabbaab"}
    assert (failure.lhs, failure.rhs) == ("no order", "0,0,2,2")


def test_pred_of_path_inverts_every_path():
    for n in range(0, 10):
        for word in enumerate_dyck(n):
            assert harness._pred_of_path(str(word).encode(), n) == a_inverse(word).pred
    # a path of the wrong length, with another count of a's, or with a
    # byte other than a and b is refused
    for path, n in [(b"aabbab", 4), (b"aabbabb", 3), (b"aabbaabb", 3),
                    (b"aaabab", 3), (b"abbbab", 3), (b"aabcab", 3), (b"", 1)]:
        assert harness._pred_of_path(path, n) is None, path


def _reading_at(ranks, reading):
    return lambda child: child[:8] + (reading,) + child[9:] if child[0] in ranks else child


def test_duplicated_zeta_image_within_one_shard_is_reported(monkeypatch):
    # at jobs = 2 the shards hold ranks 0..6 and 7..13; rank 12 (pred
    # 0,1,2,2) gets the zeta image of rank 10 (pred 0,1,1,2)
    wrap_children(monkeypatch, _reading_at({12}, b"abaababb"))
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 12
    assert failure.equation == "zeta images pairwise distinct"
    assert dict(failure.inputs) == {"image": "abaababb"}
    assert (failure.lhs, failure.rhs) == ("rank 12", "already produced at rank 10")


def test_zeta_reading_of_another_shape_repeats_no_image(monkeypatch):
    # rank 9 (pred 0,1,1,1) gets rank 3's reading aaabbbab with its first
    # and last steps swapped: its middle steps are rank 3's, but it is no
    # path, so it is reported as such and not marked
    wrap_children(monkeypatch, _reading_at({9}, b"baabbbaa"))
    failure = _bijections_failure(monkeypatch)
    assert failure == _no_path(9, "0,1,1,1", "0,1,1,1", "baabbbaa")


def test_zeta_readings_of_another_shape_are_each_reported(monkeypatch):
    # ranks 3 and 9 both get the reading one step short, aaabbba: two
    # records, and no repeat
    wrap_children(monkeypatch, _reading_at({3, 9}, b"aaabbba"))
    assert _bijections_failures(monkeypatch) == (
        _no_path(3, "0,0,0,3", "0,0,0,1", "aaabbba"),
        _no_path(9, "0,1,1,1", "0,1,1,1", "aaabbba"),
    )
