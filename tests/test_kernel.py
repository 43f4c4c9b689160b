"""The sweeps' kernels against the object-level maps.

The four sweeps read one stream of extension pairs
(harness._extension_children), which yields per child its bytes listing,
inserted inline, a's path, and zeta read by bytes.translate onto the
parent's prefix readings; each sweep is one consumer of it, and the
grevlex sweep holds the stream's listings against partlist.grevlex_min.
`dyckzeta map --name p|q|unzeta` reads q(U) from a prefix-sharing
insertion walk (partlist._walk).  Each piece is checked here against an
independent computation: the stream's listings against q_map, its paths
against a_map, its readings against Haglund's scan (zeta.zeta_scan) and
zeta's diagonal reading, the induction consumer against the per-pair
object body, the CLI's bytes inverse of a word line (cli._pred_of_word)
against a_inverse, the bijections check's integer a-check
(harness._is_a_path) against the vector _pred_of_word reads, its q check
(harness._extends_listing) against every other insertion into the
parent's listing and its count against the induction step's r, its
un-scan (harness._unscan) against Haglund's scan, and the walk's listings
against the insertion run.
Fault tests patch the names the code looks up, wrap the stream to
corrupt or watch what it yields (helpers.wrap_children), or rewrite the
insertion, whose steps have no names (helpers.rewrite_kernel), and check
the exact record each fault yields: a fault the objects share gets the
objects' equation, and one of the kernel alone gets the one kernel record
(harness._kernel_failure) in every sweep that flags it.  Four mutations of
the insertion must each be flagged, and the two that change listings flag
the same orders in the grevlex sweep as in the theorem sweep.  The
library checks default to one job, run in this process, so a wrapper that
records the stream sees all of it; only verify in the CLI defaults to the
usable CPUs.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from dyckzeta import (
    AreaSequence,
    PreconditionError,
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
    parse_word,
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
        for rank, u, k, _, grown, _, fit, path, reading, _ in children:
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
    # the shorter vector): the walk gives each vector its own insertion run
    listings = list(partlist._walk(u.pred for u in orders))
    assert listings == [_insert_all(u)[0] for u in orders]


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
        _, u, _, cur, _, _, _, _, _, through = child
        seen.append((u, cur, through + b"b" * cur.count(max(cur))))
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


#: the equation of the one record of the kernel disagreeing with the objects
KERNEL = "kernel agrees with q_map, a_map and zeta(p_map)"


def _differs(failure):
    """The fields of a kernel record whose sides differ: field -> (the
    stream's value, the objects' value)."""
    assert failure.equation == KERNEL, failure
    stream, objects = (dict(field.split("=") for field in side.split())
                       for side in (failure.lhs, failure.rhs))
    return {key: (stream[key], value) for key, value in objects.items()
            if stream[key] != value}


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
    assert failure.lhs.startswith("q=" + ",".join(map(str, bad)) + " ")
    assert list(_differs(failure)) == ["zeta"]


def test_kernel_record_escapes_bytes_other_than_a_and_b(monkeypatch):
    # a reading may carry a letter the translate tables pass through: rank
    # 3's reading ends in the bytes 2 and 0xc8, and the record of it, as
    # text and as JSON, is printable ASCII with those bytes as \xNN
    wrap_children(monkeypatch, lambda child: (
        child[:8] + (child[8] + b"\x02\xc8",) + child[9:] if child[0] == 3 else child))
    report = check_theorem(4)
    (failure,) = report.failures
    assert failure.rank == 3
    assert _differs(failure) == {"zeta": ("aaabbbab\\x02\\xc8", "aaabbbab")}
    for text in (*report.render_text().splitlines(), json.dumps(report.to_json_dict())):
        assert text.isascii() and text.isprintable(), text


def _insert_replacing(monkeypatch, good, bad=None, pos=None, objects=False):
    """Make the kernel's inlined insertion return `bad` (or put the letter
    at `pos`) wherever it would grow the listing `good`; with `objects`,
    also partlist._insert, which q_map and p_map call."""
    real_insert = partlist._insert

    def insert(cur, lv, p):
        grown, level, c, at = real_insert(cur, lv, p)
        if grown == good:
            return (grown if bad is None else bad), level, c, (at if pos is None else pos)
        return grown, level, c, at

    def grow(grown, at):
        if tuple(grown) == good:
            return (grown if bad is None else bytes(bad)), (at if pos is None else pos)
        return grown, at

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
    parent, _, k = pred.rpartition(",")
    assert dict(failure.inputs) == {"pred": parent, "k": k}
    assert _differs(failure) == {"q": tuple(",".join(map(str, w)) for w in (bad, good))}


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
    assert [(f.rank, f.inputs, f.lhs, f.rhs.split()[0]) for f in failures[-5:]] == [
        (rank, (("pred", pred), ("k", str(k))), "no anchor in 0,2", "q=" + q)
        for rank, pred, k, q in [
            (37, "0,1,2,2", 2, "0,1,2,2,2"), (38, "0,1,2,2", 3, "0,1,2,3,2"),
            (39, "0,1,2,2", 4, "0,1,2,2,3"), (40, "0,1,2,3", 3, "0,1,2,3,3"),
            (41, "0,1,2,3", 4, "0,1,2,3,4"),
        ]
    ]
    assert {f.equation for f in failures[-5:]} == {KERNEL}
    assert failures[-1].rhs == "q=0,1,2,3,4 pos=4 a=ababababab zeta=ababababab"


def test_grevlex_reports_an_unanchored_kernel_insertion_as_the_theorem_does(monkeypatch):
    # only the kernel sends 0,1 to 0,2: the children it leaves without a
    # listing get the theorem's records, and the grevlex sweep flags the
    # same orders as the theorem
    _insert_replacing(monkeypatch, (0, 1), (0, 2))
    grevlex, theorem = check_grevlex(5).failures, check_theorem(5).failures
    assert [f.rank for f in grevlex] == [f.rank for f in theorem]
    assert {f.equation for f in grevlex + theorem} == {KERNEL}
    records = [f for f in grevlex if f.lhs.startswith("no anchor in ")]
    assert records == [f for f in theorem if f.lhs.startswith("no anchor in ")]
    assert [f.rank for f in records] == [31, *range(33, 42)]


def test_wrong_listing_fails_the_grevlex_check(monkeypatch):
    # rank 5 (pred 0,0,1,2) gets q = 0,1,1,0 instead of its minimum 0,1,0,1:
    # from the kernel alone a kernel record, from the objects too the
    # objects' equation
    _insert_replacing(monkeypatch, (0, 1, 0, 1), (0, 1, 1, 0))
    (failure,) = check_grevlex(4).failures
    assert (failure.rank, failure.inputs) == (5, (("pred", "0,0,1"), ("k", "2")))
    assert _differs(failure) == {
        "q": ("0,1,1,0", "0,1,0,1"), "zeta": ("aabaabbb", "aabababb")}
    _insert_replacing(monkeypatch, (0, 1, 0, 1), (0, 1, 1, 0), objects=True)
    report = check_grevlex(4)
    assert report.instances_checked == catalan(4)
    (failure,) = report.failures
    assert failure.to_json_dict() == {
        "rank": 5,
        "inputs": {"pred": "0,0,1,2"},
        "equation": "grevlex_min(U) == q(U)",
        "lhs": "0,1,0,1",
        "rhs": "0,1,1,0",
    }


def test_shards_restart_the_prefix_stack_at_any_rank():
    n = 5
    for lo in range(catalan(n)):
        assert harness._theorem_shard(n, lo, catalan(n)) == (catalan(n) - lo, [])


def test_successor_changes_the_vector_from_its_last_run_on():
    # the stream re-inserts a parent from the first entry of its last run:
    # enumerate_uio's successor keeps every entry before it
    for n in range(1, 11):
        preds = [u.pred for u in enumerate_uio(n)]
        for before, after in zip(preds, preds[1:]):
            first = next(j for j, (x, y) in enumerate(zip(before, after)) if x != y)
            assert first == after.index(after[-1]), (before, after)


def test_parents_after_an_unanchored_insertion_reinsert_their_listings(monkeypatch):
    # make each parent of size 5, in turn, find no anchor at each depth i
    # of its changed suffix whose element has a predecessor: its children
    # get no listing, and every later parent, even one whose changed suffix
    # starts past i, still yields q_map's listings, not the stale stack's
    where = [None]
    rewrite_kernel(monkeypatch, {"c": "c += 99 * (where[0] == (pred, i))"}, where=where)
    children = extension_pairs(5)
    for u in enumerate_uio(5):
        for i in range(u.pred.index(u.pred[-1]), 5):
            if not u.pred[i]:
                continue
            where[0] = (u.pred, i)
            stream = list(harness._extension_children(5, 0, len(children)))
            assert [(v, k) for _, v, k, *_ in stream] == children
            for _, v, k, _, grown, *_ in stream:
                if v == u:
                    assert grown is None
                else:
                    assert grown == bytes(q_map(extend(v, k))[0].entries), (u, i, v, k)


def test_stream_positions_are_the_insertions_last():
    # the siblings' shared anchor walk puts each new letter where the
    # insertion run of the child on its own puts it
    for n in range(1, 10):
        for _, u, k, _, grown, pos, *_ in harness._extension_children(
                n - 1, 0, catalan(n)):
            listing, _, _, positions = _insert_all(extend(u, k))
            assert (grown, pos) == (bytes(listing), positions[-1]), (str(u), k)


def test_anchor_walk_agrees_with_a_fresh_one_for_any_c(monkeypatch):
    # siblings of one level walk on from the last anchor while C rises; with
    # C swapped pairwise (1, 2, 3, 4 -> 2, 1, 4, 3) it also falls, and each
    # insertion must still land where a walk from the start puts it, or
    # find no anchor where that walk finds none
    seen = []
    rewrite_kernel(monkeypatch, {
        "c": "c = c + 1 if c % 2 else c - 1\n_seen.append([cur, level, c, None])",
        "grown": "if p: _seen[-1][3] = pos",
    }, _seen=seen)
    for n in range(1, 9):
        for _ in harness._extension_children(n - 1, 0, catalan(n)):
            pass
    assert any(pos is None for *_, pos in seen)
    for cur, level, c, pos in seen:
        if pos is None:
            with pytest.raises(PreconditionError):
                partlist._insertion_point(cur, level, c)
        else:
            assert pos == partlist._insertion_point(cur, level, c), (cur, level, c)


_MUTATIONS = [
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
]


@pytest.mark.parametrize("edits", _MUTATIONS)
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
        # the objects find nothing wrong, and the stream differs from them
        assert _differs(failure), failure
    assert all(fit == full for fit, full in fits)


@pytest.mark.parametrize("edits, listings", zip(_MUTATIONS, (True, True, False, False)),
                         ids=["grown", "c", "row", "head"])
def test_grevlex_flags_the_orders_a_listing_mutation_flags(monkeypatch, edits, listings):
    # the grevlex sweep reads the stream's listings: a mutation that changes
    # them (20/66/218/731 and 26/100/365/1302 orders at n = 5..8) is
    # flagged there on exactly the orders the theorem flags, and one that
    # changes only a path or a reading is not
    rewrite_kernel(monkeypatch, edits)
    for n in range(5, 9):
        theorem = sorted({f.rank for f in check_theorem(n).failures})
        assert theorem
        report = check_grevlex(n)
        assert report.instances_checked == catalan(n)
        assert [f.rank for f in report.failures] == (theorem if listings else [])


@pytest.mark.parametrize("edits", _MUTATIONS, ids=["grown", "c", "row", "head"])
def test_bijections_flag_the_orders_each_mutation_flags(monkeypatch, edits):
    # each order is checked on its own, so the bijections sweep flags at
    # n = 8 exactly the theorem's 731, 1302, 645 and 671 orders, and gives
    # the same report at jobs 1 and 2: no mutation depends on the rank
    rewrite_kernel(monkeypatch, edits)
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    theorem = sorted({f.rank for f in check_theorem(8).failures})
    report = check_bijections(8)
    assert report.instances_checked == catalan(8)
    assert sorted({f.rank for f in report.failures}) == theorem
    assert check_bijections(8, jobs=2).failures == report.failures


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
    assert dict(failure.inputs) == {"pred": "0", "k": str(k)}
    # (the stream reads 0,2's diagonal 1 through a table that has no letter
    # 2, and the record escapes the byte 2 it passes through)
    assert _differs(failure) == ({"q": ("0,2", "0,1"), "zeta": ("ab\\x02", "abab")}
                                 if bad else {"pos": ("0", "1")})


def test_induction_kernel_catches_a_listing_that_is_no_insertion(monkeypatch):
    # q(extend(U, 2)) for U = 0,0 (rank 2) comes out as 0,1,1 instead of
    # 0,0,1, and the scan is made to accept it, so only "without the new
    # letter it is q(U)" flags rank 2; 0,1,1 is the listing of rank 3, whose
    # scan is now the one that is wrong
    _insert_replacing(monkeypatch, (0, 0, 1), (0, 1, 1))
    read_zeta_by_scan(monkeypatch, lambda s: zeta_scan((0, 0, 1) if s == (0, 1, 1) else s))
    failures = check_induction_step(2).failures
    assert [f.rank for f in failures] == [2, 3]
    assert [_differs(f) for f in failures] == [
        {"q": ("0,1,1", "0,0,1")}, {"zeta": ("aabbab", "abaabb")}]


def test_q_check_count_is_the_induction_steps_n_minus_r():
    # on every pair with 1 <= n <= 8 (6 916 pairs), of the counts 0..n + 1
    # the q check accepts only n - r, so in the induction sweep it holds iff
    # r == s = n - k
    for n in range(1, 9):
        for _, u, k, cur, grown, pos, *_ in harness._extension_children(
                n, 0, catalan(n + 1)):
            r, s = _peak_parameters(cur, grown, pos, k)
            accepted = [count for count in range(n + 2)
                        if harness._extends_listing(cur, max(cur), grown, pos, count)]
            assert accepted == [n - r] and r == s, (str(u), k)


def test_induction_objects_check_r_equals_s(monkeypatch):
    # s one too large for k = 0 leaves the listings and readings right: the
    # objects' re-check reports r == s and the peak that a(U) gains after s
    # steps, while the sweep, which reads r == s off the q check's count,
    # does not call _peak_parameters and passes
    def peak_parameters(small, big, pos, k):
        r, s = _peak_parameters(small, big, pos, k)
        return r, s + (k == 0)

    monkeypatch.setattr(harness, "_peak_parameters", peak_parameters)
    pairs = extension_pairs(3)
    failures = [f for rank, (u, k) in enumerate(pairs)
                for f in harness._induction_failures(rank, u, k)]
    flagged = [r for r, (_, k) in enumerate(pairs) if k == 0]
    assert [f.rank for f in failures] == [r for r in flagged for _ in range(2)]
    assert [(f.equation, f.lhs, f.rhs) for f in failures if f.rank == flagged[0]] == [
        ("a(extend(U,k)) == add_final_peak(a(U), s)", "aaaabbbb",
         "unrealizable: cannot place a final peak before 4 trailing right steps: "
         "path has only 3"),
        ("r == s", "3", "4"),
    ]
    assert check_induction_step(3).passed


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


def test_bijections_shard_restarts_at_any_rank(monkeypatch):
    # the shards (0, lo) and (lo, total) split the records of (0, total),
    # on a correct kernel (none) and under a mutation that spoils listings
    n = 5
    total = catalan(n)
    for edits in ({}, _MUTATIONS[0]):
        rewrite_kernel(monkeypatch, edits)
        whole = harness._bijections_shard(n, 0, total)
        assert whole[0] == total and bool(whole[1]) == bool(edits)
        for lo in range(total):
            head = harness._bijections_shard(n, 0, lo)
            tail = harness._bijections_shard(n, lo, total)
            assert (head[0], tail[0]) == (lo, total - lo)
            assert head[1] + tail[1] == whole[1]


def _bijections_failures(monkeypatch):
    """The failures of check_bijections(4), the same at jobs 1 and 2."""
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    lone = check_bijections(4, jobs=1)
    two = check_bijections(4, jobs=2)
    assert lone.instances_checked == two.instances_checked == catalan(4)
    assert lone.failures == two.failures
    return lone.failures


def _bijections_failure(monkeypatch):
    """The one failure of check_bijections(4), the same at jobs 1 and 2."""
    (failure,) = _bijections_failures(monkeypatch)
    return failure


def test_duplicated_zeta_image_is_reported(monkeypatch):
    # rank 9 (pred 0,1,1,1) gets the zeta image zeta(p(U)) of rank 3
    # (pred 0,0,0,3), a Dyck path that un-scans to rank 3's listing; the
    # objects find nothing wrong
    first = str(zeta(p_map(parse_pred("0,0,0,3")))).encode()
    wrap_children(monkeypatch, lambda child: (
        child[:8] + (first,) + child[9:] if child[0] == 9 else child))
    failure = _bijections_failure(monkeypatch)
    assert (failure.rank, failure.inputs) == (9, (("pred", "0,1,1"), ("k", "1")))
    assert _differs(failure) == {"zeta": (first.decode(), "abaaabbb")}


def test_duplicated_q_image_is_reported(monkeypatch):
    # rank 10 (q = 0,1,2,1) gets the listing of rank 2 (q = 0,0,1,0), which
    # is no insertion into its parent's 0,1,1; from the kernel alone its
    # reading, which reuses the parent's prefix readings, is then no path,
    # and the one record shows both
    _insert_replacing(monkeypatch, (0, 1, 2, 1), (0, 0, 1, 0))
    failure = _bijections_failure(monkeypatch)
    assert (failure.rank, failure.inputs) == (10, (("pred", "0,1,1"), ("k", "2")))
    assert _differs(failure) == {"q": ("0,0,1,0", "0,1,2,1"), "zeta": ("abaab", "abaababb")}
    # from the objects too, q(U) has another poset
    _insert_replacing(monkeypatch, (0, 1, 2, 1), (0, 0, 1, 0), objects=True)
    assert _bijections_failure(monkeypatch) == harness.Failure(
        10, (("pred", "0,1,1,2"), ("q", "0,0,1,0")), "the poset of q(U) is U",
        "0,0,0,2", "0,1,1,2")


def test_q_listing_that_is_no_area_sequence_is_reported(monkeypatch):
    # rank 5 (pred 0,0,1,2, q = 0,1,0,1) gets a listing that climbs by 2:
    # from the kernel alone a kernel record, from the objects too the
    # objects' refusal
    _insert_replacing(monkeypatch, (0, 1, 0, 1), (0, 1, 0, 2))
    failure = _bijections_failure(monkeypatch)
    assert (failure.rank, failure.inputs) == (5, (("pred", "0,0,1"), ("k", "2")))
    assert _differs(failure) == {"q": ("0,1,0,2", "0,1,0,1"), "zeta": ("aababb", "aabababb")}
    _insert_replacing(monkeypatch, (0, 1, 0, 1), (0, 1, 0, 2), objects=True)
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 5
    assert failure.equation == "q(U) is a valid area sequence"
    assert dict(failure.inputs) == {"pred": "0,0,1,2", "q": "0,1,0,2"}
    assert failure.lhs == "0,1,0,2"
    assert failure.rhs == "entry 4 is 2, exceeding entry 3 + 1 = 1"


def _lift(child):
    """The child with grown's last letter raised by 2 at ranks 3 mod 7, its
    fit left as it was."""
    grown = child[4]
    if grown is None or child[0] % 7 != 3:
        return child
    return child[:4] + (grown[:-1] + bytes((grown[-1] + 2,)),) + child[5:]


def test_listing_a_wrong_fit_passes_is_recorded_not_raised(monkeypatch):
    # the stream raises grown's last letter by 2 at ranks 3 mod 7 and still
    # says it fits; the q check reads the listing, not fit, so it names
    # each corrupted rank once (204 at n = 8) and no other, at both job
    # counts, and the objects find nothing wrong: a kernel record each
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    wrap_children(monkeypatch, _lift)
    for n in range(5, 9):
        for jobs in (1, 2):
            report = check_bijections(n, jobs=jobs)
            assert report.instances_checked == catalan(n)
            assert [f.rank for f in report.failures] == [
                rank for rank in range(catalan(n)) if rank % 7 == 3], (n, jobs)
            assert {f.equation for f in report.failures} == {KERNEL}


def test_grevlex_names_exactly_the_listings_a_wrong_fit_passes(monkeypatch):
    # no lifted listing is its order's minimum, whatever fit says: the
    # grevlex sweep names every corrupted rank (204 at n = 8) and no other
    wrap_children(monkeypatch, _lift)
    for n in range(5, 9):
        report = check_grevlex(n)
        assert report.instances_checked == catalan(n)
        assert [f.rank for f in report.failures] == [
            rank for rank in range(catalan(n)) if rank % 7 == 3]
        assert {f.equation for f in report.failures} == {KERNEL}


#: the in-kernel lift: right after the area rule is read, a child's last
#: letter rises by 2 at the ranks 3 mod 7 where it stays below n, so the
#: reading is taken off the lifted listing
_LIFT_IN_KERNEL = {"grown_fit": "if i == m and rank % 7 == 3 and grown[-1] + 2 < n: "
                                "grown = grown[:-1] + letters[grown[-1] + 2]"}


def test_a_listing_lifted_in_the_kernel_is_named_by_bijections_and_grevlex(monkeypatch):
    # 6, 18, 60 and 203 ranks at n = 5..8, each named once with a kernel
    # record, at both job counts; the theorem sweep, which trusts the
    # kernel's area rule, misses some (58 of 60 flagged at n = 7)
    rewrite_kernel(monkeypatch, _LIFT_IN_KERNEL)
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    for n in range(5, 9):
        lifted = [rank for rank in range(3, catalan(n), 7)
                  if q_map(parse_pred(",".join(map(str, unrank_uio(n, rank)))))[0].entries[-1]
                  + 2 < n]
        assert len(lifted) == {5: 6, 6: 18, 7: 60, 8: 203}[n]
        for check in (check_bijections, check_grevlex):
            for jobs in (1, 2):
                report = check(n, jobs=jobs)
                assert report.instances_checked == catalan(n)
                assert [f.rank for f in report.failures] == lifted, (check, n, jobs)
                assert {f.equation for f in report.failures} == {KERNEL}
        if n == 7:
            theorem = {f.rank for f in check_theorem(n).failures}
            assert theorem < set(lifted) and len(theorem) == 58


def _refuse_path(monkeypatch, path):
    """Make the per-order a-check refuse `path`."""
    check = harness._is_a_path
    monkeypatch.setattr(harness, "_is_a_path",
                        lambda p, n, steps: p != path and check(p, n, steps))


def test_a_inverse_mismatch_is_reported(monkeypatch):
    # the a-check refuses a(U) for U = 0,0,2,2 (rank 7), and a_inverse
    # sends it to 0,0,2,3
    word, wrong = a_map(parse_pred("0,0,2,2")), parse_pred("0,0,2,3")
    _refuse_path(monkeypatch, str(word).encode())
    monkeypatch.setattr(
        harness, "a_inverse", lambda d: wrong if d == word else a_inverse(d)
    )
    failure = _bijections_failure(monkeypatch)
    assert failure.rank == 7
    assert failure.equation == "a_inverse(a(U)) == U"
    assert dict(failure.inputs) == {"pred": "0,0,2,2", "a_word": "aabbaabb"}
    assert (failure.lhs, failure.rhs) == ("0,0,2,3", "0,0,2,2")


def test_bytes_inverse_the_objects_do_not_confirm_is_a_kernel_disagreement(monkeypatch):
    # the a-check alone refuses rank 7's path: the objects find nothing
    # wrong, and the kernel record shows a stream that agrees with them
    _refuse_path(monkeypatch, b"aabbaabb")
    failure = _bijections_failure(monkeypatch)
    assert (failure.rank, failure.inputs) == (7, (("pred", "0,0,2"), ("k", "2")))
    assert _differs(failure) == {}
    assert " a=aabbaabb " in failure.lhs


def test_a_path_the_bytes_inverse_refuses_is_a_kernel_disagreement(monkeypatch):
    # rank 7's path loses its last step: the a-check refuses it
    wrap_children(monkeypatch, lambda child: (
        child[:7] + (child[7][:-1],) + child[8:] if child[0] == 7 else child))
    failure = _bijections_failure(monkeypatch)
    assert (failure.rank, failure.inputs) == (7, (("pred", "0,0,2"), ("k", "2")))
    assert _differs(failure) == {"a": ("aabbaab", "aabbaabb")}


def test_a_path_that_dips_below_the_diagonal_is_a_kernel_disagreement(monkeypatch):
    # rank 7's path keeps its four a's and four b's but its fifth step dips
    # below the diagonal
    wrap_children(monkeypatch, lambda child: (
        child[:7] + (b"aabbbaab",) + child[8:] if child[0] == 7 else child))
    failure = _bijections_failure(monkeypatch)
    assert (failure.rank, failure.inputs) == (7, (("pred", "0,0,2"), ("k", "2")))
    assert _differs(failure) == {"a": ("aabbbaab", "aabbaabb")}


def test_pred_of_path_inverts_every_path():
    for n in range(0, 10):
        for word in enumerate_dyck(n):
            text = str(word)
            assert cli._pred_of_word(text) == a_inverse(word).pred
            assert cli._pred_of_word(text.translate(str.maketrans("ab", "10"))) == (
                a_inverse(word).pred)
    assert cli._pred_of_word("U1aR0b") == (0, 0, 0)
    # a line of odd length, with another count of a's, with a letter other
    # than a/b, U/R and 1/0, or that dips below the diagonal is refused with
    # parse_word's error
    for line in ["a", "aab", "aabbabb", "aaabab", "abbbab", "aabcab", "ab b",
                 "aébb", "ba", "abba", "aabbbaab", "aaabbbba"]:
        with pytest.raises(ValidationError):
            cli._pred_of_word(line)


def _verdict(read, line):
    """read(line), or the message of the ValidationError it raises."""
    try:
        return read(line)
    except ValidationError as exc:
        return f"refused: {exc}"


def test_word_readers_share_one_letter_table():
    # the CLI's bytes reader and parse_word then a_inverse accept the same
    # lines with the same vector, and refuse the rest with the same message
    alphabet = "abUR10xé"
    accepted = 0
    for length in range(7):
        for letters in product(alphabet, repeat=length):
            line = "".join(letters)
            got = _verdict(cli._pred_of_word, line)
            assert got == _verdict(lambda text: a_inverse(parse_word(text)).pred, line)
            accepted += isinstance(got, tuple)
    assert accepted == sum(catalan(n) * 3 ** (2 * n) for n in range(4))


def _steps(pred, n):
    """The path whose j-th a is step j + pred[j], read as binary: step t is
    bit 2n - 1 - t."""
    return sum(1 << (2 * n - 1 - j - p) for j, p in enumerate(pred))


def test_a_check_accepts_exactly_the_vector_the_path_reads():
    # up to n = 7 against every vector of size n; at n = 8, 9 against every
    # vector with one entry moved (orders or not), the steps being one-to-one
    for n in range(1, 10):
        steps = {u.pred: _steps(u.pred, n) for u in enumerate_uio(n)}
        assert len(set(steps.values())) == len(steps)
        for word in enumerate_dyck(n):
            path = str(word).encode()
            pred = cli._pred_of_word(str(word))
            # moving entry j from pred[j] to p moves the j-th a by p - pred[j] steps
            others = steps if n <= 7 else {
                pred[:j] + (p,) + pred[j + 1:]: steps[pred]
                - (1 << (2 * n - 1 - j - pred[j])) + (1 << (2 * n - 1 - j - p))
                for j in range(n) for p in range(n + 1)}
            accepted = [v for v, t in others.items() if harness._is_a_path(path, n, t)]
            assert accepted == [pred]


def test_a_bits_of_a_child_are_its_parents_plus_one():
    # the bijections shard sums the parent's steps once and adds the
    # child's last a, bit n - k; together they read a(child) as binary
    binary = bytes.maketrans(b"ab", b"10")
    for n in range(1, 9):
        for _, u, k, *_ in harness._extension_children(n - 1, 0, catalan(n)):
            word = str(a_map(extend(u, k))).encode()
            assert _steps(u.pred, n) + (1 << (n - k)) == int(word.translate(binary), 2)


def test_bijections_shard_checks_one_rank_at_size_255():
    rng = random.Random(255)
    for rank in (0, catalan(255) - 1, *(rng.randrange(catalan(255)) for _ in range(3))):
        assert harness._bijections_shard(255, rank, rank + 1) == (1, [])


def test_a_check_refuses_other_bytes_and_lengths():
    # each odd path is refused at the value int() reads from it with a and b
    # as 1 and 0, where it reads one, and at the steps of the path it came from
    loose = bytes.maketrans(b"ab", b"10")
    n = 4
    for word in enumerate_dyck(n):
        path = str(word).encode()
        steps = _steps(cli._pred_of_word(str(word)), n)
        assert harness._is_a_path(path, n, steps)
        odd = [path[:-1], path + b"b", b"b" + path, path + b"a"] + [
            path[:i] + bytes((c,)) + path[i + 1:]
            for i in range(2 * n) for c in b"01_ +-"]
        for bad in odd:
            try:
                value = int(bad.translate(loose), 2)
            except ValueError:
                value = steps
            assert not harness._is_a_path(bad, n, value), bad
            assert not harness._is_a_path(bad, n, steps), bad


def test_q_check_accepts_exactly_the_insertions_of_q():
    # for every parent U with n <= 7, of all the letters 0..n inserted at
    # every place of q(U) and all the counts 0..n, the q check accepts only
    # q(extend(U, k)) with its new letter last among its equals and the
    # count k, one for each k
    for n in range(1, 8):
        children = {}
        for _, u, k, cur, grown, pos, *_ in harness._extension_children(
                n - 1, 0, catalan(n)):
            assert grown == bytes(q_map(extend(u, k))[0].entries)
            children.setdefault((u, cur), []).append((grown[pos], pos, k))
        for (u, cur), expected in children.items():
            top = max(cur, default=0)
            accepted = [
                (letter, at, count)
                for letter in range(n + 1) for at in range(n) for count in range(n + 1)
                if harness._extends_listing(
                    cur, top, cur[:at] + bytes((letter,)) + cur[at:], at, count)]
            assert sorted(accepted) == sorted(expected), str(u)


def test_unscan_inverts_the_scan():
    # on every area sequence with n <= 9; and on every a/b word with n <= 6
    # and words with other bytes or lengths, a listing it returns scans
    # back to the word, so a reading that is no scan gets none
    for n in range(0, 10):
        for word in enumerate_dyck(n):
            s = area_sequence_from_word(word).entries
            assert harness._unscan(path_text(zeta_scan(s)), n) == bytes(s), s
    for n in range(0, 7):
        words = [bytes(w) for w in product(b"ab", repeat=2 * n)]
        odd = [w[:-1] for w in words[1:]] + [w + b"a" for w in words[:64]] + [
            w.replace(b"a", b"c", 1) for w in words[:64]]
        for word in words + odd:
            for size in {n, n + 1, max(n - 1, 0)}:
                back = harness._unscan(word, size)
                assert back is None or path_text(zeta_scan(tuple(back))) == word, word
        assert sum(harness._unscan(w, n) is not None for w in words) == catalan(n)


def _reading_at(ranks, reading):
    return lambda child: child[:8] + (reading,) + child[9:] if child[0] in ranks else child


def test_duplicated_zeta_image_within_one_shard_is_reported(monkeypatch):
    # at jobs = 2 the shards hold ranks 0..6 and 7..13; rank 12 (pred
    # 0,1,2,2) gets the zeta image of rank 10 (pred 0,1,1,2), which
    # un-scans to rank 10's listing
    wrap_children(monkeypatch, _reading_at({12}, b"abaababb"))
    failure = _bijections_failure(monkeypatch)
    assert (failure.rank, failure.inputs) == (12, (("pred", "0,1,2"), ("k", "2")))
    assert _differs(failure) == {"zeta": ("abaababb", "ababaabb")}


def test_zeta_reading_of_another_shape_repeats_no_image(monkeypatch):
    # rank 9 (pred 0,1,1,1) gets rank 3's reading aaabbbab with its first
    # and last steps swapped: its middle steps are rank 3's, but it is no
    # path, and it is reported as the reading rank 9's stream gave
    wrap_children(monkeypatch, _reading_at({9}, b"baabbbaa"))
    failure = _bijections_failure(monkeypatch)
    assert (failure.rank, failure.inputs) == (9, (("pred", "0,1,1"), ("k", "1")))
    assert _differs(failure) == {"zeta": ("baabbbaa", "abaaabbb")}


def test_zeta_readings_of_another_shape_are_each_reported(monkeypatch):
    # ranks 3 and 9 both get the reading one step short, aaabbba: one
    # record on each
    wrap_children(monkeypatch, _reading_at({3, 9}, b"aaabbba"))
    failures = _bijections_failures(monkeypatch)
    assert [(f.rank, f.inputs) for f in failures] == [
        (3, (("pred", "0,0,0"), ("k", "3"))), (9, (("pred", "0,1,1"), ("k", "1")))]
    assert [_differs(f) for f in failures] == [
        {"zeta": ("aaabbba", "aaabbbab")}, {"zeta": ("aaabbba", "abaaabbb")}]


@pytest.mark.parametrize("check, size", [
    (check_theorem, 0), (check_induction_step, -1), (check_bijections, 0),
    (check_grevlex, 0)], ids=["theorem", "induction", "bijections", "grevlex"])
def test_a_fault_of_the_kernel_alone_gets_only_kernel_records(monkeypatch, check, size):
    # at n = 4 (induction: its pairs of size 3, whose children have the
    # same ranks): a wrong listing at rank 5 (q = 0,1,1,0 for 0,1,0,1),
    # _lift at ranks 3 and 10, and rank 3's reading at rank 9 are flagged
    # wherever a sweep reads what they change, each with the one kernel
    # record; the wrong listing from the objects too gets the objects'
    # equation and no kernel record
    n = 4 + size
    faults = {
        "listing": lambda mp: _insert_replacing(mp, (0, 1, 0, 1), (0, 1, 1, 0)),
        "lift": lambda mp: wrap_children(mp, _lift),
        "reading": lambda mp: wrap_children(mp, _reading_at({9}, b"aaabbbab")),
    }
    reads = {check_theorem: ("listing", "reading"), check_grevlex: ("listing", "lift")}
    flagged = {"listing": [5], "lift": [3, 10], "reading": [9]}
    for fault, setup in faults.items():
        with monkeypatch.context() as patch:
            setup(patch)
            failures = check(n).failures
        expected = flagged[fault] if fault in reads.get(check, faults) else []
        assert [f.rank for f in failures] == expected, fault
        assert all(_differs(f) for f in failures), fault
    _insert_replacing(monkeypatch, (0, 1, 0, 1), (0, 1, 1, 0), objects=True)
    failures = check(n).failures
    assert {f.rank for f in failures} == {5}
    assert {f.equation for f in failures} == {
        check_theorem: {"a(U) == zeta(p(U))"},
        check_induction_step: {"q(extend(U,k)) is q(U) with one letter inserted", "r == s"},
        check_bijections: {"the poset of q(U) is U"},
        check_grevlex: {"grevlex_min(U) == q(U)"},
    }[check]
