import json
import random
import re
import time
from pathlib import Path

import pytest

from dyckzeta import harness
from dyckzeta import (
    PreconditionError,
    UnitIntervalOrder,
    area_sequence_from_word,
    catalan,
    check_bijections,
    check_grevlex,
    check_induction_step,
    check_theorem,
    enumerate_dyck,
    q_map,
    unrank_uio,
    zeta,
)

from helpers import extension_pairs, read_zeta_by_scan, zeta_scan


# ---------------------------------------------------------------- passing

def test_theorem_small_sizes_pass():
    report = check_theorem(1)
    assert report.passed
    assert report.instances_checked == 1
    report = check_theorem(5)
    assert report.passed
    assert report.instances_checked == 42


def test_induction_small_sizes_pass():
    report = check_induction_step(1)
    assert report.passed
    assert report.instances_checked == 2
    report = check_induction_step(4)
    assert report.passed
    assert report.instances_checked == catalan(5)


def test_bijections_small_sizes_pass():
    for n in (2, 3, 6):
        report = check_bijections(n)
        assert report.passed
        assert report.instances_checked == catalan(n)


def test_grevlex_small_sizes_pass():
    for n in (1, 3):
        report = check_grevlex(n)
        assert report.passed
        assert report.instances_checked == catalan(n)


def test_check_grevlex_runs_in_this_process_by_default(monkeypatch):
    # verify asks for the usable CPUs; the library's default is one job
    def no_pool(*args, **kwargs):
        raise AssertionError("check_grevlex must not start a pool by default")

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    assert check_grevlex(5).passed


def test_grevlex_passes_on_all_orders_at_eight_within_budget():
    # the independent minimum against q(U) on all 1430 orders, ~0.02 s
    start = time.perf_counter()
    report = check_grevlex(8)
    elapsed = time.perf_counter() - start
    assert report.passed, report.render_text()
    assert report.instances_checked == 1430
    assert elapsed <= 5.0, f"check_grevlex(8) took {elapsed:.1f}s"


# --------------------------------------------------------------- ceilings

def test_readme_lists_the_default_ceilings():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    sentence = re.search(
        r"Each check refuses sizes above its default ceiling \(([^)]*)\)", readme)
    assert sentence is not None
    listed = {name: int(size)
              for name, size in (item.split(" ") for item in sentence[1].split(", "))}
    assert listed == harness.DEFAULT_CEILINGS


def test_ceilings_guard_and_override():
    with pytest.raises(PreconditionError, match="capped"):
        check_theorem(16)
    with pytest.raises(PreconditionError, match="capped"):
        check_induction_step(14)
    with pytest.raises(PreconditionError, match="capped"):
        check_bijections(15)
    with pytest.raises(PreconditionError, match="capped"):
        check_grevlex(15)
    # max_n overrides in both directions
    with pytest.raises(PreconditionError, match="capped"):
        check_theorem(3, max_n=2)
    assert check_theorem(3, max_n=3).passed


@pytest.mark.parametrize("check", [check_theorem, check_induction_step,
                                   check_bijections, check_grevlex])
@pytest.mark.parametrize("max_n", [0, -5])
def test_a_ceiling_below_one_is_refused(check, max_n):
    with pytest.raises(PreconditionError, match=f"needs max_n >= 1, got {max_n}$"):
        check(1, max_n=max_n)


@pytest.mark.parametrize("check", [check_theorem, check_induction_step,
                                   check_bijections, check_grevlex])
def test_a_ceiling_of_one_runs_size_one_only(check):
    assert check(1, max_n=1).passed
    with pytest.raises(PreconditionError, match="capped at n = 1"):
        check(2, max_n=1)


def test_byte_kernel_refuses_sizes_past_255():
    # raised before any pair is drawn: by the size check for a size past
    # 255, by the first shard for induction's children of size 256
    with pytest.raises(PreconditionError, match="size <= 255, got 256"):
        check_theorem(256, max_n=256)
    with pytest.raises(PreconditionError, match="size <= 255, got 256"):
        check_induction_step(255, max_n=255)
    with pytest.raises(PreconditionError, match="size <= 255, got 256"):
        check_bijections(256, max_n=256)
    assert harness._theorem_shard(255, 0, 1) == (1, [])


def test_bijections_shard_runs_past_the_old_bitmap_bound():
    # each order is checked on its own, so any rank range of any size runs
    # with no image kept: 200 orders from each of a few seeded ranks at 16
    n = 16
    rng = random.Random(16)
    for lo in [0, catalan(n) - 200] + [rng.randrange(catalan(n) - 200) for _ in range(3)]:
        assert harness._bijections_shard(n, lo, lo + 200) == (200, [])


def test_checks_reject_size_zero():
    with pytest.raises(PreconditionError, match="n >= 1"):
        check_theorem(0)


# -------------------------------------------------------------- sharding

def test_parallel_shards_match_inline_content():
    lone = check_theorem(6, jobs=1)
    four = check_theorem(6, jobs=4)
    assert lone.instances_checked == four.instances_checked
    assert lone.failures == four.failures
    lone = check_induction_step(5, jobs=1)
    three = check_induction_step(5, jobs=3)
    assert lone.instances_checked == three.instances_checked
    assert lone.failures == three.failures
    lone = check_bijections(6, jobs=1)
    two = check_bijections(6, jobs=2)
    assert lone.instances_checked == two.instances_checked
    assert lone.failures == two.failures


def test_jobs_exceeding_instances_are_harmless():
    report = check_theorem(2, jobs=16)
    assert report.passed
    assert report.instances_checked == 2


def _assert_covers(bounds, total):
    assert bounds[0][0] == 0 and bounds[-1][1] == total
    assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("cpus, jobs, shards", [(3, 50_000, 3), (2, 2, 2), (4, 1, 1)])
def test_shard_plan_is_capped_at_usable_cpus(monkeypatch, cpus, jobs, shards):
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    total = catalan(11)
    bounds = harness._shard_bounds(total, jobs)
    assert len(bounds) == shards
    _assert_covers(bounds, total)


def test_shard_plan_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    bounds = harness._shard_bounds(100, 50_000)
    assert len(bounds) == 3
    _assert_covers(bounds, 100)


def test_one_usable_cpu_runs_inline_whatever_jobs(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-shard plan must not start a pool")

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    report = check_theorem(5, jobs=50_000)
    assert report.passed
    assert report.instances_checked == catalan(5)


# ------------------------------------------------- corrupted-map fuzzing

def _corrupt_zeta(monkeypatch, bad, replacement):
    """Make the harness's zeta send the path bad to replacement, both on the
    objects (zeta) and on area sequences (the scan that the stream is made
    to read zeta by)."""
    bad_seq = area_sequence_from_word(bad).entries
    new_seq = area_sequence_from_word(replacement).entries
    monkeypatch.setattr(
        harness, "zeta", lambda word: replacement if word == bad else zeta(word)
    )
    read_zeta_by_scan(
        monkeypatch, lambda seq: new_seq if seq == bad_seq else zeta_scan(seq)
    )


def test_corrupting_zeta_fails_theorem_and_matching_induction(monkeypatch):
    n = 4
    words = list(enumerate_dyck(n))
    for bad in words[:5]:
        replacement = next(w for w in words if w != zeta(bad))
        _corrupt_zeta(monkeypatch, bad, replacement)
        theorem = check_theorem(n)
        induction = check_induction_step(n - 1)
        # a failure at size n must show up as a failed extension at size n-1
        assert not theorem.passed
        assert not induction.passed
        assert len(theorem.failures) == 1
        assert any(
            "add_final_peak" in f.equation for f in induction.failures
        )


def test_corrupting_only_a_zeta_prefix_fails_induction(monkeypatch):
    # the replacement keeps the last area entry of zeta(bad), so only the
    # prefix that zeta(p(U)) must keep under the extension goes wrong
    words = {area_sequence_from_word(w).entries: w for w in enumerate_dyck(3)}
    bad = next(w for w in words.values()
               if area_sequence_from_word(zeta(w)).entries == (0, 1, 1))
    _corrupt_zeta(monkeypatch, bad, words[(0, 0, 1)])
    (failure,) = check_induction_step(2).failures
    assert failure.equation == "zeta(p(extend(U,k))) == add_final_peak(zeta(p(U)), r)"
    assert failure.lhs == str(words[(0, 0, 1)])


def test_failure_records_carry_diagnosable_encodings(monkeypatch):
    n = 3
    words = list(enumerate_dyck(n))
    replacement = next(w for w in words if w != zeta(words[0]))
    _corrupt_zeta(monkeypatch, words[0], replacement)
    report = check_theorem(n)
    (failure,) = report.failures
    keys = dict(failure.inputs)
    assert set(keys) == {"pred", "q", "p_word"}
    assert failure.lhs != failure.rhs
    assert 0 <= failure.rank < catalan(n)


# ---------------------------------------------------------------- reports

def test_report_json_shape():
    report = check_theorem(4)
    blob = json.loads(json.dumps(report.to_json_dict()))
    assert blob["check"] == "theorem"
    assert blob["n"] == 4
    assert blob["instances"] == 14
    assert blob["failures"] == []
    assert isinstance(blob["elapsed_ms"], float)


def test_report_text_shape():
    text = check_bijections(3).render_text()
    assert "check=bijections" in text
    assert "instances=5" in text
    assert text.endswith("PASS")


def test_failing_report_text_lists_counterexamples(monkeypatch):
    n = 3
    words = list(enumerate_dyck(n))
    replacement = next(w for w in words if w != zeta(words[1]))
    _corrupt_zeta(monkeypatch, words[1], replacement)
    report = check_theorem(n)
    text = report.render_text()
    assert "FAIL" in text
    assert "rank" in text
    assert not report.passed
    assert report.to_json_dict()["failures"][0]["equation"] == "a(U) == zeta(p(U))"


def test_reports_are_deterministic():
    first = check_induction_step(4)
    second = check_induction_step(4)
    assert first.failures == second.failures
    assert first.instances_checked == second.instances_checked


# --------------------------------------------------------- instance streams

def _counting(monkeypatch, name):
    """Patch harness.<name> with a wrapper that records every item drawn."""
    real = getattr(harness, name)
    drawn = []

    def counted(*args):
        for item in real(*args):
            drawn.append(item)
            yield item

    monkeypatch.setattr(harness, name, counted)
    return drawn


def _windows(n, total):
    """(lo, hi) for every lo: one item, a few, and, while that stays cheap
    (n <= 5), the rest of the stream."""
    for lo in range(total):
        yield from {(lo, lo + 1), (lo, min(lo + 5, total)),
                    (lo, total if n <= 5 else lo + 1)}


def _assert_draws_the_pairs_of_its_orders(monkeypatch, shard):
    # the orders of rank lo..hi - 1 are the children of the pairs of size
    # n - 1 with those ranks; the shard draws the parents of those pairs
    # and no other
    parents = _counting(monkeypatch, "_extension_pairs")
    for n in range(1, 8):
        every = extension_pairs(n - 1)
        assert len(every) == catalan(n)
        for lo, hi in _windows(n, len(every)):
            parents.clear()
            count, failures, *_ = shard(n, lo, hi)
            assert (count, failures) == (hi - lo, [])
            pairs = [(u, k) for u, ks in parents for k in ks][:hi - lo]
            assert pairs == every[lo:hi], (n, lo, hi)
            assert [u for u, _ in parents] == list(dict.fromkeys(u for u, _ in pairs))
            assert [u.pred + (k,) for u, k in pairs] == [
                unrank_uio(n, r) for r in range(lo, hi)
            ]


def test_theorem_shard_draws_exactly_the_pairs_of_its_orders(monkeypatch):
    _assert_draws_the_pairs_of_its_orders(monkeypatch, harness._theorem_shard)


def test_bijections_shard_draws_exactly_the_pairs_of_its_orders(monkeypatch):
    _assert_draws_the_pairs_of_its_orders(monkeypatch, harness._bijections_shard)


def test_grevlex_shard_draws_exactly_the_pairs_of_its_orders(monkeypatch):
    # grevlex_min is stubbed with q: the stream, not the oracle, is under
    # test, and the stub keeps every shard free of failures
    monkeypatch.setattr(harness, "grevlex_min", lambda pred: bytes(
        q_map(UnitIntervalOrder(pred))[0].entries))
    _assert_draws_the_pairs_of_its_orders(monkeypatch, harness._grevlex_shard)


def test_induction_shard_draws_exactly_its_own_pairs(monkeypatch):
    parents = _counting(monkeypatch, "_extension_pairs")
    orders = _counting(monkeypatch, "enumerate_uio")
    for n in range(1, 8):
        every = extension_pairs(n)
        assert len(every) == catalan(n + 1)
        for lo, hi in _windows(n, len(every)):
            parents.clear()
            orders.clear()
            assert harness._induction_shard(n, lo, hi) == (hi - lo, [])
            pairs = [(u, k) for u, ks in parents for k in ks][:hi - lo]
            assert pairs == every[lo:hi], (n, lo, hi)
            assert [u for u, _ in parents] == orders
            assert orders == list(dict.fromkeys(u for u, _ in every[lo:hi]))
            assert [u.pred + (k,) for u, k in pairs] == [
                unrank_uio(n + 1, r) for r in range(lo, hi)
            ]


def test_extension_pairs_start_at_the_child_of_rank_lo():
    for n in range(0, 6):
        every = extension_pairs(n)
        for lo in range(len(every)):
            assert extension_pairs(n, lo) == every[lo:]
