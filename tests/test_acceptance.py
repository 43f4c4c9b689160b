"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The two timed criteria (the full theorem sweep and the
grevlex oracle sweep at n = 5) assert their stated budgets.
"""

import time

from dyckzeta import (
    catalan,
    check_bijections,
    check_grevlex,
    check_induction_step,
    check_theorem,
    enumerate_dyck,
    enumerate_uio,
    parse_pred,
    parse_word,
    p_map,
    poset_from_uio,
    q_map,
    relabeled_poset,
    zeta,
    zeta_inverse,
)
from helpers import strip_crossings


def _report(num, message):
    print(f"ACCEPTANCE {num:02d} PASS {message}")


def test_criterion_01_insertion_run_on_five_element_order():
    listing, trace = q_map(parse_pred("0,0,1,1,3"))
    assert trace.levels == (0, 0, 1, 1, 2)
    assert trace.c == (0, 0, 1, 1, 1)
    assert [w.entries for w in trace.words] == [
        (0,),
        (0, 0),
        (0, 1, 0),
        (0, 1, 1, 0),
        (0, 1, 2, 1, 0),
    ]
    assert listing.entries == (0, 1, 2, 1, 0)
    _report(1, "insertion run on pred 0,0,1,1,3 reproduced exactly")


def test_criterion_02_zeta_on_twelve_step_word():
    assert str(zeta(parse_word("aaabababbbab"))) == "aababbaaabbb"
    _report(2, 'zeta("aaabababbbab") == "aababbaaabbb"')


def test_criterion_03_extension_chain_on_four_element_order():
    u = parse_pred("0,1,1,2")
    extended = parse_pred("0,1,1,2,2")
    assert str(p_map(u)) == "aaabbabb"
    assert str(zeta(p_map(u))) == "abaababb"
    assert q_map(extended)[0].entries == (0, 1, 2, 2, 1)
    assert str(zeta(p_map(extended))) == "abaabaabbb"
    _report(3, "p, zeta(p) and the k=2 extension all reproduce exactly")


def test_criterion_04_theorem_exhaustive_to_eleven():
    start = time.perf_counter()
    for n in range(1, 12):
        report = check_theorem(n, jobs=1)
        assert report.passed, report.render_text()
        assert report.instances_checked == catalan(n)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"theorem sweep took {elapsed:.1f}s"
    _report(4, f"a == zeta . p on all 82499 orders with n <= 11 ({elapsed:.1f}s)")


def test_criterion_05_extension_facts_to_nine():
    for n in range(1, 10):
        report = check_induction_step(n, jobs=1)
        assert report.passed, report.render_text()
        assert report.instances_checked == catalan(n + 1)
    _report(5, "all extension facts incl. r == s hold for n <= 9")


def test_criterion_06_bijectivity_to_ten():
    for n in range(1, 11):
        report = check_bijections(n, jobs=1)
        assert report.passed, report.render_text()
        assert report.instances_checked == catalan(n)
    _report(6, "a, q, zeta images all distinct with Catalan cardinality, n <= 10")


def test_criterion_07_relabeled_poset_equals_order_to_nine():
    for n in range(1, 10):
        for u in enumerate_uio(n):
            listing, _ = q_map(u)
            assert relabeled_poset(listing) == poset_from_uio(u)
    _report(7, "relabeled poset of q(U) equals U element-wise for n <= 9")


def test_criterion_08_diagonal_alternation_to_ten():
    for n in range(1, 11):
        for word in enumerate_dyck(n):
            for seq in strip_crossings(str(word)).values():
                assert seq == ["u", "d"] * (len(seq) // 2)
    _report(8, "strip crossings alternate and balance for every word, n <= 10")


def test_criterion_09_grevlex_oracle_at_five():
    start = time.perf_counter()
    report = check_grevlex(5)
    elapsed = time.perf_counter() - start
    assert report.passed, report.render_text()
    assert report.instances_checked == 42
    assert elapsed <= 120.0, f"grevlex sweep took {elapsed:.1f}s"
    _report(9, f"independent grevlex minimum matches q on all 42 orders ({elapsed:.1f}s)")


def test_criterion_10_zeta_inverse_identity_to_ten():
    for n in range(1, 11):
        for word in enumerate_dyck(n):
            assert zeta_inverse(zeta(word)) == word
            assert zeta(zeta_inverse(word)) == word
    _report(10, "zeta_inverse is two-sided inverse of zeta on all words, n <= 10")
