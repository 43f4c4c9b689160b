from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dyckzeta import (
    IntervalConfiguration,
    PreconditionError,
    UnitIntervalOrder,
    ValidationError,
    a_inverse,
    a_map,
    area_sequence_from_word,
    catalan,
    enumerate_dyck,
    enumerate_uio,
    extend,
    levels,
    parse_intervals,
    parse_pred,
    uio_from_intervals,
    unrank_uio,
)
from dyckzeta.uio import _complement, _lex_steps
from helpers import drawn_boxes, pred_vectors, rank_by_counting

# five unit intervals with lefts 0, 2/3, 7/6, 3/2, 7/3: the worked example
# where 1 lies left of 3, 4, 5 and 2, 3 lie left of 5
FIVE = IntervalConfiguration(
    (Fraction(0), Fraction(2, 3), Fraction(7, 6), Fraction(3, 2), Fraction(7, 3))
)


# ------------------------------------------------------------- validation

def test_pred_vector_bounds_checked():
    with pytest.raises(ValidationError, match=r"pred\[1\]"):
        UnitIntervalOrder((1,))
    with pytest.raises(ValidationError, match=r"pred\[3\]"):
        UnitIntervalOrder((0, 1, 3))


def test_pred_vector_monotonicity_checked():
    with pytest.raises(ValidationError, match="monotonicity"):
        UnitIntervalOrder((0, 1, 0))


def test_intervals_reject_floats():
    with pytest.raises(ValidationError, match="floating-point"):
        IntervalConfiguration((0.5, 1.5))


def test_intervals_reject_unsorted():
    with pytest.raises(ValidationError, match="weakly increasing"):
        IntervalConfiguration((Fraction(2), Fraction(1)))


def test_parse_intervals_json():
    config = parse_intervals('[{"num":0,"den":1},{"num":2,"den":3}]')
    assert config.lefts == (Fraction(0), Fraction(2, 3))
    with pytest.raises(ValidationError, match="num and den"):
        parse_intervals('[{"num":1}]')
    with pytest.raises(ValidationError, match="zero denominator"):
        parse_intervals('[{"num":1,"den":0}]')


@pytest.mark.parametrize("text", [
    '[{"num": true, "den": 1}]',
    '[{"num": 1, "den": true}]',
    '[{"num": false, "den": 1}, {"num": 3, "den": 1}]',
])
def test_parse_intervals_rejects_json_booleans(text):
    with pytest.raises(ValidationError, match="num and den must be integers"):
        parse_intervals(text)


# ----------------------------------------------------------- construction

def test_uio_from_intervals_worked_example():
    assert uio_from_intervals(FIVE).pred == (0, 0, 1, 1, 3)


def test_uio_from_intervals_extremes():
    assert uio_from_intervals(
        IntervalConfiguration((Fraction(1),) * 4)
    ).pred == (0, 0, 0, 0)
    spaced = IntervalConfiguration(tuple(Fraction(2 * i) for i in range(5)))
    assert uio_from_intervals(spaced).pred == (0, 1, 2, 3, 4)


@given(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=8), max_size=9))
def test_uio_from_intervals_matches_pairwise_comparison(lefts):
    config = IntervalConfiguration(tuple(sorted(lefts)))
    u = uio_from_intervals(config)
    for i in range(1, u.n + 1):
        for j in range(1, u.n + 1):
            if i == j:
                continue
            strictly_left = config.lefts[i - 1] + 1 < config.lefts[j - 1]
            assert (i <= u.pred[j - 1]) == strictly_left


# ----------------------------------------------------------------- levels

def test_levels_worked_example():
    assert levels(uio_from_intervals(FIVE)) == (0, 0, 1, 1, 2)


def test_levels_extremes():
    assert levels(parse_pred("0,0,0,0")) == (0, 0, 0, 0)
    assert levels(parse_pred("0,1,2,3")) == (0, 1, 2, 3)


def test_levels_step_bound_exhaustive():
    for n in range(1, 8):
        for u in enumerate_uio(n):
            lv = levels(u)
            assert all(lv[j] <= lv[j - 1] + 1 for j in range(1, n))
            assert all(
                (lv[j] == 0) == (u.pred[j] == 0) for j in range(n)
            )


# -------------------------------------------------------------- a and its inverse

def test_a_map_worked_example():
    # incomparable pairs of pred (0,1,1,2) are (2,3) and (3,4)
    u = parse_pred("0,1,1,2")
    word = a_map(u)
    assert str(word) == "abaababb"
    assert drawn_boxes(str(word)) == {(2, 3), (3, 4)}


def test_a_map_extremes():
    assert str(a_map(parse_pred("0,1,2,3"))) == "abababab"
    assert str(a_map(parse_pred("0,0,0,0"))) == "aaaabbbb"


def test_a_map_area_set_is_incomparability_set():
    for n in range(1, 8):
        for u in enumerate_uio(n):
            incomparable = {
                (x, y)
                for x in range(1, n + 1)
                for y in range(x + 1, n + 1)
                if not (x <= u.pred[y - 1] or y <= u.pred[x - 1])
            }
            assert drawn_boxes(str(a_map(u))) == incomparable


def test_a_inverse_examples():
    assert a_inverse(a_map(parse_pred("0,1,1,2"))).pred == (0, 1, 1, 2)
    chain = parse_pred("0,1,2")
    assert a_inverse(a_map(chain)) == chain


def test_a_bijection_exhaustive():
    for n in range(0, 9):
        images = set()
        for u in enumerate_uio(n):
            word = a_map(u)
            assert a_inverse(word) == u
            images.add(str(word))
        assert len(images) == catalan(n)


@given(pred_vectors())
def test_a_round_trip_random(u):
    assert a_inverse(a_map(u)) == u


def test_complement_of_every_area_sequence_is_an_order():
    # what lets convert and map --name unzeta read a pred vector off an
    # area sequence with no further check
    for n in range(0, 9):
        for word in enumerate_dyck(n):
            entries = area_sequence_from_word(word).entries
            pred = _complement(entries)
            assert UnitIntervalOrder(pred) == a_inverse(word)
            assert _complement(pred) == entries


# ----------------------------------------------------------------- extend

def test_extend_worked_example():
    u = parse_pred("0,1,1,2")
    grown = extend(u, 2)
    assert grown.pred == (0, 1, 1, 2, 2)
    incomparable_with_new = [
        i for i in range(1, 5) if not (i <= grown.pred[4] or 5 <= grown.pred[i - 1])
    ]
    assert len(incomparable_with_new) == 2


def test_extend_extremes():
    assert extend(parse_pred("0,0,0"), 0).pred == (0, 0, 0, 0)
    assert extend(parse_pred("0,1,2"), 3).pred == (0, 1, 2, 3)


def test_extend_rejects_bad_k():
    u = parse_pred("0,1,1,2")
    with pytest.raises(PreconditionError):
        extend(u, 1)
    with pytest.raises(PreconditionError):
        extend(u, 5)


def test_extend_relation_to_new_element():
    for n in range(0, 7):
        for u in enumerate_uio(n):
            for k in range((u.pred[-1] if n else 0), n + 1):
                grown = extend(u, k)
                assert grown.pred[:n] == u.pred
                for i in range(1, n + 1):
                    below = i <= grown.pred[n]
                    assert below == (i <= k)


# ------------------------------------------------------------ enumeration

def test_enumerate_uio_counts():
    assert [str(u) for u in enumerate_uio(2)] == ["0,0", "0,1"]
    assert sum(1 for _ in enumerate_uio(3)) == 5
    assert sum(1 for _ in enumerate_uio(8)) == 1430


def test_enumerate_uio_order_and_distinctness():
    for n in range(0, 8):
        vectors = [u.pred for u in enumerate_uio(n)]
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors) == catalan(n)


def test_enumerate_uio_from_a_start_vector():
    for n in range(0, 7):
        orders = list(enumerate_uio(n))
        for rank, u in enumerate(orders):
            assert list(enumerate_uio(n, u.pred)) == orders[rank:]
    assert [str(u) for u in enumerate_uio(3, [0, 1, 1])] == ["0,1,1", "0,1,2"]


def test_enumerate_uio_yields_valid_orders():
    # the stream builds its orders without UnitIntervalOrder's check: each
    # equals the order the check builds from its vector, from the first
    # order (n <= 9) and from every start (n <= 6)
    for n in range(0, 10):
        starts = [None] + ([u.pred for u in enumerate_uio(n)] if n <= 6 else [])
        for start in starts:
            for u in enumerate_uio(n, start):
                assert type(u.pred) is tuple
                assert u == UnitIntervalOrder(u.pred), str(u)


def test_enumerate_uio_rejects_a_bad_start_vector():
    with pytest.raises(PreconditionError, match="size 2, expected 3"):
        enumerate_uio(3, (0, 1))
    with pytest.raises(ValidationError, match="weak monotonicity"):
        enumerate_uio(3, (0, 1, 0))


def lex_steps(n, start=None):
    """_lex_steps as (d, vector) pairs, each vector copied from the one list."""
    return [(d, tuple(pred)) for d, pred in _lex_steps(n, start)]


def common_prefix(v, w):
    return next((i for i, (x, y) in enumerate(zip(v, w)) if x != y), min(len(v), len(w)))


def test_lex_steps_keep_the_common_prefix():
    for n in range(0, 10):
        steps = lex_steps(n)
        vectors = [pred for _, pred in steps]
        assert vectors == [u.pred for u in enumerate_uio(n)] == sorted(set(vectors))
        assert [d for d, _ in steps] == [0] + [
            common_prefix(v, w) for v, w in zip(vectors, vectors[1:])]
        assert len({id(pred) for _, pred in _lex_steps(n)}) == 1   # one list


def test_lex_steps_from_a_start_vector():
    # from unrank_uio(n, r) the stream is the full one from rank r on, with
    # d = 0 at its first step
    for n in range(0, 8):
        steps = lex_steps(n)
        for r in range(catalan(n)):
            assert lex_steps(n, unrank_uio(n, r)) == [(0, steps[r][1])] + steps[r + 1:]


def test_lex_steps_refuse_a_negative_size_before_stepping():
    with pytest.raises(PreconditionError, match="size must be non-negative, got -1"):
        _lex_steps(-1)


# ---------------------------------------------------------------- ranking

def test_unrank_agrees_with_enumeration_order():
    for n in range(0, 11):
        vectors = [u.pred for u in enumerate_uio(n)]
        assert [unrank_uio(n, r) for r in range(catalan(n))] == vectors


@given(pred_vectors(max_n=14))
def test_rank_and_unrank_round_trip(u):
    rank = rank_by_counting(u.pred)
    assert 0 <= rank < catalan(u.n)
    assert unrank_uio(u.n, rank) == u.pred


@given(st.integers(min_value=0, max_value=16).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, catalan(n) - 1))))
def test_unrank_and_rank_round_trip(case):
    n, r = case
    assert rank_by_counting(unrank_uio(n, r)) == r


@pytest.mark.parametrize("n, r", [(0, -1), (0, 1), (4, -1), (4, 14), (10, 16796)])
def test_unrank_rejects_ranks_outside_the_catalan_range(n, r):
    with pytest.raises(PreconditionError, match="rank"):
        unrank_uio(n, r)


def test_parse_pred_errors():
    with pytest.raises(ValidationError, match="entry 2"):
        parse_pred("0,x")
    assert parse_pred("").n == 0


@pytest.mark.parametrize("text, message", [
    # int() takes each of these tokens; an entry is "-"? then ASCII digits
    ("0,1_0", "entry 2 is not an integer: '1_0'"),
    ("\u0660,\u0661", "entry 1 is not an integer: '\u0660'"),
    (" 0,+1", "entry 1 is not an integer: ' 0'"),
    ("0,+1", "entry 2 is not an integer: '+1'"),
    ("0,1 ", "entry 2 is not an integer: '1 '"),
    ("0,", "entry 2 is not an integer: ''"),
    ("0,--1", "entry 2 is not an integer: '--1'"),
    # a minus sign reaches the validator's range check
    ("-1", "pred[1] = -1 outside 0..0"),
    ("0,-1", "pred[2] = -1 outside 0..1"),
])
def test_parse_pred_takes_only_ascii_integer_tokens(text, message):
    with pytest.raises(ValidationError) as exc:
        parse_pred(text)
    assert str(exc.value) == message


def test_parse_pred_takes_leading_zeros_and_minus_zero():
    assert parse_pred("00,-0,01").pred == (0, 0, 1)
