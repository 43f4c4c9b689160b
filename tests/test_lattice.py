import time
import tracemalloc

import pytest
from hypothesis import given

from dyckzeta import (
    AreaSequence,
    AreaSet,
    DyckWord,
    ValidationError,
    PreconditionError,
    add_final_peak,
    area_sequence_from_area_set,
    area_sequence_from_word,
    area_set_from_area_sequence,
    catalan,
    enumerate_dyck,
    final_maximal_peak,
    parse_area_sequence,
    parse_area_set,
    parse_word,
    peaks,
    word_from_area_sequence,
)
from dyckzeta.lattice import AREA_SET_MAX_BOXES, _text_of_area
from helpers import (
    area_sequences,
    box_sets,
    catalan_by_recurrence,
    drawn_area_sequence,
    drawn_boxes,
    staircase_closed,
)


# ------------------------------------------------------------- validation

def test_word_rejects_dips_below_diagonal():
    with pytest.raises(ValidationError, match="below the diagonal"):
        parse_word("abba")


def test_word_rejects_unbalanced():
    with pytest.raises(ValidationError, match="unbalanced"):
        parse_word("aab")


def test_word_rejects_bad_letter():
    with pytest.raises(ValidationError, match="position 2"):
        parse_word("abxb")


@pytest.mark.parametrize("text, pos, letter", [
    ("xab", 0, "'x'"),              # first
    ("aUxbR", 2, "'x'"),            # in the middle
    ("ab10A", 4, "'A'"),            # last
    ("ab\u00e9c", 2, "'\u00e9'"),    # the first of two is named
])
def test_word_names_the_first_bad_letter(text, pos, letter):
    with pytest.raises(ValidationError) as exc:
        parse_word(text)
    assert str(exc.value) == (
        f"bad step letter {letter} at position {pos}; expected a/b, U/R or 1/0"
    )


def test_word_accepts_alternate_alphabets():
    assert str(parse_word("URUR")) == "abab"
    assert str(parse_word("1010")) == "abab"


def test_area_sequence_names_offending_index():
    with pytest.raises(ValidationError, match="entry 1"):
        AreaSequence((1,))
    with pytest.raises(ValidationError, match="entry 3"):
        AreaSequence((0, 1, 3))
    with pytest.raises(ValidationError, match="entry 2"):
        AreaSequence((0, -1))


@pytest.mark.parametrize("text, message", [
    ("0,1_0", "entry 2 is not an integer: '1_0'"),
    ("\u0660,\u0661", "entry 1 is not an integer: '\u0660'"),
    (" 0,+1", "entry 1 is not an integer: ' 0'"),
    ("0,+1", "entry 2 is not an integer: '+1'"),
    ("0,1\n", "entry 2 is not an integer: '1\\n'"),
    ("0,,1", "entry 2 is not an integer: ''"),
    ("-1", "entry 1 is negative: -1"),
    ("0,-1", "entry 2 is negative: -1"),
])
def test_parse_area_sequence_takes_only_ascii_integer_tokens(text, message):
    with pytest.raises(ValidationError) as exc:
        parse_area_sequence(text)
    assert str(exc.value) == message


def test_parse_area_sequence_refuses_a_token_past_the_digit_limit():
    with pytest.raises(ValidationError) as exc:
        parse_area_sequence("0," + "1" * 5000)
    assert str(exc.value) == "entry 2 is too long to read: 5000 characters"


def test_area_set_rejects_out_of_range_box():
    with pytest.raises(ValidationError, match=r"\(1,3\)"):
        AreaSet(frozenset({(1, 3)}), 2)
    with pytest.raises(ValidationError, match=r"\(2,2\)"):
        AreaSet(frozenset({(2, 2)}), 3)


def test_area_set_rejects_closure_violation():
    # (1,3) forces (2,3) to be present
    with pytest.raises(ValidationError, match="closure"):
        AreaSet(frozenset({(1, 3)}), 3)


@given(box_sets(max_n=7))
def test_area_set_accepts_exactly_the_closed_box_sets(case):
    n, boxes = case
    if staircase_closed(boxes):
        assert AreaSet(boxes, n).boxes == boxes
    else:
        with pytest.raises(ValidationError, match="closure"):
            AreaSet(boxes, n)


# ------------------------------------------------------------ conversions

def test_word_from_area_sequence_worked_example():
    assert str(word_from_area_sequence(parse_area_sequence("0,1,2,1"))) == "aaabbabb"


def test_word_from_area_sequence_trivial():
    assert str(word_from_area_sequence(parse_area_sequence("0"))) == "ab"
    assert str(word_from_area_sequence(parse_area_sequence("0,0,0"))) == "ababab"


def test_area_sequence_from_word_matches_drawing_oracle():
    # frozen value derived by counting boxes per row on the drawn 3x3 grid
    assert drawn_area_sequence("aabbab") == (0, 1, 0)
    assert area_sequence_from_word(parse_word("aabbab")).entries == (0, 1, 0)
    assert area_sequence_from_word(parse_word("aaabbabb")).entries == (0, 1, 2, 1)
    assert area_sequence_from_word(parse_word("ab")).entries == (0,)


def test_area_set_worked_example_vs_drawing():
    # drawing "aaabbabb": row 2 holds (1,2); row 3 holds (1,3),(2,3); row 4 holds (3,4)
    expected = {(1, 2), (1, 3), (2, 3), (3, 4)}
    assert drawn_boxes("aaabbabb") == expected
    produced = area_set_from_area_sequence(parse_area_sequence("0,1,2,1"))
    assert produced.boxes == frozenset(expected)


def test_area_set_trivial_cases():
    assert area_set_from_area_sequence(parse_area_sequence("0,0,0")).boxes == frozenset()
    assert area_set_from_area_sequence(parse_area_sequence("0,1")).boxes == {(1, 2)}


def test_area_sequence_from_area_set_examples():
    assert area_sequence_from_area_set(AreaSet(frozenset(), 3)).entries == (0, 0, 0)
    assert area_sequence_from_area_set(AreaSet({(1, 2)}, 2)).entries == (0, 1)
    # incomparability boxes of the five-interval worked order
    boxes = {(1, 2), (2, 3), (2, 4), (3, 4), (4, 5)}
    assert area_sequence_from_area_set(AreaSet(boxes, 5)).entries == (0, 1, 1, 2, 1)


def test_round_trips_exhaustive_small():
    for n in range(0, 9):
        for word in enumerate_dyck(n):
            seq = area_sequence_from_word(word)
            assert word_from_area_sequence(seq) == word
            boxes = area_set_from_area_sequence(seq)
            assert area_sequence_from_area_set(boxes) == seq
            assert boxes.boxes == frozenset(drawn_boxes(str(word)))


def test_text_of_area_is_the_text_of_the_path_exhaustive_small():
    # the CLI prints this text without building a DyckWord: for every path
    # with n <= 9 it is the word's text, and it parses back to the word
    assert _text_of_area(()) == ""
    for n in range(0, 10):
        for word in enumerate_dyck(n):
            text = _text_of_area(area_sequence_from_word(word).entries)
            assert text == str(word)
            assert parse_word(text) == word


@given(area_sequences())
def test_round_trips_random(seq):
    word = word_from_area_sequence(seq)
    assert area_sequence_from_word(word) == seq
    assert area_sequence_from_area_set(area_set_from_area_sequence(seq)) == seq


@given(area_sequences())
def test_area_set_emits_closed_sets(seq):
    boxes = area_set_from_area_sequence(seq).boxes
    for i, j in boxes:
        for i2 in range(i, j):
            for j2 in range(i2 + 1, j + 1):
                assert (i2, j2) in boxes


def test_area_set_box_count_is_bounded_before_a_box_is_built():
    # the staircase of 2 000 a's then 2 000 b's has 1 999 000 boxes
    seq = area_sequence_from_word(parse_word("a" * 2000 + "b" * 2000))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(PreconditionError,
                           match=f"limited to {AREA_SET_MAX_BOXES} boxes, got 1999000"):
            area_set_from_area_sequence(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2
    assert peak < 100_000


def test_area_set_at_the_box_bound_converts():
    # 0, 1, ..., 446 holds 99 681 boxes, and a last row of 319 makes 100 000
    seq = AreaSequence(tuple(range(447)) + (319,))
    assert sum(seq.entries) == AREA_SET_MAX_BOXES
    area = area_set_from_area_sequence(seq)
    assert len(area.boxes) == AREA_SET_MAX_BOXES
    assert area_sequence_from_area_set(area) == seq
    with pytest.raises(PreconditionError, match="got 100001"):
        area_set_from_area_sequence(AreaSequence(seq.entries[:-1] + (320,)))


# ------------------------------------------------------------------ peaks

def test_peaks_worked_example():
    found = peaks(parse_word("aaabbabb"))
    assert [p.apex for p in found] == [(0, 3), (2, 4)]
    assert [p.height for p in found] == [3, 2]
    assert [p.word_index for p in found] == [2, 5]


def test_peaks_trivial():
    (only,) = peaks(parse_word("ab"))
    assert only == (0, (0, 1), 1)
    assert [p.height for p in peaks(parse_word("ababab"))] == [1, 1, 1]


def test_final_and_final_maximal_peak():
    word = parse_word("aabbaabbab")
    assert peaks(word)[-1].apex == (4, 5)
    assert final_maximal_peak(word).apex == (2, 4)
    with pytest.raises(PreconditionError):
        final_maximal_peak(DyckWord(""))


def test_every_nonempty_word_has_a_peak():
    for n in range(1, 7):
        for word in enumerate_dyck(n):
            assert peaks(word)


# --------------------------------------------------------- add_final_peak

def test_add_final_peak_worked_example():
    assert str(add_final_peak(parse_word("abaababb"), 2)) == "abaabaabbb"


def test_add_final_peak_simple_cases():
    assert str(add_final_peak(parse_word("ab"), 0)) == "abab"
    grown = add_final_peak(parse_word("aabb"), 1)
    assert str(grown) == "aababb"
    assert peaks(grown)[-1].apex == (1, 3)


def test_add_final_peak_apex_position():
    for n in range(1, 7):
        for word in enumerate_dyck(n):
            trailing = 0
            for step in reversed(word.steps):
                if step != "b":
                    break
                trailing += 1
            for t in range(trailing + 1):
                grown = add_final_peak(word, t)
                assert grown.n == n + 1
                assert peaks(grown)[-1].apex == (n - t, n + 1)


def test_add_final_peak_rejects_excess_t():
    with pytest.raises(PreconditionError, match="trailing"):
        add_final_peak(parse_word("aabb"), 3)


# ------------------------------------------------------------ enumeration

def test_catalan_against_recurrence():
    reference = catalan_by_recurrence(12)
    assert [catalan(n) for n in range(13)] == reference
    assert catalan(10) == 16796


def test_enumerate_dyck_counts():
    assert [str(w) for w in enumerate_dyck(1)] == ["ab"]
    assert sum(1 for _ in enumerate_dyck(3)) == 5
    assert sum(1 for _ in enumerate_dyck(10)) == 16796


def test_enumerate_dyck_order_and_distinctness():
    for n in range(0, 8):
        words = [str(w) for w in enumerate_dyck(n)]
        assert words == sorted(words)
        assert len(set(words)) == len(words) == catalan(n)


def test_parse_area_set_round_trip():
    for n in range(0, 7):
        for word in enumerate_dyck(n):
            boxes = area_set_from_area_sequence(area_sequence_from_word(word))
            assert parse_area_set(str(boxes)) == boxes


@pytest.mark.parametrize("text, message", [
    ("n=+2:1,2", "bad ambient size in 'n=+2'"),
    ("n=1_0:", "bad ambient size in 'n=1_0'"),
    ("n=\u0662: 1 ,2", "bad ambient size in 'n=\u0662'"),
    ("n=2: 1 ,2", "bad box token ' 1 ,2'"),
    ("n=2:+1,2", "bad box token '+1,2'"),
    ("n=2:1,\u0662", "bad box token '1,\u0662'"),
    ("n=-1:", "ambient size must be non-negative, got -1"),
    ("n=3:-1,2", "box (-1,2) violates 1 <= i < j <= n with n = 3"),
])
def test_parse_area_set_takes_only_ascii_integer_tokens(text, message):
    with pytest.raises(ValidationError) as exc:
        parse_area_set(text)
    assert str(exc.value) == message


def test_parse_area_set_rejects_garbage():
    with pytest.raises(ValidationError, match="n=N"):
        parse_area_set("1,2;1,3")
    with pytest.raises(ValidationError, match="box token"):
        parse_area_set("n=3:1-2")
