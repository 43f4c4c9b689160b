import pytest

from dyckzeta import (
    PreconditionError,
    added_peak_parameters,
    catalan,
    diagonal_decomposition,
    enumerate_dyck,
    enumerate_uio,
    extend,
    levels,
    parse_pred,
    parse_word,
    q_map,
    zeta,
    zeta_inverse,
)
from helpers import strip_crossings


# ---------------------------------------------------------- decomposition

def test_diagonal_decomposition_worked_example():
    dec = diagonal_decomposition(parse_word("aaabbabb"))
    assert dec.per_diagonal == (
        ("b",),
        ("a", "b", "b"),
        ("a", "b", "a"),
        ("a",),
    )


def test_diagonal_decomposition_trivial():
    assert diagonal_decomposition(parse_word("ab")).per_diagonal == (("b",), ("a",))
    assert diagonal_decomposition(parse_word("aabb")).per_diagonal == (
        ("b",),
        ("a", "b"),
        ("a",),
    )
    assert diagonal_decomposition(parse_word("")).per_diagonal == ()


def test_decomposition_label_count():
    for n in range(0, 8):
        for word in enumerate_dyck(n):
            dec = diagonal_decomposition(word)
            assert sum(len(b) for b in dec.per_diagonal) == 2 * n
            assert dec.n == n


def test_strip_alternation_exhaustive_small():
    for n in range(1, 8):
        for word in enumerate_dyck(n):
            for t, seq in strip_crossings(str(word)).items():
                assert t >= 1
                assert len(seq) % 2 == 0
                assert seq == ["u", "d"] * (len(seq) // 2)


# ------------------------------------------------------------------- zeta

def test_zeta_twelve_step_example():
    assert str(zeta(parse_word("aaabababbbab"))) == "aababbaaabbb"


def test_zeta_eight_step_example():
    assert str(zeta(parse_word("aaabbabb"))) == "abaababb"


def test_zeta_fixed_point():
    assert str(zeta(parse_word("ab"))) == "ab"


def test_zeta_staircase_to_triangle():
    assert str(zeta(parse_word("ababab"))) == "aaabbb"


def test_zeta_output_valid_and_distinct_exhaustive():
    for n in range(0, 9):
        images = {str(zeta(w)) for w in enumerate_dyck(n)}
        assert len(images) == catalan(n)


# ---------------------------------------------------------------- inverse

def test_zeta_inverse_examples():
    assert str(zeta_inverse(parse_word("aababbaaabbb"))) == "aaabababbbab"
    assert str(zeta_inverse(parse_word("ab"))) == "ab"
    assert str(zeta_inverse(parse_word("aabb"))) == "abab"


def test_zeta_inverse_round_trip_small():
    for n in range(0, 8):
        for word in enumerate_dyck(n):
            assert zeta_inverse(zeta(word)) == word
            assert zeta(zeta_inverse(word)) == word


def test_zeta_inverse_matches_lookup_table_oracle():
    # the table inverts zeta by exhaustion, independently of p and a
    for n in range(0, 9):
        table = {zeta(e).steps: e for e in enumerate_dyck(n)}
        for word in enumerate_dyck(n):
            assert zeta_inverse(word) == table[word.steps]


def test_zeta_inverse_round_trip_past_twelve():
    for text in (
        "ab" * 13,
        "a" * 14 + "b" * 14,
        "aaab" * 5 + "b" * 10,
        "aaabababbbab" + "aaabbabb" + "abaababb" + "aabb",
    ):
        word = parse_word(text)
        assert 13 <= word.n <= 16
        assert zeta(zeta_inverse(word)) == word


# -------------------------------------------------- added peak parameters

def test_added_peak_parameters_worked_example():
    assert added_peak_parameters(parse_pred("0,1,1,2"), 2) == (2, 2)


def test_added_peak_parameters_antichain():
    for n in range(1, 6):
        u = parse_pred(",".join("0" * n))
        assert added_peak_parameters(u, 0) == (n, n)


def test_added_peak_parameters_chain():
    for n in range(1, 6):
        u = parse_pred(",".join(str(i) for i in range(n)))
        assert added_peak_parameters(u, n) == (0, 0)


def test_added_peak_parameters_propagates_extension_errors():
    with pytest.raises(PreconditionError):
        added_peak_parameters(parse_pred("0,1,1,2"), 0)


def test_added_peak_parameters_match_the_level_oracle():
    # the new level read off levels(extend(u, k)), not off the listing
    for n in range(0, 8):
        for u in enumerate_uio(n):
            small, _ = q_map(u)
            for k in range(u.pred[-1] if n else 0, n + 1):
                extended = extend(u, k)
                level = levels(extended)[-1]
                big, trace = q_map(extended)
                after = big.entries[trace.positions[-1] + 1:]
                r = small.entries.count(level) + after.count(level - 1)
                assert added_peak_parameters(u, k) == (r, n - k), (str(u), k)
