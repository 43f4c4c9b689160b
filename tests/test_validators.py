"""The validating constructors against their reference checks.

UnitIntervalOrder, AreaSequence and DyckWord each validate in one pass,
one comparison chain per entry, and pick the message only at the failing
entry.  tests/helpers.py keeps the checks as first written, one rule at a
time; here every small input must get the same verdict and, when rejected,
the same message from both.
"""

from itertools import product

import pytest

from dyckzeta import AreaSequence, DyckWord, UnitIntervalOrder, ValidationError

from helpers import reference_area_check, reference_pred_check, reference_steps_check


def _verdict(check, value):
    """None if check accepts value, else its ValidationError message."""
    try:
        check(value)
    except ValidationError as exc:
        return str(exc)
    return None


def _tuples(alphabet, max_len):
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


def test_integer_constructors_match_the_reference_checks():
    seen = {"accepted": 0, "rejected": 0}
    for entries in _tuples(range(-1, 4), 5):
        for cls, reference in ((UnitIntervalOrder, reference_pred_check),
                               (AreaSequence, reference_area_check)):
            got = _verdict(cls, entries)
            assert got == _verdict(reference, entries), (cls.__name__, entries)
            seen["accepted" if got is None else "rejected"] += 1
    assert min(seen.values()) > 100


def test_dyck_word_matches_the_reference_check():
    messages = set()
    for steps in map("".join, _tuples("abx", 8)):
        got = _verdict(DyckWord, steps)
        assert got == _verdict(reference_steps_check, steps), steps
        messages.add(got and got.split(" ")[0])
    # acceptance and every kind of rejection came up
    assert messages == {None, "path", "step", "unbalanced"}


def test_constructors_keep_their_input_as_a_tuple():
    assert UnitIntervalOrder([0, 1]).pred == (0, 1)
    assert AreaSequence([0, 1]).entries == (0, 1)


def test_dyck_word_refuses_what_is_not_a_str():
    # a path is its a/b text: a list, tuple or bytes of letters is refused
    # at the boundary, not stored
    for steps in (["a", "b"], ("a", "b"), b"ab", None):
        with pytest.raises(ValidationError, match="must be a str"):
            DyckWord(steps)
    assert DyckWord("ab").steps == "ab" == str(DyckWord("ab"))
