"""The validating constructors against their reference checks.

UnitIntervalOrder, AreaSequence and DyckWord each validate in one pass,
one comparison chain per entry, and pick the message only at the failing
entry.  tests/helpers.py keeps the checks as first written, one rule at a
time; here every small input must get the same verdict and, when rejected,
the same message from both.
"""

from itertools import product

from dyckzeta import AreaSequence, DyckWord, Step, UnitIntervalOrder, ValidationError

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
    for steps in _tuples((Step.UP, Step.RIGHT, "a"), 8):
        got = _verdict(DyckWord, steps)
        assert got == _verdict(reference_steps_check, steps), steps
        messages.add(got and got.split(" ")[0])
    # acceptance and every kind of rejection came up
    assert messages == {None, "path", "step", "unbalanced"}


def test_constructors_keep_their_input_as_a_tuple():
    assert UnitIntervalOrder([0, 1]).pred == (0, 1)
    assert AreaSequence([0, 1]).entries == (0, 1)
    assert DyckWord([Step.UP, Step.RIGHT]).steps == (Step.UP, Step.RIGHT)
