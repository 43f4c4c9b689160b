"""Tests of the benchmark's own arithmetic and checks (no sweeps run)."""

import statistics

import pytest

from dyckzeta import (enumerate_dyck, enumerate_uio, p_map, parse_word, zeta,
                      zeta_inverse)
from run import pipe_failures, quartiles
from tracing import Tracer, self_time


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# --------------------------------------------------------------- self time

def test_self_time_without_children_is_the_duration():
    assert self_time(2.0, 5.0, []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == 6.0


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == 5.0


def test_self_time_ignores_a_child_inside_another():
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == 6.0


def test_self_time_clips_children_to_the_parent():
    assert self_time(0.0, 10.0, [(-2.0, 1.0), (8.0, 12.0)]) == 7.0


def test_tracer_nested_spans_charge_grandchildren_to_their_parent():
    clock = Clock()
    tracer = Tracer(clock)

    def leaf():
        clock.t += 2

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.t += 1
        leaf()
        clock.t += 1

    middle = tracer.wrap("middle", middle)

    def outer():
        clock.t += 3
        middle()
        leaf()

    tracer.wrap("outer", outer)()
    assert tracer.stats["leaf"] == [2, 4.0]
    assert tracer.stats["middle"] == [1, 2.0]
    assert tracer.stats["outer"] == [1, 3.0]


def test_tracer_iterator_counts_yields_and_times_each_next():
    clock = Clock()
    tracer = Tracer(clock)

    def numbers():
        for i in range(3):
            clock.t += 1
            yield i

    for _ in tracer.wrap_iterator("numbers", numbers)():
        clock.t += 5            # consumer time is not the iterator's
    assert tracer.stats["numbers"] == [3, 3.0]
    assert tracer.iterators["numbers"] == [1]


# -------------------------------------------------------------- quartiles

def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles(values)[1] == statistics.median(values)


def test_quartiles_of_one_value_and_of_none():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


# ------------------------------------------------------- cli-pipe checker

N = 4
WORDS = [str(w) for w in enumerate_dyck(N)]


def zeta_text(line):
    return str(zeta(parse_word(line)))


def p_lines():
    return [str(p_map(u)) for u in enumerate_uio(N)]


def unzeta_lines():
    return [str(zeta_inverse(parse_word(w))) for w in WORDS]


@pytest.mark.parametrize("name, lines", [("p", p_lines), ("unzeta", unzeta_lines)])
def test_pipe_checker_accepts_the_real_output(name, lines):
    assert pipe_failures(name, lines(), WORDS, zeta_text) == 0


@pytest.mark.parametrize("name, lines", [("p", p_lines), ("unzeta", unzeta_lines)])
def test_pipe_checker_flags_one_altered_line(name, lines):
    out = lines()
    out[3] = out[4]
    assert pipe_failures(name, out, WORDS, zeta_text) > 0


@pytest.mark.parametrize("name, lines", [("p", p_lines), ("unzeta", unzeta_lines)])
def test_pipe_checker_flags_one_dropped_line(name, lines):
    out = lines()
    del out[-1]
    assert pipe_failures(name, out, WORDS, zeta_text) > 0
