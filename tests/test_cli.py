import io
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import dyckzeta

from dyckzeta import (
    DyckWord,
    IntervalConfiguration,
    UnitIntervalOrder,
    VerificationReport,
    a_inverse,
    area_sequence_from_word,
    area_set_from_area_sequence,
    catalan,
    enumerate_dyck,
    enumerate_uio,
    a_map,
    harness,
    p_map,
    parse_pred,
    parse_word,
    q_map,
    uio_from_intervals,
    word_from_area_sequence,
    zeta,
    zeta_inverse,
)
from dyckzeta import cli, partlist, uio
from dyckzeta.cli import main
from dyckzeta.lattice import AREA_SET_TEXT_MAX_N
from helpers import pred_vectors, rewrite_kernel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- maps

def test_map_zeta_worked_example(capsys):
    code, out, _ = run(capsys, "map", "--name", "zeta", "aaabababbbab")
    assert code == 0
    assert out.strip() == "aababbaaabbb"


def test_map_q_worked_example(capsys):
    code, out, _ = run(capsys, "map", "--name", "q", "0,0,1,1,3")
    assert code == 0
    assert out.strip() == "0,1,2,1,0"


def test_map_a_p_unzeta_and_inverse(capsys):
    assert run(capsys, "map", "--name", "a", "0,1,1,2")[1].strip() == "abaababb"
    assert run(capsys, "map", "--name", "p", "0,1,1,2")[1].strip() == "aaabbabb"
    assert run(capsys, "map", "--name", "unzeta", "abaababb")[1].strip() == "aaabbabb"
    assert run(capsys, "map", "--name", "a-inverse", "abaababb")[1].strip() == "0,1,1,2"


def test_map_rejects_invalid_object(capsys):
    code, _, err = run(capsys, "map", "--name", "zeta", "abba")
    assert code == 2
    assert "below the diagonal" in err


# ------------------------------------------------------------ conversions

def test_convert_word_to_areaset(capsys):
    code, out, _ = run(capsys, "convert", "--from", "word", "--to", "areaset", "aaabbabb")
    assert code == 0
    assert out.strip() == "n=4:1,2;1,3;2,3;3,4"


def test_convert_intervals_to_pred(capsys):
    text = (
        '[{"num":0,"den":1},{"num":2,"den":3},{"num":7,"den":6},'
        '{"num":3,"den":2},{"num":7,"den":3}]'
    )
    code, out, _ = run(capsys, "convert", "--from", "intervals", "--to", "pred", text)
    assert code == 0
    assert out.strip() == "0,0,1,1,3"


def test_convert_rejects_boolean_interval_endpoints(capsys):
    text = '[{"num": true, "den": true}, {"num": 3, "den": 1}]'
    code, out, err = run(capsys, "convert", "--from", "intervals", "--to", "pred", text)
    assert (code, out) == (2, "")
    assert "num and den must be integers" in err


def test_convert_rejects_intervals_as_target(capsys):
    code, _, err = run(capsys, "convert", "--from", "word", "--to", "intervals", "ab")
    assert code == 2


def test_convert_round_trips_hub_level():
    # textual A -> B -> A identity for every encoding pair, exhaustively
    kinds = ("word", "areaseq", "areaset", "pred")
    for n in range(0, 9):
        for word in enumerate_dyck(n):
            seq = area_sequence_from_word(word)
            texts = {
                "word": str(word),
                "areaseq": str(seq),
                "areaset": str(area_set_from_area_sequence(seq)),
                "pred": ",".join(
                    str(j - 1 - a) for j, a in enumerate(seq.entries, start=1)
                ),
            }
            for src in kinds:
                for dst in kinds:
                    mid = cli._FROM_AREA[dst](cli._TO_AREA[src](texts[src]))
                    back = cli._FROM_AREA[src](cli._TO_AREA[dst](mid))
                    assert back == texts[src]


def test_convert_round_trips_through_cli(capsys):
    for n in range(0, 6):
        for u in enumerate_uio(n):
            pred_text = str(u)
            code, word_text, _ = run(
                capsys, "convert", "--from", "pred", "--to", "word", pred_text
            )
            assert code == 0
            assert word_text.strip() == str(a_map(u))
            code, back, _ = run(
                capsys, "convert", "--from", "word", "--to", "pred", word_text.strip()
            )
            assert code == 0
            assert back.strip() == pred_text


# ----------------------------------------------------------------- verify

def test_verify_theorem_tiny(capsys):
    code, out, _ = run(capsys, "verify", "--check", "theorem", "--n", "1")
    assert code == 0
    assert "instances=1" in out
    assert "failures=0" in out
    assert "PASS" in out


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "--check", "bijections", "--n", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["check"] == "bijections"
    assert blob["instances"] == 5
    assert blob["failures"] == []


def test_verify_exit_one_on_failures(capsys, monkeypatch):
    from dyckzeta.harness import Failure

    failing = VerificationReport(
        "theorem",
        2,
        2,
        (Failure(0, (("pred", "0,0"),), "a(U) == zeta(p(U))", "x", "y"),),
        0.0,
    )
    monkeypatch.setitem(
        cli.harness.CHECKS, "theorem", lambda n, jobs=1, max_n=None: failing
    )
    code, out, _ = run(capsys, "verify", "--check", "theorem", "--n", "2")
    assert code == 1
    assert "FAIL" in out


_THEOREM_SHARD = harness._theorem_shard


def _dying_shard(n, lo, hi):
    """The theorem shard, except that the worker whose ranks start past 0
    dies at once, as a worker killed by the system would."""
    if lo > 0:
        os._exit(3)
    return _THEOREM_SHARD(n, lo, hi)


def test_verify_with_a_dead_worker_is_an_error_not_a_failure(capsys, monkeypatch):
    # status 1 means counterexamples; a sweep that lost a worker has no
    # verdict, so it exits 2 with one error line, and no worker outlives it
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_theorem_shard", _dying_shard)
    code, out, err = run(capsys, "verify", "--check", "theorem", "--n", "6",
                         "--jobs", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: a worker process died: ") and err.count("\n") == 1
    assert multiprocessing.active_children() == []


def _raising_shard(n, lo, hi):
    """The theorem shard, except that the last shard (at two jobs, the one
    whose ranks start past 0) raises, as a fault in the sweep's code would."""
    if hi == catalan(n):
        raise IndexError("index out of range")
    return _THEOREM_SHARD(n, lo, hi)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_with_a_shard_that_raises_is_an_error_not_a_failure(capsys, monkeypatch, jobs):
    # at one job the shard runs in this process, at two in a worker: either
    # way the sweep has no verdict, so one error line, status 2, no child left
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_theorem_shard", _raising_shard)
    code, out, err = run(capsys, "verify", "--check", "theorem", "--n", "6",
                         "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == "error: theorem shard raised IndexError: index out of range\n"
    assert multiprocessing.active_children() == []


def test_a_shard_error_keeps_its_cause():
    with pytest.raises(dyckzeta.SweepError) as caught:
        harness._sweep("theorem", 6, 132, 1, lambda n, lo, hi: ().index(0))
    assert isinstance(caught.value.__cause__, ValueError)


def test_verify_with_a_truncated_enumeration_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr(harness, "_theorem_shard", lambda n, lo, hi: (hi - lo - 1, []))
    code, out, err = run(capsys, "verify", "--check", "theorem", "--n", "4",
                         "--jobs", "1")
    assert (code, out) == (2, "")
    assert err == "error: theorem enumeration truncated: saw 13 of 14 instances\n"


def test_verify_offers_exactly_the_harness_checks():
    # one table of checks: --check's choices, verify's dispatch and the
    # ceilings share its keys
    (verbs,) = [a for a in cli.build_parser()._actions if a.dest == "verb"]
    (check,) = [a for a in verbs.choices["verify"]._actions if a.dest == "check"]
    assert list(check.choices) == list(cli.harness.CHECKS) == list(
        cli.harness.DEFAULT_CEILINGS)
    assert cli.harness.CHECKS["induction"] is cli.harness.check_induction_step


def test_verify_ceiling_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--check", "grevlex", "--n", "15")
    assert code == 2
    assert "capped" in err


@pytest.mark.parametrize("check", ["theorem", "induction", "bijections", "grevlex"])
def test_verify_refuses_a_huge_n_before_counting_its_orders(capsys, monkeypatch, check):
    # catalan(n) of a huge n takes minutes: the listing bound comes first
    def catalan(n):
        raise AssertionError(f"catalan({n}) computed")

    monkeypatch.setattr(cli.harness, "catalan", catalan)
    n = str(10 ** 7)
    code, out, err = run(capsys, "verify", "--check", check, "--n", n, "--max-n", n)
    assert (code, out) == (2, "")
    assert err == f"error: listed orders have size <= 255, got {n}\n"


def test_verify_grevlex_reports_are_equal_at_one_and_two_jobs(capsys, monkeypatch):
    # the letter lands one place further right at depth 4: a corruption
    # that does not depend on where a shard starts, flagged alike by both
    rewrite_kernel(monkeypatch, {
        "grown": "pos += i == 4 and pos < i\ngrown = cur[:pos] + letters[level] + cur[pos:]"})
    monkeypatch.setattr(cli.harness.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--check", "grevlex", "--n", "7",
                           "--jobs", jobs, "--json")
        assert code == 1
        report = json.loads(out)
        del report["elapsed_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert len(reports[0]["failures"]) == 218


@pytest.mark.parametrize("check", ["theorem", "induction", "bijections", "grevlex"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_refuses_fewer_than_one_job(capsys, check, jobs):
    code, out, err = run(capsys, "verify", "--check", check, "--n", "3",
                         "--jobs", jobs)
    assert (code, out) == (2, "")
    assert f"needs at least 1 worker, got {jobs}" in err


@pytest.mark.parametrize("max_n", ["0", "-5"])
def test_verify_refuses_a_ceiling_below_one(capsys, max_n):
    code, out, err = run(capsys, "verify", "--check", "theorem", "--n", "3",
                         "--max-n", max_n)
    assert (code, out) == (2, "")
    assert f"argument --max-n: needs a ceiling of at least 1, got {max_n}\n" in err


def test_verify_takes_a_ceiling_of_one(capsys):
    code, out, err = run(capsys, "verify", "--check", "theorem", "--n", "1", "--max-n", "1")
    assert (code, err) == (0, "") and "PASS" in out
    code, out, err = run(capsys, "verify", "--check", "theorem", "--n", "2", "--max-n", "1")
    assert (code, out, err) == (2, "", "error: theorem check capped at n = 1; "
                                       "pass max_n to raise it\n")


def test_verify_jobs_env_default(capsys, monkeypatch):
    # the default is the usable CPUs: three of them ask each pooled check for
    # three jobs, and a stale DYCKZETA_JOBS in the environment changes nothing
    seen = []
    passing = VerificationReport("any", 4, 14, (), 0.0)
    monkeypatch.setenv("DYCKZETA_JOBS", "2")
    monkeypatch.setattr(cli.harness.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    for check in ("theorem", "induction", "bijections"):
        monkeypatch.setitem(cli.harness.CHECKS, check,
                            lambda n, jobs=1, max_n=None: seen.append(jobs) or passing)
    for check in ("theorem", "induction", "bijections"):
        code, out, _ = run(capsys, "verify", "--check", check, "--n", "4")
        assert code == 0 and "PASS" in out
    assert seen == [3, 3, 3]


def test_verify_huge_jobs_env_is_capped_at_usable_cpus(capsys, monkeypatch):
    # one usable CPU: neither the default nor a huge --jobs starts a pool,
    # with or without a huge stale DYCKZETA_JOBS in the environment
    def no_pool(*args, **kwargs):
        raise AssertionError("one usable CPU must not start a pool")

    monkeypatch.setattr(cli.harness.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(cli.harness, "ProcessPoolExecutor", no_pool)
    for env in ((), ("50000",)):
        for value in env:
            monkeypatch.setenv("DYCKZETA_JOBS", value)
        for jobs in ((), ("--jobs", "50000")):
            code, out, _ = run(capsys, "verify", "--check", "theorem", "--n", "4",
                               *jobs)
            assert code == 0 and "PASS" in out


def cli_process(*argv, env=(), **kwargs):
    """`python -m dyckzeta.cli argv` as a process that imports this package."""
    src = os.path.dirname(os.path.dirname(dyckzeta.__file__))
    env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.Popen([sys.executable, "-m", "dyckzeta.cli", *argv],
                            env=env, **kwargs)


def test_ctrl_c_in_a_pooled_verify_exits_2_without_tracebacks():
    # SIGINT goes to the whole process group, as Ctrl-C in a terminal does;
    # n = 13 runs for seconds, so the signal lands while the pool works
    proc = cli_process(
        "verify", "--check", "theorem", "--n", "13", "--jobs", "2",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        time.sleep(1.0)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, out, err) == (2, "", "error: interrupted\n")
    with pytest.raises(ProcessLookupError):     # no worker outlived the run
        os.killpg(proc.pid, 0)


# -------------------------------------------------------------- enumerate

def test_enumerate_dyck_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "dyck", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == sorted(lines)
    assert len(lines) == 5
    assert lines[0] == "aaabbb"
    # a(U) in rank order is enumerate_dyck's list
    for n in range(10):
        assert run(capsys, "enumerate", "--kind", "dyck", "--n", str(n)) == (
            0, word_lines(n), "")


def test_enumerate_uio_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "uio", "--n", "3")
    assert code == 0
    assert out.strip().split("\n") == ["0,0,0", "0,0,1", "0,0,2", "0,1,1", "0,1,2"]


@pytest.mark.parametrize("kind", ["dyck", "uio"])
def test_enumerate_refuses_a_size_past_the_listing_bound_before_enumerating(
    capsys, monkeypatch, kind
):
    # map refuses such orders anyway; enumerate would buffer a block of
    # lines of that size before writing any
    def enumerate_uio(n):
        raise AssertionError("a refused size was enumerated")

    monkeypatch.setattr(cli, "enumerate_uio", enumerate_uio)
    top = partlist.LISTING_MAX_N
    for n in (top + 1, 10 ** 7):
        code, out, err = run(capsys, "enumerate", "--kind", kind, "--n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: listed orders have size <= {top}, got {n}\n"


# ----------------------------------------------------------------- render

def test_render_ascii_small(capsys):
    code, out, _ = run(capsys, "render", "ab")
    assert code == 0
    assert out == "+-+\n|/\n+ +\n"


def test_render_ascii_has_expected_footprint(capsys):
    code, out, _ = run(capsys, "render", "aabbab")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("+")
    assert out.count("/") == 3


#: render --format svg --diagonals of aabb and aabbab: grid lines (vertical
#: and horizontal in turn), main diagonal, reading diagonals, path
SVG_WITH_DIAGONALS = {
    "aabb": """\
<svg xmlns="http://www.w3.org/2000/svg" width="100" height="100" viewBox="0 0 100 100">
<line x1="10" y1="90" x2="10" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="90" x2="90" y2="90" stroke="#cccccc" stroke-width="1"/>
<line x1="50" y1="90" x2="50" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="50" x2="90" y2="50" stroke="#cccccc" stroke-width="1"/>
<line x1="90" y1="90" x2="90" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="10" x2="90" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="90" x2="90" y2="10" stroke="#555555" stroke-width="1" stroke-dasharray="6,4"/>
<line x1="10" y1="50" x2="50" y2="10" stroke="#999999" stroke-width="1" stroke-dasharray="2,4"/>
<polyline points="10,90 10,50 10,10 50,10 90,10" fill="none" stroke="#1f4fd8" stroke-width="4" stroke-linecap="square"/>
</svg>
""",
    "aabbab": """\
<svg xmlns="http://www.w3.org/2000/svg" width="140" height="140" viewBox="0 0 140 140">
<line x1="10" y1="130" x2="10" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="130" x2="130" y2="130" stroke="#cccccc" stroke-width="1"/>
<line x1="50" y1="130" x2="50" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="90" x2="130" y2="90" stroke="#cccccc" stroke-width="1"/>
<line x1="90" y1="130" x2="90" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="50" x2="130" y2="50" stroke="#cccccc" stroke-width="1"/>
<line x1="130" y1="130" x2="130" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="10" x2="130" y2="10" stroke="#cccccc" stroke-width="1"/>
<line x1="10" y1="130" x2="130" y2="10" stroke="#555555" stroke-width="1" stroke-dasharray="6,4"/>
<line x1="10" y1="90" x2="90" y2="10" stroke="#999999" stroke-width="1" stroke-dasharray="2,4"/>
<line x1="10" y1="50" x2="50" y2="10" stroke="#999999" stroke-width="1" stroke-dasharray="2,4"/>
<polyline points="10,130 10,90 10,50 50,50 90,50 90,10 130,10" fill="none" stroke="#1f4fd8" stroke-width="4" stroke-linecap="square"/>
</svg>
""",
}


def test_render_svg(capsys):
    # without --diagonals the same text lacks the reading diagonals (#999999)
    for word, full in SVG_WITH_DIAGONALS.items():
        code, out, _ = run(capsys, "render", word, "--format", "svg", "--diagonals")
        assert (code, out) == (0, full)
        code, out, _ = run(capsys, "render", word, "--format", "svg")
        assert (code, out) == (0, "".join(
            line for line in full.splitlines(True) if "#999999" not in line))


def test_render_ascii_is_bounded_before_the_canvas_is_drawn(capsys):
    top = cli.RENDER_ASCII_MAX_N
    code, out, _ = run(capsys, "render", "a" * top + "b" * top)
    assert code == 0
    assert len(out.split("\n")) == 2 * top + 2
    code, out, err = run(capsys, "render", "a" * (top + 1) + "b" * (top + 1))
    assert (code, out) == (2, "")
    assert f"limited to n <= {top}, got n = {top + 1}" in err
    code, out, _ = run(capsys, "render", "--format", "svg",
                       "a" * (top + 1) + "b" * (top + 1))
    assert code == 0 and out.startswith("<svg")


@pytest.mark.parametrize("name, line", [
    ("p", lambda n: ",".join(["0"] * n)),
    ("q", lambda n: ",".join(["0"] * n)),
    ("unzeta", lambda n: "a" * n + "b" * n),
])
def test_map_walk_is_bounded_before_a_line_is_walked(capsys, monkeypatch, name, line):
    # the walk keeps a listing per prefix of a line, so a line past
    # LISTING_MAX_N entries is refused before any is inserted
    top = partlist.LISTING_MAX_N
    code, out, _ = run(capsys, "map", "--name", name, line(top))
    assert code == 0
    assert out.count("\n") == 1 and len(out) > top

    class Unwalked:
        def __getitem__(self, level):
            raise AssertionError("a refused line was walked")

    monkeypatch.setattr(partlist, "_LETTERS", Unwalked())   # every insertion reads it
    code, out, err = run(capsys, "map", "--name", name, line(top + 1))
    assert (code, out) == (2, "")
    assert err == f"error: listed orders have size <= {top}, got {top + 1}\n"


def test_convert_bounds_the_area_set_size_before_allocating(capsys):
    top = AREA_SET_TEXT_MAX_N
    code, out, _ = run(capsys, "convert", "--from", "areaset", "--to", "areaseq",
                       f"n={top}:")
    assert code == 0
    assert out == ",".join(["0"] * top) + "\n"
    code, out, err = run(capsys, "convert", "--from", "areaset", "--to", "areaseq",
                         f"n={top + 1}:")
    assert (code, out) == (2, "")
    assert f"area set size n = {top + 1} exceeds {top}" in err


def test_render_rejects_bad_word(capsys):
    code, _, err = run(capsys, "render", "ba")
    assert code == 2
    assert "below the diagonal" in err


# ------------------------------------------------------------------ usage

def test_unknown_verb_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert run(capsys, "enumerate", "--n", "3")[0] == 2


# ------------------------------------------------------------------ pipes

def test_map_streams_stdin_lines(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,0,0\n0,1,2\n"))
    code, out, _ = run(capsys, "map", "--name", "p")
    assert code == 0
    assert out.strip().split("\n") == ["ababab", "aaabbb"]


def test_enumerate_pipes_into_map(capsys, monkeypatch):
    code, enumerated, _ = run(capsys, "enumerate", "--kind", "uio", "--n", "4")
    monkeypatch.setattr("sys.stdin", io.StringIO(enumerated))
    code, words, _ = run(capsys, "map", "--name", "a")
    assert code == 0
    images = words.strip().split("\n")
    assert len(images) == 14
    assert len(set(images)) == 14


def test_convert_streams_stdin_lines(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("aabb\nabab\n"))
    code, out, _ = run(capsys, "convert", "--from", "word", "--to", "areaseq")
    assert code == 0
    assert out.strip().split("\n") == ["0,1", "0,0"]


def map_stdin(capsys, monkeypatch, name, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, "map", "--name", name)


@pytest.mark.parametrize("name, kind, per_line", [
    ("p", "uio", lambda line: p_map(parse_pred(line))),
    ("unzeta", "dyck", lambda line: zeta_inverse(parse_word(line))),
    ("q", "uio", lambda line: q_map(parse_pred(line))[0]),
    ("a", "uio", lambda line: a_map(parse_pred(line))),
    ("zeta", "dyck", lambda line: zeta(parse_word(line))),
    ("a-inverse", "dyck", lambda line: a_inverse(parse_word(line))),
])
def test_streamed_map_equals_the_per_line_map(capsys, monkeypatch, name, kind, per_line):
    # p, q and unzeta share one insertion walk over the stream; in
    # enumerate order and shuffled, every output line is the per-line map's
    for n in range(9):
        _, enumerated, _ = run(capsys, "enumerate", "--kind", kind, "--n", str(n))
        lines = enumerated.splitlines()
        shuffled = random.Random(n).sample(lines, len(lines))
        for order in (lines, shuffled):
            code, out, _ = map_stdin(capsys, monkeypatch, name, "".join(
                line + "\n" for line in order))
            assert code == 0
            assert out == "".join(f"{per_line(line)}\n" for line in order)


def forbid(monkeypatch, target):
    """Make a constructor's validation, or every package binding of a
    function, fail the test when called."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{target.__name__} called")

    if isinstance(target, type):
        monkeypatch.setattr(target, "__post_init__", refuse)
        return
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dyckzeta":
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, refuse)


def area_sequence_lines(n):
    return "".join(f"{area_sequence_from_word(w)}\n" for w in enumerate_dyck(n))


def word_lines(n):
    return "".join(f"{w}\n" for w in enumerate_dyck(n))


def pred_lines(n):
    return "".join(f"{u}\n" for u in enumerate_uio(n))


@pytest.mark.parametrize("argv, lines, target", [
    (("map", "--name", "unzeta"), word_lines, UnitIntervalOrder),
    (("map", "--name", "q"), pred_lines, q_map),
    (("convert", "--from", "pred", "--to", "areaseq"), pred_lines, DyckWord),
    (("convert", "--from", "areaseq", "--to", "pred"), area_sequence_lines, DyckWord),
    (("map", "--name", "p"), pred_lines, DyckWord),
    (("map", "--name", "unzeta"), word_lines, word_from_area_sequence),
    (("convert", "--from", "areaseq", "--to", "word"), area_sequence_lines,
     word_from_area_sequence),
    (("map", "--name", "unzeta"), word_lines, DyckWord),
    (("enumerate", "--kind", "dyck", "--n", "6"), word_lines, DyckWord),
], ids=["unzeta", "q", "pred-to-areaseq", "areaseq-to-pred", "p-text",
        "unzeta-text", "areaseq-to-word-text", "unzeta-word", "dyck-enumerate"])
def test_hub_paths_build_no_detour(capsys, monkeypatch, argv, lines, target):
    # unzeta reads pred off the word's bytes, q reads the walk, convert
    # crosses between orders and area sequences without a path, paths are
    # printed as the text of their checked area sequence, and enumerate
    # prints a(U) as such a text: the same output with the detour made to
    # fail
    text = lines(6)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    expected = run(capsys, *argv)
    assert expected[0] == 0 and expected[1].count("\n") == text.count("\n")
    forbid(monkeypatch, target)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, *argv) == expected


def path_encodings(word):
    """The texts of one path in every convert target, from the objects."""
    seq = area_sequence_from_word(word)
    return {"word": str(word), "areaseq": str(seq),
            "areaset": str(area_set_from_area_sequence(seq)),
            "pred": str(a_inverse(word))}


def test_convert_streams_every_pair_in_any_order(capsys, monkeypatch):
    # every source and target for every path with n <= 8 (intervals: random
    # realizations), in enumerate order and shuffled, and a bad line exits 2
    # after the lines before it
    rng = random.Random(7)
    cases = {src: [] for src in ("word", "areaseq", "areaset", "pred", "intervals")}
    for n in range(9):
        for word in enumerate_dyck(n):
            texts = path_encodings(word)
            for src in ("word", "areaseq", "areaset", "pred"):
                cases[src].append((texts[src], texts))
    for _ in range(400):
        lefts = sorted(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(rng.randint(0, 8)))
        text = json.dumps([{"num": x.numerator, "den": x.denominator} for x in lefts])
        word = a_map(uio_from_intervals(IntervalConfiguration(tuple(lefts))))
        cases["intervals"].append((text, path_encodings(word)))
    bad = {"word": "abba", "areaseq": "0,2", "areaset": "n=2:1,3",
           "pred": "0,2", "intervals": "[1]"}
    for src, pairs in cases.items():
        for dst in ("word", "areaseq", "areaset", "pred"):
            for order in (pairs, rng.sample(pairs, len(pairs))):
                monkeypatch.setattr("sys.stdin", io.StringIO(
                    "".join(f"{text}\n" for text, _ in order)))
                code, out, _ = run(capsys, "convert", "--from", src, "--to", dst)
                assert code == 0
                assert out == "".join(f"{texts[dst]}\n" for _, texts in order)
            head = pairs[:20]
            monkeypatch.setattr("sys.stdin", io.StringIO("".join(
                f"{text}\n" for text in [t for t, _ in head] + [bad[src], pairs[0][0]])))
            code, out, err = run(capsys, "convert", "--from", src, "--to", dst)
            assert (code, out) == (2, "".join(f"{texts[dst]}\n" for _, texts in head))
            assert err.startswith("error: ")


#: every kind of step letter, and a character that is none
UNZETA_LETTERS = "abUR10x"


def per_line_unzeta(line):
    """(exit status, stdout, stderr) of unzeta on one line, by the objects."""
    try:
        return 0, f"{zeta_inverse(parse_word(line))}\n", ""
    except dyckzeta.ValidationError as exc:
        return 2, "", f"error: {exc}\n"


def test_unzeta_answers_every_short_line_as_the_objects_do(capsys, monkeypatch):
    # every line of length <= 6 over UNZETA_LETTERS (137 257 lines, about a
    # second), of length 7 and 8 over a, b and x, and lines with a
    # non-ASCII letter or a lone surrogate
    lines = [*("".join(t) for k in range(7) for t in product(UNZETA_LETTERS, repeat=k)),
             *("".join(t) for k in (7, 8) for t in product("abx", repeat=k)),
             "é", "aébb", "ａｂ", "ab\udc80b", "\udc80"]
    expected = {line: per_line_unzeta(line) for line in lines}
    # C_m * 9^m paths of size m <= 3 over six step letters, C_4 over a and b
    assert sum(code == 0 for code, _, _ in expected.values()) == 3817 + 14
    # a main() call per line from argv, for the lines of length <= 3 and
    # the odd characters
    for line in lines:
        if len(line) <= 3 or not line.isascii():
            assert run(capsys, "map", "--name", "unzeta", line) == expected[line], line
    # every line through the code each of those runs
    for line in lines:
        try:
            got = 0, f"{next(cli._apply_named_map('unzeta', [line]))}\n", ""
        except dyckzeta.ValidationError as exc:
            got = 2, "", f"error: {exc}\n"
        assert got == expected[line], line
    # and the lines that are paths as one stream
    paths = [line for line in lines if expected[line][0] == 0]
    stream = "".join(line + "\n" for line in paths)
    assert map_stdin(capsys, monkeypatch, "unzeta", stream) == (
        0, "".join(expected[line][1] for line in paths), "")


@pytest.mark.parametrize("argv", [
    ("map", "--name", "unzeta"), ("map", "--name", "a-inverse"),
    ("convert", "--from", "word", "--to", "areaseq"),
], ids=["unzeta", "a-inverse", "convert"])
def test_word_lines_fail_loudly_where_the_order_rule_and_the_parser_disagree(
    capsys, monkeypatch, argv
):
    # every word line is read by _pred_of_word: a line its bytes rule
    # refuses but parse_word accepts is never printed
    monkeypatch.setattr(cli, "parse_word", lambda line: None)
    with pytest.raises(RuntimeError, match="parse_word accepts 'ba'"):
        run(capsys, *argv, "ba")
    assert capsys.readouterr().out == ""


def test_map_refuses_a_token_int_would_take(capsys):
    code, out, err = run(capsys, "map", "--name", "p", "0,1_0")
    assert (code, out) == (2, "")
    assert err == "error: entry 2 is not an integer: '1_0'\n"


def test_map_refuses_a_token_past_the_digit_limit(capsys):
    code, out, err = run(capsys, "map", "--name", "p", "9" * 5000)
    assert (code, out) == (2, "")
    assert err == "error: entry 1 is too long to read: 5000 characters\n"


def read_last(lines):
    """The last line's vector as the map's pred reader reads it after the
    lines before it, or the message of the line it refuses."""
    try:
        return [tuple(pred) for _, pred in uio._preds(lines)][-1]
    except dyckzeta.ValidationError as exc:
        return str(exc)


def parse_verdict(line):
    try:
        return parse_pred(line).pred
    except dyckzeta.ValidationError as exc:
        return str(exc)


#: one-character tokens: digits, what int() takes beside them (a sign, an
#: underscore, a space, non-ASCII digits), and the empty token
READER_TOKENS = ["0", "1", "2", "3", "-", "+", "_", " ", "\u0661", "\u00b2", ""]


def test_pred_reader_accepts_exactly_what_parse_pred_accepts():
    # every line of up to 3 tokens, read alone and after each line that
    # keeps a prefix of it: the same vector or the same message
    lines = {",".join(t) for k in range(4) for t in product(READER_TOKENS, repeat=k)}
    before = ["0", "0,0", "0,1", "0,0,0", "0,1,1", "0,1,2", "0,0,1,1"]
    accepted = 0
    for line in sorted(lines):
        verdict = parse_verdict(line)
        accepted += type(verdict) is tuple
        assert read_last([line]) == verdict, line
        for prev in before:
            assert read_last([prev, line]) == verdict, (prev, line)
    assert accepted == 1 + 1 + 2 + 5     # C_n orders of size n <= 3, and ""


@pytest.mark.parametrize("lines, verdict", [
    (["0,1,2", "0,1,0"], "pred[3] = 0 breaks weak monotonicity (pred[2] = 1)"),
    (["0,0,0", "0,0,3"], "pred[3] = 3 outside 0..2"),
    (["0,1,1", "0,1,-0"], "pred[3] = 0 breaks weak monotonicity (pred[2] = 1)"),
    (["0,1", "-0,1"], (0, 1)),
    (["0,1", "0,-0,-0"], (0, 0, 0)),
    (["0,1,2", "0,1,007"], "pred[3] = 7 outside 0..2"),
    (["0,0", "0,01,002"], (0, 1, 2)),
    (["0,0", "00,00"], (0, 0)),
    (["0,0", "0," + "9" * 5000], "entry 2 is too long to read: 5000 characters"),
    (["0,0", "0,0,"], "entry 3 is not an integer: ''"),
    (["0,0", "0,0,1,"], "entry 4 is not an integer: ''"),
    (["0," * 300 + "0", "0," * 300 + "x"], "entry 301 is not an integer: 'x'"),
])
def test_pred_reader_edge_cases(lines, verdict):
    # a changed suffix read against the kept prefix, a changed bound, "-0"
    # and leading zeros, a token past int()'s digit limit, a trailing comma
    assert parse_verdict(lines[-1]) == verdict
    assert read_last(lines) == read_last(lines[-1:]) == verdict


def test_a_bad_line_past_the_listing_bound_gets_its_own_message(capsys, monkeypatch):
    # a bad token on a line of 256 entries is the parser's error; a clean
    # line of 256 entries is refused by the walk's bound
    top = partlist.LISTING_MAX_N
    stream = ",".join(["0"] * top) + "\n" + ",".join(["0"] * top + ["x"]) + "\n"
    code, out, err = map_stdin(capsys, monkeypatch, "p", stream)
    assert (code, out.count("\n"), err) == (2, 1, f"error: entry {top + 1} is not an integer: 'x'\n")
    stream = ",".join(["0"] * top) + "\n" + ",".join(["0"] * (top + 1)) + "\n"
    code, out, err = map_stdin(capsys, monkeypatch, "p", stream)
    assert (code, out.count("\n")) == (2, 1)
    assert err == f"error: listed orders have size <= {top}, got {top + 1}\n"


@settings(max_examples=200)
@given(st.lists(pred_vectors(max_n=8), max_size=16), st.randoms(use_true_random=False))
def test_streamed_p_and_q_equal_the_object_maps_on_any_stream(orders, rng):
    # mixed sizes, shuffled, each order repeated at once and again later
    stream = orders + rng.sample(orders, len(orders))
    stream = [u for u in stream for _ in range(rng.randint(1, 2))]
    lines = [str(u) for u in stream]
    assert list(cli._apply_named_map("p", lines)) == [str(p_map(u)) for u in stream]
    assert list(cli._apply_named_map("q", lines)) == [str(q_map(u)[0]) for u in stream]


def test_streamed_map_over_mixed_sizes_stops_at_a_bad_line(capsys, monkeypatch):
    # sizes up and down, a repeat, the empty order, a shorter line that
    # changes a prefix a longer one then extends, then a line that is no
    # order: every line before it is printed, then exit 2
    good = ["0,0,1,1", "0,0,1", "0,0,1", "", "0,1,1,2,2", "0,1", "0,0", "0,0,1,1", "0"]
    stream = good + ["0,2", "0,0"]
    code, out, err = map_stdin(capsys, monkeypatch, "p", "\n".join(stream) + "\n")
    assert code == 2
    assert out == "".join(f"{p_map(parse_pred(line))}\n" for line in good)
    assert err == "error: pred[2] = 2 outside 0..1\n"


def test_streamed_map_checks_each_listing_as_an_area_sequence(capsys, monkeypatch):
    # the walk's insertion writes level 1 as 2, so q(0,1) = 0,1 comes out
    # 0,2: the walk's flag reads the letter it wrote, and the output line is
    # refused by AreaSequence after the lines before it, for p and for q
    letters = list(partlist._LETTERS)
    letters[1] = letters[2]
    monkeypatch.setattr(partlist, "_LETTERS", tuple(letters))
    for name, first in (("p", "abab\n"), ("q", "0,0\n")):
        code, out, err = map_stdin(capsys, monkeypatch, name, "0,0\n0,1\n0,0\n")
        assert (code, out) == (2, first)
        assert err == "error: entry 2 is 2, exceeding entry 1 + 1 = 1\n"


# ---------------------------------------------------------- line streams

class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class Terminal(io.StringIO):
    """A stdin that says it is a terminal."""

    def isatty(self):
        return True


def test_enumerate_writes_in_blocks_whatever_stdin_is(monkeypatch):
    # enumerate reads no stdin, so a terminal there changes nothing
    stdout = CountingStdout()
    monkeypatch.setattr("sys.stdout", stdout)
    monkeypatch.setattr("sys.stdin", Terminal())
    assert main(["enumerate", "--kind", "uio", "--n", "8"]) == 0
    assert stdout.getvalue() == pred_lines(8)
    assert stdout.getvalue().count("\n") == 1430
    assert stdout.writes <= -(-1430 // cli.LINE_BLOCK)


@pytest.mark.parametrize("argv, text, out", [
    (("map", "--name", "p"), "0,0\n0,1\n0,0,1\n", "abab\naabb\naabbab\n"),
    (("convert", "--from", "word", "--to", "areaseq"), "aabb\nabab\n", "0,1\n0,0\n"),
], ids=["map", "convert"])
def test_lines_typed_at_a_terminal_are_answered_one_write_each(
    monkeypatch, argv, text, out
):
    stdout = CountingStdout()
    monkeypatch.setattr("sys.stdout", stdout)
    monkeypatch.setattr("sys.stdin", Terminal(text))
    assert main(list(argv)) == 0
    assert stdout.getvalue() == out
    assert stdout.writes == text.count("\n")


def test_a_bad_line_past_the_first_block_exits_2_after_the_lines_before_it(
    capsys, monkeypatch
):
    good = pred_lines(8)
    assert good.count("\n") > cli.LINE_BLOCK
    code, out, err = map_stdin(capsys, monkeypatch, "p", good + "0,2\n0,0\n")
    assert (code, err) == (2, "error: pred[2] = 2 outside 0..1\n")
    assert out == "".join(f"{p_map(parse_pred(line))}\n" for line in good.splitlines())


#: stdout as the benchmark's child processes have it: no buffer, each write
#: goes straight to the file descriptor
UNBUFFERED = {"PYTHONUNBUFFERED": "1"}


@pytest.mark.parametrize("kind, name", [("uio", "p"), ("dyck", "unzeta")])
def test_a_pipe_of_unbuffered_processes_prints_the_in_process_output(
    capsys, monkeypatch, kind, name
):
    enum = cli_process("enumerate", "--kind", kind, "--n", "7", env=UNBUFFERED,
                       stdout=subprocess.PIPE)
    mapper = cli_process("map", "--name", name, env=UNBUFFERED, stdin=enum.stdout,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    enum.stdout.close()
    out, err = mapper.communicate(timeout=60)
    assert (enum.wait(timeout=60), mapper.returncode, err) == (0, 0, b"")
    _, enumerated, _ = run(capsys, "enumerate", "--kind", kind, "--n", "7")
    assert out.decode() == map_stdin(capsys, monkeypatch, name, enumerated)[1]
    assert out.count(b"\n") == 429


#: A process that registers an atexit probe before it imports the package,
#: so that the probe runs last (atexit runs its handlers last-in first-out),
#: after any handler main registers.  It runs `calls` through cli.main, with
#: gc.freeze counting its calls, and the probe prints on stderr whether the
#: objects alive at exit were frozen and how many times freeze ran.
EXIT_PROBE = """
import atexit, gc, sys
freezes, freeze = [], gc.freeze
gc.freeze = lambda: freezes.append(1) or freeze()
atexit.register(lambda: print(gc.get_freeze_count() > 0, len(freezes), file=sys.stderr))
{imports}
for argv in {calls}:
    dyckzeta.cli.main(argv)
"""


@pytest.mark.parametrize("imports, calls, err", [
    ("import dyckzeta", [], "False 0\n"),
    ("import dyckzeta.cli", [], "False 0\n"),
    ("import dyckzeta.cli", [["render", "ab"]], "True 1\n"),
    ("import dyckzeta.cli", [["render", "ab"], ["map", "--name", "p", "0"]], "True 1\n"),
], ids=["import-package", "import-cli", "main", "main-twice"])
def test_only_a_cli_verb_freezes_the_objects_at_exit_once(imports, calls, err):
    # the interpreter's exit collections then skip every object alive at
    # exit; importing the library changes nothing about collection
    src = os.path.dirname(os.path.dirname(dyckzeta.__file__))
    code = EXIT_PROBE.format(imports=imports, calls=calls)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr.decode()) == (0, err)
    assert done.stdout == b"".join(b"+-+\n|/\n+ +\n" if argv[0] == "render" else b"ab\n"
                                   for argv in calls)


@pytest.mark.parametrize("into", ["pipe", "file"])
def test_a_pipe_of_processes_that_freeze_at_exit_loses_no_line(tmp_path, into):
    # buffered stdout, flushed at exit after the freeze: every line of
    # p(U) for the 1 430 orders of size 8 arrives, into a pipe or a file
    enum = cli_process("enumerate", "--kind", "uio", "--n", "8", stdout=subprocess.PIPE)
    with open(tmp_path / "p", "wb") as file:
        mapper = cli_process("map", "--name", "p", stdin=enum.stdout,
                             stdout=subprocess.PIPE if into == "pipe" else file,
                             stderr=subprocess.PIPE)
        enum.stdout.close()
        out, err = mapper.communicate(timeout=60)
    if into == "file":
        out = (tmp_path / "p").read_bytes()
    assert (enum.wait(timeout=60), mapper.returncode, err) == (0, 0, b"")
    assert out.decode() == "".join(f"{p_map(u)}\n" for u in enumerate_uio(8))
    assert out.count(b"\n") == 1430


@pytest.mark.parametrize("n, status, err", [
    ("4", 0, b""), ("0", 2, b"error: theorem check needs n >= 1, got 0\n")])
def test_verify_as_a_process_keeps_its_exit_status(n, status, err):
    done = cli_process("verify", "--check", "theorem", "--n", n, "--jobs", "1",
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stdout, stderr = done.communicate(timeout=60)
    assert (done.returncode, stderr) == (status, err)
    assert (b" PASS\n" in stdout) == (status == 0)


def test_an_unbuffered_enumerate_into_a_closed_pipe_exits_0_quietly():
    # read one line and close the pipe, as `| head -n 1` does; the 16 796
    # lines at n = 10 outgrow the pipe, so later blocks meet a closed pipe
    enum = cli_process("enumerate", "--kind", "uio", "--n", "10", env=UNBUFFERED,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = enum.stdout.readline()
    enum.stdout.close()
    _, err = enum.communicate(timeout=60)
    assert (enum.returncode, err, first) == (0, b"", b"0,0,0,0,0,0,0,0,0,0\n")


@pytest.mark.parametrize("stream, argv", [
    ("stdin", ("map", "--name", "p")),
    ("stdin", ("convert", "--from", "pred", "--to", "word")),
    ("stdout", ("enumerate", "--kind", "uio", "--n", "3")),
    ("stdout", ("verify", "--check", "theorem", "--n", "3")),
    ("stdout", ("render", "aabb")),
], ids=["map", "convert", "enumerate", "verify", "render"])
def test_a_closed_stdin_or_stdout_is_a_usage_error(capsys, monkeypatch, stream, argv):
    # Python sets sys.stdin or sys.stdout to None when its descriptor is
    # closed at start-up (dyckzeta map --name p <&-): one error line, status 2
    monkeypatch.setattr(sys, stream, None)
    code = main(list(argv))
    assert code == 2
    assert capsys.readouterr().err == f"error: {stream} is closed\n"


class BadDescriptor:
    """A std stream whose descriptor was closed at start-up and reused by a
    file the interpreter opened for reading: every write fails."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")

    def flush(self):
        raise OSError(9, "Bad file descriptor")


def interrupted(n, jobs=1, max_n=None):
    raise KeyboardInterrupt


@pytest.mark.parametrize("stderr", [None, BadDescriptor()], ids=["none", "bad-fd"])
@pytest.mark.parametrize("argv", [
    ("map", "--name", "p", "0,5"),
    ("verify", "--check", "theorem", "--n", "0"),
    ("verify", "--check", "grevlex", "--n", "3"),
    ("map", "--name", "r", "0"),
], ids=["validation", "precondition", "interrupted", "usage"])
def test_an_error_with_stderr_closed_exits_2_and_writes_nothing_to_stdout(
    capsys, monkeypatch, stderr, argv
):
    monkeypatch.setitem(cli.harness.CHECKS, "grevlex", interrupted)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", "")


def test_a_closed_stdin_is_not_read_for_a_value_on_the_command_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)
    assert run(capsys, "map", "--name", "p", "0,1") == (0, "aabb\n", "")


def test_map_over_words_strips_crlf(capsys, monkeypatch):
    code, out, _ = map_stdin(capsys, monkeypatch, "zeta", "ab\r\naabb\r\n")
    assert (code, out) == (0, "ab\nabab\n")


def test_map_over_preds_strips_crlf(capsys, monkeypatch):
    # the empty order's line is "\r\n" alone, which int() would not accept
    code, out, _ = map_stdin(capsys, monkeypatch, "p", "\r\n0,0\r\n")
    assert (code, out) == (0, "\nabab\n")


def test_convert_strips_crlf(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("aabb\r\nabab\r\n"))
    code, out, _ = run(capsys, "convert", "--from", "word", "--to", "areaseq")
    assert (code, out) == (0, "0,1\n0,0\n")
