"""The benchmark's traced runs yield what bench/run.py divides by.

A traced run (`bench/run.py --trace 1`) divides each verify workload's
instances by the yields of its run.INSTANCE_STREAM name, and each CLI
process's first span by its spawn time.  A stream that never yields, or a
CLI process that calls no traced name, fails the run (a ZeroDivisionError
resp. a TypeError on None) only after the benchmark has started.  These
tests run bench/child.py in trace mode as a subprocess, as the benchmark
does: every verify workload at its benchmark size, and every cli-pipe
process at a small n.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
from child import VERIFY_CALLS  # noqa: E402

#: the size the cli-pipe processes run at here
PIPE_N = 4


def _child(args, stdin=None):
    return subprocess.run(
        [sys.executable, run.CHILD, "trace"] + args, input=stdin,
        capture_output=True, env=run.child_env(), cwd=run.ROOT, timeout=120,
    )


@pytest.mark.parametrize("workload", sorted(VERIFY_CALLS))
def test_every_verify_workload_draws_from_its_instance_stream(workload):
    done = _child([workload])
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    record = json.loads(done.stdout)
    assert (record["instances"], record["failed"]) == (VERIFY_CALLS[workload][2], 0)
    calls, _ = record["collected"]["stats"][run.INSTANCE_STREAM[workload]]
    assert calls >= 1


def _at_small_n(args):
    args = list(args)
    args[args.index("--n") + 1] = str(PIPE_N)
    return args


@pytest.mark.parametrize("name, enum_args, map_args", run.PIPELINES)
def test_every_cli_pipe_process_opens_a_span(name, enum_args, map_args):
    feed = _child(["cli"] + _at_small_n(enum_args))
    mapped = _child(["cli"] + map_args, stdin=feed.stdout)
    for stage, done in (("enumerate", feed), (f"map --name {name}", mapped)):
        assert done.returncode == 0, (stage, done.stderr.decode()[-2000:])
        record = run.parse_record(done.stderr.decode())
        assert record is not None, stage
        assert record["collected"]["first_span"] is not None, stage
    assert len(mapped.stdout.splitlines()) == len(feed.stdout.splitlines()) > 1
