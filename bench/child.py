"""One fresh interpreter of the benchmark: import, then run one timed call.

    python bench/child.py MODE TARGET [CLI ARGS...]

MODE is ``plain`` (untraced), ``trace`` (per-layer spans, tracing.Tracer),
``profile`` (cProfile call counts) or ``probe`` (import, report, exit).
TARGET is a verify workload from VERIFY_CALLS, or ``cli`` followed by the
dyckzeta command line to run.

"ready" is the monotonic time at which the first timed call can start; the
parent subtracts its own spawn time from it to get set-up time.  A verify
target prints one JSON record on stdout.  A probe, and the cli target, which
leaves stdout to the command, write it to stderr on a line starting with
MARKER.
"""

from __future__ import annotations

import json
import sys
import time

now = time.monotonic

MARKER = "#bench-record "

#: workload -> (harness function, keyword arguments, instances expected)
#: (sizes keep a repetition near 2 s; see bench/README.md)
VERIFY_CALLS = {
    "theorem": ("check_theorem", {"n": 10, "jobs": 1}, 16796),
    "induction": ("check_induction_step", {"n": 8, "jobs": 1}, 4862),
    "sharded": ("check_bijections", {"n": 10, "jobs": 2}, 16796),
    "grevlex": ("check_grevlex", {"n": 5}, 42),
}


def _collector(mode: str):
    if mode == "trace":
        from tracing import Tracer
        collector = Tracer()
    elif mode == "profile":
        from tracing import ProfileCounter
        collector = ProfileCounter()
    else:
        return None
    collector.install()
    return collector


def run_verify(mode: str, target: str) -> dict:
    from dyckzeta import harness

    record = {"ready": now(), "ready_cpu": time.process_time()}
    collector = _collector(mode)
    fn_name, kwargs, _ = VERIFY_CALLS[target]
    start = now()
    if mode == "profile":
        collector.start()
    report = getattr(harness, fn_name)(**kwargs)
    if mode == "profile":
        collector.stop()
    record.update(
        start=start,
        done=now(),
        instances=report.instances_checked,
        failed=len({f.rank for f in report.failures}),
    )
    if collector is not None:
        record["collected"] = collector.export()
    return record


def run_cli(mode: str, argv: list[str]) -> int:
    from dyckzeta import cli

    record = {"ready": now(), "ready_cpu": time.process_time()}
    collector = _collector(mode)
    if mode == "profile":
        collector.start()
    code = cli.main(argv)
    if mode == "profile":
        collector.stop()
    sys.stdout.flush()
    if collector is not None:
        record["collected"] = collector.export()
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return code


def probe(target: str) -> int:
    if target == "cli":
        from dyckzeta import cli  # noqa: F401
    else:
        from dyckzeta import harness  # noqa: F401
    record = {"ready": now(), "ready_cpu": time.process_time()}
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return 0


def main(argv: list[str]) -> int:
    mode, target, rest = argv[0], argv[1], argv[2:]
    if mode == "probe":
        return probe(target)
    if target == "cli":
        return run_cli(mode, rest)
    print(json.dumps(run_verify(mode, target)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
