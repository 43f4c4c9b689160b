"""Check the tracer's call counts against cProfile and against pinned values.

    python3 bench/crosscheck.py [WORKLOAD ...]

For each workload (all by default) this runs two traced repetitions and one
under cProfile, pool workers and CLI processes included, and checks that

  * the two traced repetitions give identical calls;
  * every traced function's calls equal cProfile's count for its code:
    a constructor's ``__post_init__``; for a generator function every
    resume, which is the items yielded plus one last resume per generator
    (its exhaustion, or its close when abandoned); for a function that
    returns an iterator, the calls that created one;
  * the pinned counts below hold.

Exits 1 on any mismatch.  Takes a few minutes: tracing and cProfile both
slow the sweeps down.
"""

from __future__ import annotations

import sys

from run import WORKLOADS, Runner, child_env

C = {5: 42, 8: 1430, 9: 4862, 10: 16796}

#: counts fixed by the workload's sizes and the harness's shard plan
PINNED = {
    "theorem": {"partlist.q_map": C[10], "uio.enumerate_uio": C[10]},
    # seven q_map calls per (U, k) pair
    "induction": {"partlist.q_map": 7 * C[9], "uio.enumerate_uio": C[8],
                  "harness._extension_pairs": C[9]},
    # shard 1 skips the C(10) / 2 orders shard 0 checks
    "sharded": {"uio.enumerate_uio": C[10] // 2 + C[10],
                "lattice.enumerate_dyck": C[10] // 2 + C[10]},
    # the unzeta table enumerates the paths a second time
    "cli-pipe": {"uio.enumerate_uio": C[10], "lattice.enumerate_dyck": 2 * C[10],
                 "partlist.q_map": C[10]},
    "grevlex": {"uio.enumerate_uio": C[5], "partlist.q_map": C[5]},
}


def _traced_counts(rep: dict) -> tuple[dict, dict]:
    calls, iterators = {}, {}
    for collected in rep["collected"]:
        for name, (n, _) in collected["stats"].items():
            calls[name] = calls.get(name, 0) + n
        for name, (created,) in collected["iterators"].items():
            iterators[name] = iterators.get(name, 0) + created
    return calls, iterators


def _profiled_counts(rep: dict) -> tuple[dict, set]:
    counts, generators = {}, set()
    for collected in rep["collected"]:
        for name, n in collected["counts"].items():
            counts[name] = counts.get(name, 0) + n
        generators.update(collected["generators"])
    return counts, generators


def check(workload: str) -> list[str]:
    runner = Runner(workload, child_env())
    order = [0, 1]
    reps = [runner.rep("trace", order), runner.rep("trace", order),
            runner.rep("profile", order)]
    if any(r["failed"] or "collected" not in r for r in reps):
        return [f"{workload}: a repetition failed"]
    (calls, iterators), (calls2, _) = (_traced_counts(r) for r in reps[:2])
    profiled, generators = _profiled_counts(reps[2])
    problems = []
    if calls != calls2:
        problems.append(f"{workload}: traced calls differ between repetitions")
    for name in sorted(calls):
        traced = calls[name]
        if name in iterators:
            created = iterators[name]
            traced = traced + created if name in generators else created
        if traced != profiled.get(name, 0):
            problems.append(f"{workload}: {name} traced {traced} "
                            f"cProfile {profiled.get(name, 0)}")
    for name, want in PINNED[workload].items():
        if calls.get(name) != want:
            problems.append(f"{workload}: {name} {calls.get(name)} != pinned {want}")
    active = sum(1 for n in calls.values() if n)
    print(f"{workload}: {active} traced functions called, "
          f"{len(problems)} mismatches; q_map calls {calls.get('partlist.q_map')}")
    return problems


def main(argv: list[str]) -> int:
    problems = []
    for workload in argv or WORKLOADS:
        problems += check(workload)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
