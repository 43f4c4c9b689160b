"""The dyckzeta benchmark: exhaustive verify sweeps and the CLI pipe.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition runs the workload's call in
a fresh interpreter (bench/child.py) with ``src`` on PYTHONPATH, so set-up is
paid, and measured, every time.  One client, closed loop: the next
repetition starts when the previous one has finished, and only if it is
expected to end within --seconds.

The inputs are exhaustive (every order or path of a fixed size), so the
program gets the same inputs for every seed; the seed only sets how set-up
probes interleave with the repetitions, and the order of the two pipelines
(cli-pipe) or of the traced and untraced repetition (--trace 1).

Every repetition is checked: a verify report must pass and count exactly
the expected instances; each CLI pipeline must exit 0 and print the
expected lines.  Any miss counts as failed and makes the command exit 1.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see bench/README.md).  The last line of stdout is one JSON object; the line
before it records the run's environment; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter

from child import MARKER, VERIFY_CALLS, now
from tracing import CLI_FUNCTIONS, LAYER_FUNCTIONS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("theorem", "induction", "sharded", "cli-pipe", "grevlex")

#: cli-pipe: (map name, enumerate arguments, map arguments); both at n = 10
PIPE_N = 10
PIPELINES = (
    ("p", ["enumerate", "--kind", "uio", "--n", str(PIPE_N)],
     ["map", "--name", "p"]),
    ("unzeta", ["enumerate", "--kind", "dyck", "--n", str(PIPE_N)],
     ["map", "--name", "unzeta"]),
)

#: set-up-only spawns per run, on top of the one each repetition makes
SETUP_PROBES = 5

#: which generator feeds each verify workload its instances
INSTANCE_STREAM = {"theorem": "uio.enumerate_uio",
                   "induction": "harness._extension_pairs",
                   "sharded": "uio.enumerate_uio",
                   "grevlex": "uio.enumerate_uio"}


# ------------------------------------------------------------ statistics

def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single value is all three."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values) -> float:
    return quartiles(values)[1]


# ----------------------------------------------------------- correctness

def pipe_failures(name: str, lines: list[str], dyck_words: list[str],
                  zeta_text) -> int:
    """Wrong, missing or surplus output lines of one cli-pipe pipeline.

    ``p``: the lines must be the words of dyck_words, each exactly once.
    ``unzeta``: line i must map back under zeta to dyck_words[i], the i-th
    line the pipeline was fed.  zeta_text(line) returns None for a line
    that does not parse.
    """
    if name == "p":
        seen = Counter(lines)
        expected = set(dyck_words)
        wrong = sum(c for line, c in seen.items() if line not in expected)
        return wrong + sum(1 for w in expected if seen[w] != 1)
    wrong = sum(1 for i, want in enumerate(dyck_words)
                if i >= len(lines) or zeta_text(lines[i]) != want)
    return wrong + max(0, len(lines) - len(dyck_words))


class PipeChecker:
    """pipe_failures against the package's own enumerate_dyck and zeta,
    computed once per distinct output."""

    def __init__(self):
        sys.path.insert(0, SRC)
        from dyckzeta import ValidationError, enumerate_dyck, parse_word, zeta

        def zeta_text(line):
            try:
                return str(zeta(parse_word(line)))
            except ValidationError:
                return None

        self.zeta_text = zeta_text
        self.dyck_words = [str(w) for w in enumerate_dyck(PIPE_N)]
        self.verdicts: dict[tuple[str, bytes], int] = {}

    def failures(self, name: str, output: bytes) -> int:
        key = (name, output)
        if key not in self.verdicts:
            lines = output.decode(errors="replace").splitlines()
            self.verdicts[key] = pipe_failures(
                name, lines, self.dyck_words, self.zeta_text)
        return self.verdicts[key]


# ------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the largest process waited for so far
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _spin() -> None:
    total = 0
    for i in range(50_000):
        total += i * i % 7


def cpus_fastest_first() -> list[int]:
    """Usable CPUs ordered by how fast a short fixed loop runs on each now.

    On a shared host each CPU slows down in phases of seconds to tens of
    seconds, independently of the others; pinning a repetition to the CPU
    that is fast at its start makes fewer repetitions land in a slow phase.
    """
    own = os.sched_getaffinity(0)
    timed = []
    try:
        for cpu in sorted(own):
            os.sched_setaffinity(0, {cpu})
            start = now()
            _spin()
            timed.append((now() - start, cpu))
    finally:
        os.sched_setaffinity(0, own)
    return [cpu for _, cpu in sorted(timed)]


def parse_record(text: str):
    for line in reversed(text.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


class Runner:
    def __init__(self, workload: str, env: dict):
        self.workload = workload
        self.env = env
        self.checker = PipeChecker() if workload == "cli-pipe" else None

    def spawn(self, args, cpu=None, **kwargs):
        proc = subprocess.Popen([sys.executable, CHILD] + args, env=self.env,
                                cwd=ROOT, **kwargs)
        if cpu is not None:
            try:
                os.sched_setaffinity(proc.pid, {cpu})
            except ProcessLookupError:     # already gone; its exit code tells
                pass
        return proc

    def probe(self) -> float:
        """Set-up time of one fresh interpreter that runs nothing."""
        target = "cli" if self.workload == "cli-pipe" else self.workload
        cpu = cpus_fastest_first()[0]
        spawned = now()
        proc = self.spawn(["probe", target], cpu, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        _, err = proc.communicate()
        record = parse_record(err.decode())
        if proc.returncode != 0 or record is None:
            raise RuntimeError(f"set-up probe failed: {err.decode()[-2000:]}")
        return record["ready"] - spawned

    def rep(self, mode: str, order: list[int]) -> dict:
        if self.workload == "cli-pipe":
            return self._pipes(mode, order)
        return self._verify(mode)

    def _verify(self, mode: str) -> dict:
        _, kwargs, expected = VERIFY_CALLS[self.workload]
        # a single-process sweep runs on the fastest CPU; a pooled one on all
        cpu = cpus_fastest_first()[0] if kwargs.get("jobs", 1) == 1 else None
        cpu0 = children_cpu()
        spawned = now()
        proc = self.spawn([mode, self.workload], cpu, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        out, err = proc.communicate()
        cpu = children_cpu() - cpu0
        rep = {"attempted": expected, "failed": expected, "instances": expected}
        try:
            record = json.loads(out) if proc.returncode == 0 else None
        except ValueError:
            record = None
        if record is None:
            sys.stderr.write(f"{self.workload}: child exited "
                             f"{proc.returncode}\n{err.decode()[-2000:]}\n")
            return rep
        if record["instances"] == expected:
            rep["failed"] = record["failed"]
        rep.update(
            setups=[record["ready"] - spawned],
            wall=record["done"] - record["start"],
            cpu=cpu - record["ready_cpu"],
            collected=[record.get("collected")],
            spawned=[spawned],
        )
        return rep

    def _pipes(self, mode: str, order: list[int]) -> dict:
        rep = {"attempted": 0, "failed": 0, "instances": 0, "setups": [],
               "wall": 0.0, "cpu": 0.0, "collected": [], "spawned": [],
               "lines": 0}
        for index in order:
            name, enum_args, map_args = PIPELINES[index]
            expected = len(self.checker.dyck_words)
            rep["attempted"] += expected
            rep["instances"] += expected
            # the map stage does most of the work: give it the fastest CPU
            cpus = cpus_fastest_first()
            cpu0 = children_cpu()
            spawned_enum = now()
            enum = self.spawn([mode, "cli"] + enum_args, cpus[-1],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            spawned_map = now()
            mapper = self.spawn([mode, "cli"] + map_args, cpus[0],
                                stdin=enum.stdout, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
            enum.stdout.close()
            output = mapper.stdout.read()
            finished = now()
            map_err = mapper.stderr.read()
            enum_err = enum.stderr.read()
            codes = (enum.wait(), mapper.wait())
            for stream in (enum.stderr, mapper.stdout, mapper.stderr):
                stream.close()
            cpu = children_cpu() - cpu0
            records = (parse_record(enum_err.decode()),
                       parse_record(map_err.decode()))
            if codes != (0, 0) or None in records:
                sys.stderr.write(f"cli-pipe {name}: exit codes {codes}\n"
                                 f"{(enum_err + map_err).decode()[-2000:]}\n")
                rep["failed"] += expected
                continue
            rep["failed"] += min(expected, self.checker.failures(name, output))
            rep["lines"] += output.count(b"\n")
            rep["setups"] += [records[0]["ready"] - spawned_enum,
                              records[1]["ready"] - spawned_map]
            rep["wall"] += finished - max(r["ready"] for r in records)
            rep["cpu"] += cpu - sum(r["ready_cpu"] for r in records)
            rep["collected"] += [r.get("collected") for r in records]
            rep["spawned"] += [spawned_enum, spawned_map]
        return rep


# --------------------------------------------------------------- metrics

def layer_metrics(workload: str, traced: list[dict],
                  overheads: list[float]) -> dict:
    """Per-layer metrics from the traced repetitions of one run.

    calls are exact and taken from the first repetition; the times are the
    median over repetitions.
    """
    per_rep = [_layer_values(workload, rep) for rep in traced]
    first = per_rep[0]
    for other in per_rep[1:]:
        drift = [k for k in first if k.endswith(".calls") and first[k] != other[k]]
        if drift:
            sys.stderr.write(f"warning: calls differ between repetitions: {drift}\n")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = median(r[name][0] for r in per_rep)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_ratio"] = {"value": median(overheads), "unit": "ratio"}
    return metrics


def _layer_values(workload: str, rep: dict) -> dict:
    stats: dict[str, list] = {}
    shards: list = []
    for collected in rep["collected"]:
        for name, (calls, busy) in collected["stats"].items():
            stat = stats.setdefault(name, [0, 0.0])
            stat[0] += calls
            stat[1] += busy
        shards += collected["shards"]
    values = {}
    for module, names in LAYER_FUNCTIONS.items():
        for fn in names:
            calls, busy = stats.get(f"{module}.{fn}", (0, 0.0))
            values[f"{module}.{fn}.calls"] = (calls, "count")
            values[f"{module}.{fn}.self_s"] = (busy, "s")

    busy = [end - start for start, end in shards]
    merge = wait = ratio = 0.0
    if workload in INSTANCE_STREAM:
        collected = rep["collected"][0]
        wait = collected["parent_wait"]
        if collected["shard_returned"] is not None:
            merge = collected["check_end"] - collected["shard_returned"]
        ratio = rep["instances"] / stats[INSTANCE_STREAM[workload]][0]
    values.update({
        "harness.shards": (len(shards), "count"),
        "harness.shard_busy_s.max": (max(busy, default=0.0), "s"),
        "harness.shard_busy_s.sum": (sum(busy), "s"),
        "harness.parent_wait_s": (wait, "s"),
        "harness.merge_s": (merge, "s"),
        "harness.enum_useful_ratio": (ratio, "ratio"),
    })

    startup = 0.0
    if workload == "cli-pipe":
        startup = median(c["first_span"] - spawned for c, spawned
                         in zip(rep["collected"], rep["spawned"]))
    values["cli.startup_s"] = (startup, "s")
    values["cli.lines"] = (rep.get("lines", 0), "count")
    for fn in CLI_FUNCTIONS:
        values[f"cli.{fn}.self_s"] = (stats.get(f"cli.{fn}", (0, 0.0))[1], "s")
    return values


def end_to_end_metrics(reps: list[dict], setups: list[float],
                       peak_rss_mb: float, attempted: int, failed: int) -> dict:
    # Totals over the run rather than a median of repetitions: a shared CPU
    # changes speed in phases of seconds, so repetition times cluster in
    # humps, and a median jumps from hump to hump where a total does not.
    instances = sum(r["instances"] for r in reps)
    return {
        "instances_per_s": {
            "value": instances / sum(r["wall"] for r in reps), "unit": "1/s"},
        "cpu_us_per_instance": {
            "value": sum(r["cpu"] for r in reps) / instances * 1e6,
            "unit": "us"},
        "setup_s": {"value": median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "pass_share": {"value": (attempted - failed) / attempted,
                       "unit": "share"},
    }


# ------------------------------------------------------------------ run

def environment(args) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, runner: Runner, rng: random.Random):
    """Closed loop of repetitions within args.seconds; returns
    (repetitions, set-up samples, traced repetitions, overhead ratios)."""
    reps, setups, traced, overheads = [], [], [], []
    probe_slots = Counter(rng.randrange(3) for _ in range(SETUP_PROBES))
    start = now()
    deadline = start + args.seconds
    rounds = 0
    # start another round only if a round of average length still fits
    while not rounds or now() + (now() - start) / rounds <= deadline:
        rounds += 1
        if args.trace:
            modes = ["plain", "trace"]
            rng.shuffle(modes)
            pair = {m: runner.rep(m, rng.sample([0, 1], 2)) for m in modes}
            reps += pair.values()
            if "wall" in pair["plain"] and "wall" in pair["trace"]:
                traced.append(pair["trace"])
                overheads.append(pair["trace"]["wall"] / pair["plain"]["wall"])
        else:
            for _ in range(probe_slots.pop(len(reps), 0)):
                setups.append(runner.probe())
            reps.append(runner.rep("plain", rng.sample([0, 1], 2)))
            setups += reps[-1].get("setups", [])
    if not args.trace:
        for _ in range(sum(probe_slots.values())):
            setups.append(runner.probe())
    return reps, setups, traced, overheads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dyckzeta", "__init__.py")):
        sys.stderr.write(f"error: no dyckzeta package under {SRC}\n")
        return 2
    cpus = len(os.sched_getaffinity(0))
    if args.workload == "sharded" and cpus < VERIFY_CALLS["sharded"][1]["jobs"]:
        sys.stderr.write(f"error: sharded runs 2 workers and refuses to "
                         f"oversubscribe {cpus} usable CPU(s)\n")
        return 2

    meta = environment(args)
    rng = random.Random(args.seed)
    runner = Runner(args.workload, child_env())
    runner.probe()   # untimed: compiles bytecode and warms the file cache
    reps, setups, traced, overheads = measure(args, runner, rng)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    timed = [r for r in reps if "wall" in r]
    if not timed or (args.trace and not traced):
        sys.stderr.write("error: no repetition completed\n")
        return 1
    if args.trace:
        metrics = layer_metrics(args.workload, traced, overheads)
    else:
        metrics = end_to_end_metrics(timed, setups, children_peak_rss_mb(),
                                     attempted, failed)
    rates = [r["instances"] / r["wall"] for r in timed]
    meta.update(repetitions=len(reps), setup_samples=len(setups),
                repetition_rates=rates)

    summary = [f"{args.workload}: {len(reps)} repetitions, "
               f"{len(setups)} set-up samples, failure_share "
               f"{failed / attempted:.6g} ({failed}/{attempted})"]
    if not args.trace:
        for key, values in (("instances/s per repetition", rates),
                            ("setup_s per spawn", setups)):
            q1, q2, q3 = quartiles(values)
            summary.append(f"  {key}: median {q2:.6g} [q1 {q1:.6g}, "
                           f"q3 {q3:.6g}] over {len(values)}")
    for name, metric in metrics.items():
        summary.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    sys.stderr.write("\n".join(summary) + "\n")

    correct = failed == 0
    print(json.dumps({"environment": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
