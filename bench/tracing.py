"""Per-layer tracing for the benchmark, done from outside the package.

The tracer wraps the public functions of each dyckzeta module in every
namespace that has bound them (``from .partlist import q_map`` makes a second
binding in ``harness`` and ``zeta``), and wraps each validating dataclass's
``__post_init__`` on the class itself.  Nothing under ``src/`` is edited.

A span runs from a wrapped call's entry to its exit; for an iterator the
span is one ``next()``, and ``calls`` counts the items it yields.  Self time
is a span's duration minus the part of it that its child spans cover.

Pool workers are forked from a process that is already patched, so they
inherit the wrappers.  The pool class bound in ``harness`` is replaced by one
that starts each worker task with empty counters and sends the worker's
counters back with the task's result, where the parent adds them in.

The profile collector does the same job with cProfile, as an independent
count to check the tracer's ``calls`` against (see crosscheck.py).
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import itertools
import sys
import time

#: CLOCK_MONOTONIC on Linux: one clock for every process, so times taken in
#: a child, a pool worker and the parent can be compared.
now = time.monotonic

#: module -> traced names; a class name means its __post_init__
LAYER_FUNCTIONS = {
    "uio": ("enumerate_uio", "levels", "a_map", "a_inverse", "extend",
            "UnitIntervalOrder"),
    "lattice": ("enumerate_dyck", "word_from_area_sequence",
                "area_sequence_from_word", "add_final_peak",
                "final_maximal_peak", "DyckWord", "AreaSequence"),
    "partlist": ("q_map", "p_map", "PartListing", "InsertionTrace", "poset_of",
                 "Poset", "is_isomorphic", "grevlex_min_search"),
    "zeta": ("zeta", "diagonal_decomposition", "DiagonalDecomposition",
             "zeta_inverse", "added_peak_parameters"),
}

#: CLI-boundary functions, reported under "cli.": name -> defining module
CLI_FUNCTIONS = {"parse_pred": "uio", "parse_word": "lattice",
                 "_apply_named_map": "cli"}

HARNESS_CHECKS = ("check_theorem", "check_induction_step", "check_bijections",
                  "check_grevlex")
HARNESS_SHARDS = ("_theorem_shard", "_induction_shard", "_bijections_shard")

#: traced names whose result is an iterator: one span per next()
ITERATORS = frozenset({"uio.enumerate_uio", "lattice.enumerate_dyck",
                       "harness._extension_pairs"})


def traced_targets(package: str = "dyckzeta") -> dict:
    """Trace name -> the original object (function or class) it wraps."""
    mods = {m: sys.modules[f"{package}.{m}"]
            for m in ("uio", "lattice", "partlist", "zeta", "harness", "cli")
            if f"{package}.{m}" in sys.modules}
    targets = {}
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            targets[f"{module}.{name}"] = getattr(mods[module], name)
    if "cli" in mods:
        for name, module in CLI_FUNCTIONS.items():
            targets[f"cli.{name}"] = getattr(mods[module], name)
    for name in HARNESS_CHECKS + HARNESS_SHARDS + ("_extension_pairs",):
        targets[f"harness.{name}"] = getattr(mods["harness"], name)
    return targets


def code_of(target):
    """The code object a profiler attributes the target's calls to."""
    if isinstance(target, type):
        target = target.__post_init__
    return target.__code__


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part covered by child intervals.

    Children may nest, overlap one another (shards in parallel workers) or
    stick out of the parent; only their union inside the parent counts.
    """
    covered = 0.0
    reach = start
    for lo, hi in sorted(children):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def _rebind(package: str, original, replacement) -> None:
    """Replace every module-level binding of `original` in the package."""
    for name, mod in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class _PoolHooks:
    """What a collector does around pool tasks; see install_pool."""

    def begin_task(self) -> None:
        raise NotImplementedError

    def end_task(self):
        raise NotImplementedError

    def merge(self, payload) -> None:
        raise NotImplementedError

    def result_received(self, t: float) -> None:
        pass

    def pool_done(self, start: float, end: float) -> None:
        pass


#: the collector a forked worker inherited; set by install_pool
_worker_collector = None


def _collected_call(fn, *args):
    _worker_collector.begin_task()
    result = fn(*args)
    return result, _worker_collector.end_task()


def install_pool(package: str, collector: _PoolHooks) -> None:
    """Swap harness's pool class for one that ships worker counters back."""
    global _worker_collector
    _worker_collector = collector
    harness = sys.modules[f"{package}.harness"]
    base = harness.ProcessPoolExecutor

    class CollectingPool(base):
        def map(self, fn, *iterables, **kwargs):
            start = now()
            results = super().map(_collected_call, itertools.repeat(fn),
                                  *iterables, **kwargs)

            def unwrap():
                for result, payload in results:
                    collector.merge(payload)
                    collector.result_received(now())
                    yield result
                collector.pool_done(start, now())

            return unwrap()

    _rebind(package, base, CollectingPool)


class Tracer(_PoolHooks):
    """Span counters kept in memory: name -> [calls, self seconds]."""

    def __init__(self, clock=now):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.stack: list[list] = []     # per open span: its child intervals
        self.iterators: dict[str, list] = {}   # name -> [iterators created]
        self.shards: list[tuple[float, float]] = []
        self.shard_returned = None
        self.parent_wait = 0.0
        self.check_end = None
        self.first_span = None

    # ----------------------------------------------------------- spans

    def _open(self):
        children = []
        self.stack.append(children)
        start = self.clock()
        if self.first_span is None:
            self.first_span = start
        return start, children

    def _close(self, stat, start, children, counted=True):
        end = self.clock()
        self.stack.pop()
        if counted:
            stat[0] += 1
        stat[1] += self_time(start, end, children)
        if self.stack:
            self.stack[-1].append((start, end))

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start, children = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stat, start, children)

        return traced

    def wrap_iterator(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        created = self.iterators.setdefault(name, [0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            created[0] += 1
            return self._iterate(stat, fn(*args, **kwargs))

        return traced

    def _iterate(self, stat, it):
        while True:
            start, children = self._open()
            try:
                item = next(it)
            except StopIteration:
                self._close(stat, start, children, counted=False)
                return
            except BaseException:
                self._close(stat, start, children)
                raise
            self._close(stat, start, children)
            yield item

    def wrap_shard(self, name: str, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def shard(*args):
            start = self.clock()
            result = traced(*args)
            end = self.clock()
            self.shards.append((start, end))
            self.shard_returned = end
            return result

        return shard

    def wrap_check(self, name: str, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def check(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                self.check_end = self.clock()

        return check

    # ---------------------------------------------------------- install

    def install(self, package: str = "dyckzeta") -> None:
        for name, target in traced_targets(package).items():
            attr = name.rsplit(".", 1)[1]
            if isinstance(target, type):
                target.__post_init__ = self.wrap(name, target.__post_init__)
                continue
            if name in ITERATORS:
                wrapper = self.wrap_iterator(name, target)
            elif attr in HARNESS_SHARDS:
                wrapper = self.wrap_shard(name, target)
            elif attr in HARNESS_CHECKS:
                wrapper = self.wrap_check(name, target)
            else:
                wrapper = self.wrap(name, target)
            _rebind(package, target, wrapper)
        install_pool(package, self)

    # ------------------------------------------------- pool and export

    def begin_task(self) -> None:
        # a forked worker starts with its parent's counters; drop them
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        for created in self.iterators.values():
            created[0] = 0
        self.stack.clear()
        self.shards.clear()
        self.first_span = None

    def end_task(self) -> dict:
        return self.export()

    def merge(self, payload: dict) -> None:
        for name, (calls, busy) in payload["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0])
            stat[0] += calls
            stat[1] += busy
        for name, (created,) in payload["iterators"].items():
            self.iterators.setdefault(name, [0])[0] += created
        self.shards.extend(tuple(s) for s in payload["shards"])

    def result_received(self, t: float) -> None:
        self.shard_returned = t

    def pool_done(self, start: float, end: float) -> None:
        self.parent_wait += end - start

    def export(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "iterators": {k: list(v) for k, v in self.iterators.items()},
            "shards": [list(s) for s in self.shards],
            "shard_returned": self.shard_returned,
            "parent_wait": self.parent_wait,
            "check_end": self.check_end,
            "first_span": self.first_span,
        }


class ProfileCounter(_PoolHooks):
    """cProfile call counts of the traced functions, workers included."""

    def __init__(self, package: str = "dyckzeta"):
        self.keys = {}
        for name, target in traced_targets(package).items():
            code = code_of(target)
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            self.keys[key] = (name, inspect.isgeneratorfunction(target))
        self.counts: dict[str, int] = {}
        self.profile = None

    def start(self) -> None:
        self.profile = cProfile.Profile()
        self.profile.enable()

    def stop(self) -> None:
        self.profile.disable()
        self.merge(self._harvest())

    def _harvest(self) -> dict:
        self.profile.create_stats()
        counts = {}
        for key, (_, ncalls, *_) in self.profile.stats.items():
            if key in self.keys:
                counts[self.keys[key][0]] = ncalls
        return counts

    def begin_task(self) -> None:
        # replaces the profile hook the worker inherited from its parent
        self.start()

    def end_task(self) -> dict:
        self.profile.disable()
        return self._harvest()

    def merge(self, payload: dict) -> None:
        for name, ncalls in payload.items():
            self.counts[name] = self.counts.get(name, 0) + ncalls

    def install(self, package: str = "dyckzeta") -> None:
        install_pool(package, self)

    def export(self) -> dict:
        return {"counts": self.counts,
                "generators": sorted(n for n, g in self.keys.values() if g)}
