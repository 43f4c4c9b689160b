"""The names the traced benchmark looks up still exist in the package.

bench/tracing.py wraps functions, dataclass __post_init__ methods, the
harness's checks and shards, and the harness's pool class, all by name.  A
rename under src/ would otherwise show only as a failed traced run.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
)

import dyckzeta.cli  # noqa: E402,F401  traced_targets includes cli names once loaded
import tracing  # noqa: E402
from dyckzeta import harness  # noqa: E402


def test_every_traced_name_resolves():
    targets = tracing.traced_targets()
    expected = (
        [f"{m}.{name}" for m, names in tracing.LAYER_FUNCTIONS.items() for name in names]
        + [f"cli.{name}" for name in tracing.CLI_FUNCTIONS]
        + [f"harness.{name}" for name in tracing.HARNESS_CHECKS + tracing.HARNESS_SHARDS]
        + ["harness._extension_pairs"]
    )
    assert sorted(targets) == sorted(expected)
    assert all(callable(target) for target in targets.values())


def test_every_traced_class_has_its_own_post_init():
    classes = [t for t in tracing.traced_targets().values() if isinstance(t, type)]
    assert classes
    for cls in classes:
        assert "__post_init__" in vars(cls), cls.__name__


def test_harness_binds_the_pool_class():
    assert isinstance(harness.ProcessPoolExecutor, type)
