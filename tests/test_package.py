"""The package's public surface.

`from dyckzeta import *` binds exactly `__all__`, each entry once, and the
names taken out of the library are gone from the package and from the
module that defined them.
"""

import importlib
import os
import subprocess
import sys

import dyckzeta
from dyckzeta import IntervalConfiguration, Poset

#: module -> names it no longer defines
REMOVED = {
    "partlist": ("poset_to_json", "poset_from_json", "POSET_JSON_MAX_N", "q_step",
                 "grevlex_compare", "poset_from_uio", "f_permutation",
                 "relabeled_poset", "grevlex_key"),
    "uio": ("Relation", "relation"),
    "lattice": ("final_peak",),
    "zeta": ("zeta_scan",),
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dyckzeta import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dyckzeta.__all__)


def test_every_entry_of_all_resolves_once():
    assert len(set(dyckzeta.__all__)) == len(dyckzeta.__all__)
    for name in dyckzeta.__all__:
        getattr(dyckzeta, name)


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        defining = importlib.import_module(f"dyckzeta.{module}")
        for name in names:
            assert not hasattr(dyckzeta, name), name
            assert not hasattr(defining, name), (module, name)
    assert not hasattr(Poset, "covers")
    assert not hasattr(IntervalConfiguration, "normalized")


def test_the_cli_starts_without_fractions():
    # fractions and the decimal it imports cost about 2 ms a process; only
    # interval endpoints need them, and they are imported where used
    src = os.path.dirname(os.path.dirname(dyckzeta.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, dyckzeta.cli; "
         "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert loaded.stdout == "[]\n"
