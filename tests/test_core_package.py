"""The ``repro`` package: the ``repro.core`` namespace, the signatures of
the search entry points, and its imports."""
import inspect
import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.core
import repro.core.global_bounds as gb
from repro.core.brute_force import brute_force
from repro.core.itertd import iter_td
from repro.core.prop_bounds import prop_bounds

SEARCH_PARAMS = ["store", "spec", "tau", "k_min", "k_max", "deadline"]


def test_algorithm_names_are_their_modules():
    """``brute_force``, ``global_bounds`` and ``prop_bounds`` name the
    modules, not the functions of the same names inside them, so module
    imports and patching reach the module."""
    for name in ("brute_force", "global_bounds", "prop_bounds"):
        assert getattr(repro.core, name) is sys.modules[f"repro.core.{name}"]
    assert gb is sys.modules["repro.core.global_bounds"]


def test_entry_point_signatures():
    """``run_algorithm`` and the benchmark call every search as
    ``fn(store, spec, tau, k_min, k_max, deadline=...)`` and brute force
    without the deadline; no search takes another parameter."""
    for fn in (iter_td, gb.global_bounds, prop_bounds):
        params = dict(inspect.signature(fn).parameters)
        assert list(params) == SEARCH_PARAMS, fn.__name__
        assert params.pop("deadline").default is None
        assert all(
            p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
            for p in params.values()
        ), fn.__name__
    params = inspect.signature(brute_force).parameters
    assert list(params) == SEARCH_PARAMS[:-1]
    assert all(p.default is p.empty for p in params.values())


def test_package_imports_without_duckdb():
    """Every ``repro`` module imports with ``duckdb`` unavailable."""
    code = """
import importlib, pkgutil, sys
sys.modules["duckdb"] = None
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(" ".join(names))
"""
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.split()
    assert {"repro.core.store", "repro.shapley.shapley"} <= set(out)
