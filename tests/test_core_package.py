"""The ``repro.core`` package namespace."""
import sys

import repro.core
import repro.core.global_bounds as gb


def test_algorithm_names_are_their_modules():
    """``brute_force``, ``global_bounds`` and ``prop_bounds`` name the
    modules, not the functions of the same names inside them, so module
    imports and patching reach the module."""
    for name in ("brute_force", "global_bounds", "prop_bounds"):
        assert getattr(repro.core, name) is sys.modules[f"repro.core.{name}"]
    assert gb is sys.modules["repro.core.global_bounds"]
