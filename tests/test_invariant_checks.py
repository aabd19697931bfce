"""The invariant checks of ``tests.helpers.invariant_checks`` are live:
under the hook ITERTD, GLOBALBOUNDS and PROPBOUNDS are checked once per k
of their range, a ``Res`` that differs from ``normalize_frontier`` of the
violating set fails, and the wrapped methods are restored when the block
ends."""
import pytest

from repro.core import GlobalSpec, PropSpec, iter_td
from repro.core.global_bounds import global_bounds
from repro.core.prop_bounds import _PropState, prop_bounds
from repro.core.topdown import Frontier
from tests.helpers import invariant_checks


@pytest.mark.parametrize(
    "algo, spec, per_k",
    [
        (iter_td, GlobalSpec({3: 1, 6: 2}), {"frontier"}),
        # L_k steps up at k = 6: a restart is checked too.
        (global_bounds, GlobalSpec({3: 1, 6: 2}), {"frontier"}),
        (prop_bounds, PropSpec(0.8), {"frontier", "prop"}),
    ],
    ids=["itertd", "global", "prop"],
)
def test_checked_once_per_k(paper_ds, algo, spec, per_k):
    k_min, k_max = 3, 14
    with invariant_checks() as checks:
        algo(paper_ds.pandas_store(), spec, 2, k_min, k_max)
    assert checks == {name: k_max - k_min + 1 for name in per_k}


def test_extra_res_pattern_fails():
    """A ``Res`` holding a pattern whose ancestor violates passes the
    frontier's own checks, and fails the hook's comparison with
    ``normalize_frontier``."""
    a = ((0, "a"),)
    ab = a + ((1, "b"),)
    frontier = Frontier()
    with invariant_checks() as checks:
        frontier.add(a)
        frontier.add(ab)
        frontier.promote(1)
        assert checks["frontier"] == 1
        del frontier.witness[ab]
        frontier.res[ab] = 1
        frontier.check_invariants()
        with pytest.raises(AssertionError):
            frontier.promote(2)


def test_methods_restored_after_the_block():
    promotes = Frontier.promote, _PropState.promote
    with pytest.raises(RuntimeError):
        with invariant_checks():
            assert (Frontier.promote, _PropState.promote) != promotes
            raise RuntimeError
    assert (Frontier.promote, _PropState.promote) == promotes
