"""ITERTD — the paper's baseline: Algorithm 1 re-run for every k in the
range (Section IV-A). Handles both problem definitions through the spec.
Each k's search starts again at the root; only the ``Res`` bookkeeping is
shared: each k's violating set replaces the last in a
:class:`~repro.core.topdown.Frontier`, which updates ``Res`` from what
changed and sets the result masks."""
from __future__ import annotations

from repro.core.bounds import GlobalSpec, PropSpec, check_params
from repro.core.result import SearchResult, SearchStats
from repro.core.store import StatsStore
from repro.core.topdown import Frontier, top_down_search


def iter_td(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    deadline: float | None = None,
) -> SearchResult:
    """Detect most general biased patterns for each k by a top-down search
    from the root per k."""
    check_params(store.n, tau, k_min, k_max)
    stats = SearchStats(deadline=deadline)
    frontier = Frontier()
    for k in range(k_min, k_max + 1):
        frontier.replace(top_down_search(store, spec, tau, k, stats))
        frontier.promote(k)
    return SearchResult(frontier.close(k_max), k_min, k_max, stats)
