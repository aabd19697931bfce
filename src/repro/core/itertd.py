"""ITERTD — the paper's baseline: Algorithm 1 re-run for every k in the
range (Section IV-A). Handles both problem definitions through the spec.
Each k's Res sets bit k of its patterns' result masks."""
from __future__ import annotations

from repro.core.bounds import GlobalSpec, PropSpec, check_params
from repro.core.result import SearchResult, SearchStats, add_step
from repro.core.store import StatsStore
from repro.core.topdown import normalize_frontier, top_down_search


def iter_td(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    deadline: float | None = None,
) -> SearchResult:
    """Detect most general biased patterns for each k by independent
    top-down searches — no state is carried between consecutive k values."""
    check_params(store.n, tau, k_min, k_max)
    stats = SearchStats(deadline=deadline)
    masks: dict = {}
    for k in range(k_min, k_max + 1):
        violating = top_down_search(store, spec, tau, k, stats)
        add_step(masks, normalize_frontier(violating), k)
    return SearchResult(masks, k_min, k_max, stats)
