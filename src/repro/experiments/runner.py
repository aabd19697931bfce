"""Single-run wrapper: build a store, run one detection algorithm on it with
a wall-clock budget, and record runtime, search effort and result sets."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.core import global_bounds, prop_bounds
from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.itertd import iter_td
from repro.core.result import SearchResult, SearchStats, SearchTimeout
from repro.core.store import StatsStore

#: The optimized algorithm of each problem, keyed by the type of its bound
#: spec. The baseline is ITERTD for both.
OPTIMIZED = {
    GlobalSpec: global_bounds.global_bounds,
    PropSpec: prop_bounds.prop_bounds,
}


@dataclass
class RunOutcome:
    """Measured outcome of one run: its times and the algorithm's result,
    None for a run that timed out.

    ``time_s`` is end to end, store construction included; ``agg_s`` is
    the store's build time (the counting substrate: the collected rows and
    their value bitmaps, identical for every algorithm on the same inputs);
    ``search_s = time_s − agg_s`` is the algorithmic cost the paper's
    figures compare.
    """

    time_s: float
    agg_s: float
    result: SearchResult | None = None

    @property
    def timed_out(self) -> bool:
        return self.result is None

    @property
    def search_s(self) -> float:
        return max(0.0, self.time_s - self.agg_s)


def run_algorithm(
    store_factory: Callable[[], StatsStore],
    algo: str,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    timeout_s: float | None = None,
) -> RunOutcome:
    """Build a store with ``store_factory`` and run one algorithm on it, end
    to end: ``time_s`` and the deadline cover store construction too.
    ``algo`` is ``"baseline"`` (ITERTD) or ``"optimized"`` (the algorithm
    ``OPTIMIZED`` gives for the spec). A deadline overrun returns a
    timed-out outcome instead of raising (matching the paper's
    10-minute-timeout sweeps where slow points are reported as such)."""
    fn = {"baseline": iter_td, "optimized": OPTIMIZED[type(spec)]}[algo]
    start = time.monotonic()
    deadline = None if timeout_s is None else start + timeout_s
    store = store_factory()
    agg_s = time.monotonic() - start
    try:
        # Construction may already have used up the budget.
        SearchStats(deadline=deadline).check_deadline()
        result = fn(store, spec, tau, k_min, k_max, deadline=deadline)
    except SearchTimeout:
        result = None
    return RunOutcome(time.monotonic() - start, agg_s, result)
