"""Single-run wrapper: build a store, run one detection algorithm on it with
a wall-clock budget, and record runtime, search effort and result sizes."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core import global_bounds, prop_bounds
from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.itertd import iter_td
from repro.core.result import SearchStats, SearchTimeout
from repro.core.store import BaseStatsStore

#: (problem, algorithm-name) → callable. "baseline" is ITERTD for both
#: problems; "optimized" is GLOBALBOUNDS / PROPBOUNDS respectively.
ALGORITHMS = {
    ("global", "baseline"): iter_td,
    ("global", "optimized"): global_bounds.global_bounds,
    ("prop", "baseline"): iter_td,
    ("prop", "optimized"): prop_bounds.prop_bounds,
}


@dataclass
class RunOutcome:
    """Measured outcome of one run (``timed_out`` runs carry partial
    effort counters and no result).

    ``time_s`` is end to end, store construction included; ``agg_s`` is
    the share spent building the store and in its aggregations (the
    counting substrate, identical for every algorithm on the same inputs);
    ``search_s = time_s − agg_s`` is the algorithmic cost the paper's
    figures compare.
    """

    problem: str
    algo: str
    time_s: float
    examined: int
    timed_out: bool
    agg_s: float = 0.0
    res: dict[int, frozenset] | None = None
    groups_per_k: dict[int, int] = field(default_factory=dict)

    @property
    def search_s(self) -> float:
        return max(0.0, self.time_s - self.agg_s)


def run_algorithm(
    store_factory: Callable[[], BaseStatsStore],
    problem: str,
    algo: str,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    timeout_s: float | None = None,
) -> RunOutcome:
    """Build a store with ``store_factory`` and run one algorithm on it, end
    to end: ``time_s`` and the deadline cover store construction too. A
    deadline overrun returns a ``timed_out`` outcome instead of raising
    (matching the paper's 10-minute-timeout sweeps where slow points are
    reported as such)."""
    fn = ALGORITHMS[(problem, algo)]
    start = time.monotonic()
    deadline = None if timeout_s is None else start + timeout_s
    store = store_factory()
    build_s = time.monotonic() - start
    try:
        # Construction may already have used up the budget.
        SearchStats(deadline=deadline).check_deadline()
        result = fn(store, spec, tau, k_min, k_max, deadline=deadline)
    except SearchTimeout:
        result = None
    out = RunOutcome(
        problem=problem,
        algo=algo,
        time_s=time.monotonic() - start,
        examined=-1,
        timed_out=result is None,
        agg_s=build_s + store.agg_seconds,
    )
    if result is not None:
        out.examined = result.stats.examined
        out.res = result.res
        out.groups_per_k = {k: len(v) for k, v in result.res.items()}
    return out
