"""GLOBALBOUNDS (Algorithm 2): incremental detection under global bounds.

Key facts exploited (Section IV-B): the top-k and top-(k+1) sets differ by
the single tuple ``R(D)[k+1]``, and with a fixed lower bound top-k counts
only grow with k — so *passing is absorbing*. Invariants maintained between
consecutive k values (when ``L_k`` is unchanged):

* ``violating`` is exactly the set of generated, currently-violating
  patterns (with ``s_D ≥ τ_s``). ``Res``, its most general members, is
  derived from it by :func:`~repro.core.topdown.normalize_frontier`; the
  paper's ``DRes`` is the rest and is not stored;
* every generated pattern that passes the bound has been expanded (its
  search-tree children generated) — either during a full search or by
  ``searchFromNode`` at the step it crossed the bound.

Per step only patterns satisfied by the new tuple can cross from violating
to passing (Proposition 4.3 bounds these by half the tree); each crosser
leaves ``violating`` and is expanded, and ``Res`` is re-derived once the
step's crossers are done. The crossers are tested against the bound's
``linear`` form, resolved once per step. When the bound increases, a fresh
full top-down search runs (Algorithm 2, lines 4–5). Each step's ``Res``,
changed or not, sets bit k of its patterns' result masks.
"""
from __future__ import annotations

from repro.core.bounds import GlobalSpec, check_params
from repro.core.pattern import satisfies
from repro.core.result import SearchResult, SearchStats, add_step
from repro.core.store import StatsStore
from repro.core.topdown import (
    normalize_frontier,
    resume_search,
    top_down_search,
)


def global_bounds(
    store: StatsStore,
    spec: GlobalSpec,
    tau: int,
    k_min: int,
    k_max: int,
    deadline: float | None = None,
) -> SearchResult:
    """Detect most general patterns with biased representation (global
    lower bounds) for every k in ``[k_min, k_max]``."""
    check_params(store.n, tau, k_min, k_max)
    stats = SearchStats(deadline=deadline)
    masks: dict = {}
    violating = top_down_search(store, spec, tau, k_min, stats)
    res = normalize_frontier(violating)
    add_step(masks, res, k_min)

    for k in range(k_min + 1, k_max + 1):
        stats.check_deadline()
        if spec.L(k) > spec.L(k - 1):
            # Bound increased: previous search state is invalid; restart.
            violating = top_down_search(store, spec, tau, k, stats)
            res = normalize_frontier(violating)
        else:
            new_tuple = store.row_at_rank(k)
            # Only patterns the new tuple satisfies can have changed counts.
            affected = [p for p in violating if satisfies(new_tuple, p)]
            crossed = False
            a, b, t = spec.linear(k, store.n)
            for p in affected:
                stats.examine()
                st = store.stat(p)
                if a * st.topk(k) >= b * st.size + t:
                    # p crossed the bound: drop it and resume the top-down
                    # search from its search-tree children (searchFromNode).
                    violating.discard(p)
                    resume_search(store, spec, tau, k, stats, p, violating)
                    crossed = True
            if crossed:
                # Steps without crossers leave the violating set, and so
                # Res, as they were.
                res = normalize_frontier(violating)
        add_step(masks, res, k)
    return SearchResult(masks, k_min, k_max, stats)
