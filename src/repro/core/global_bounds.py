"""GLOBALBOUNDS (Algorithm 2): incremental detection under global bounds.

Key facts exploited (Section IV-B): the top-k and top-(k+1) sets differ by
the single tuple ``R(D)[k+1]``, and with a fixed lower bound top-k counts
only grow with k — so *passing is absorbing*. Invariants maintained between
consecutive k values (when ``L_k`` is unchanged):

* ``Res ∪ DRes`` is exactly the set of generated, currently-violating
  patterns (with ``s_D ≥ τ_s``); ``Res`` holds the most general ones, and
  every ``DRes`` entry has a pattern-graph ancestor in ``Res``;
* every generated pattern that passes the bound has been expanded (its
  search-tree children generated) — either during a full search or by
  ``searchFromNode`` at the step it crossed the bound.

Per step only patterns satisfied by the new tuple can cross from violating
to passing (Proposition 4.3 bounds these by half the tree); each crosser is
expanded, then a promotion pass moves ``DRes`` entries whose ``Res``
ancestors all crossed into ``Res``. When the bound increases, a fresh full
top-down search runs (Algorithm 2, lines 4–5).
"""
from __future__ import annotations

from repro.core.bounds import GlobalSpec, check_params
from repro.core.pattern import has_ancestor_in, satisfies
from repro.core.result import SearchResult, SearchStats, freeze
from repro.core.store import BaseStatsStore
from repro.core.topdown import resume_search, top_down_search


def global_bounds(
    store: BaseStatsStore,
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
    out: dict[int, frozenset] = {}
    interned: dict = {}
    res, dres = top_down_search(store, spec, tau, k_min, stats)
    out[k_min] = freeze(res, None, interned)

    for k in range(k_min + 1, k_max + 1):
        stats.check_deadline()
        if spec.L(k) > spec.L(k - 1):
            # Bound increased: previous search state is invalid; restart.
            res, dres = top_down_search(store, spec, tau, k, stats)
        else:
            new_tuple = store.row_at_rank(k)
            # Only patterns the new tuple satisfies can have changed counts.
            affected = [
                p for p in (*res, *dres) if satisfies(new_tuple, p)
            ]
            crossed = False
            for p in affected:
                stats.examine()
                st = store.stat(p)
                if not spec.violates(st.topk(k), st.size, k, store.n):
                    # p crossed the bound: drop it and resume the top-down
                    # search from its search-tree children (searchFromNode).
                    res.discard(p)
                    dres.discard(p)
                    resume_search(store, spec, tau, k, stats, p, res, dres)
                    crossed = True
            if crossed:
                # The frontier changed: re-split into most-general (Res)
                # and dominated (DRes). Steps without crossers leave the
                # split intact, so the pass is skipped.
                normalize_frontier(res, dres)
        out[k] = freeze(res, out[k - 1], interned)
    return SearchResult(res=out, stats=stats)


def normalize_frontier(res: set, dres: set) -> None:
    """Recompute the Res/DRes split of the violating frontier in place.

    ``Res ∪ DRes`` is the set of generated currently-violating patterns; the
    most general ones (no violating ancestor in the union) belong in Res,
    the rest in DRes. Doing this as a closed-form pass (rather than chained
    promotions/demotions) keeps the split correct regardless of the order in
    which crossers were processed within the step.
    """
    violating = res | dres
    new_res = {p for p in violating if not has_ancestor_in(p, violating)}
    res.clear()
    res.update(new_res)
    dres.clear()
    dres.update(violating - new_res)
