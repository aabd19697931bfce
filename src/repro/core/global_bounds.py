"""GLOBALBOUNDS (Algorithm 2): incremental detection under global bounds.

Key facts exploited (Section IV-B): the top-k and top-(k+1) sets differ by
the single tuple ``R(D)[k+1]``, and with a fixed lower bound top-k counts
only grow with k — so *passing is absorbing*. Invariants maintained between
consecutive k values (when ``L_k`` is unchanged):

* the :class:`~repro.core.topdown.Frontier`'s violating set is exactly the
  set of generated, currently-violating patterns (with ``s_D ≥ τ_s``), and
  its ``Res`` their most general members; the paper's ``DRes`` is the
  rest;
* every generated pattern that passes the bound has been expanded (its
  search-tree children generated) — either during a full search or by
  ``searchFromNode`` at the step it crossed the bound.

Per step only patterns satisfied by the new tuple can cross from violating
to passing (Proposition 4.3 bounds these by half the tree). They are the
new tuple restricted to each attribute set that the violating set spans,
looked up in the set. Each crosser leaves the set and is expanded, and the
frontier then updates ``Res`` from what the step changed. The crossers are
tested against the bound's ``linear`` form, resolved once per step. When
the bound increases, a fresh full top-down search runs (Algorithm 2, lines
4–5), and its violating set replaces the old one. The frontier sets the
result masks when a pattern leaves ``Res`` and at ``k_max``.
"""
from __future__ import annotations

from repro.core.bounds import GlobalSpec, check_params
from repro.core.result import SearchResult, SearchStats
from repro.core.store import StatsStore
from repro.core.topdown import Frontier, resume_search, top_down_search

# Not called here: the benchmark's span tracer (``perfbench/spans.py``)
# binds the name in this module (ROADMAP item 1).
from repro.core.topdown import normalize_frontier  # noqa: F401


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
    frontier = Frontier()
    frontier.replace(top_down_search(store, spec, tau, k_min, stats))
    for k in range(k_min, k_max + 1):
        if k > k_min:
            stats.check_deadline()
            _step(store, spec, tau, k, stats, frontier)
        frontier.promote(k)
    return SearchResult(frontier.close(k_max), k_min, k_max, stats)


def _step(
    store: StatsStore,
    spec: GlobalSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    frontier: Frontier,
) -> None:
    """Move the violating set from ``k − 1`` to ``k``."""
    if spec.L(k) > spec.L(k - 1):
        # Bound increased: previous search state is invalid; restart.
        frontier.replace(top_down_search(store, spec, tau, k, stats))
        return
    a, b, t = spec.linear(k, store.n)
    # Only patterns the new tuple satisfies can have changed counts.
    for p in frontier.satisfied_by(store.row_at_rank(k)):
        stats.examine()
        st = store.stat(p)
        if a * st.topk(k) >= b * st.size + t:
            # p crossed the bound: drop it and resume the top-down search
            # from its search-tree children (searchFromNode).
            frontier.discard(p)
            resume_search(store, spec, tau, k, stats, p, frontier)
