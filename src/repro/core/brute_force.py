"""Brute-force reference for both problem definitions.

Enumerates *every* pattern with ``s_D(p) ≥ τ_s``, finds the violating ones
per k, and keeps those with no violating proper subpattern — a direct
transcription of the most-general-pattern definition in Section III; each
k's most general violators set bit k of their result masks. The
enumeration walks the search tree pruned by τ_s alone, with none of the
algorithms' bound pruning or bookkeeping. Used as the correctness oracle
for ITERTD / GLOBALBOUNDS / PROPBOUNDS in tests. Its cost grows with the
number of substantial patterns, which every k's filter scans.
"""
from __future__ import annotations

from repro.core.bounds import GlobalSpec, PropSpec, check_params
from repro.core.pattern import EMPTY, Pattern, children, has_ancestor_in
from repro.core.result import SearchResult, add_step
from repro.core.store import PatternStat, StatsStore


def substantial_patterns(
    store: StatsStore, tau: int
) -> dict[Pattern, PatternStat]:
    """Every non-empty pattern with size ≥ τ_s: a walk down the search tree
    (Definition 4.1) that prunes a pattern below τ_s with its subtree.

    Any ancestor of a substantial pattern is substantial too (sizes are
    anti-monotone), so the pruning loses none, and the set is closed under
    generalization — the most-general check below never needs a pattern
    outside it.
    """
    out: dict[Pattern, PatternStat] = {}
    stack = [EMPTY]
    while stack:
        for child in children(stack.pop(), store.domains):
            stat = store.stat(child)
            if stat.size >= tau:
                out[child] = stat
                stack.append(child)
    return out


def brute_force(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
) -> SearchResult:
    """Reference result: most general substantial violating patterns per k."""
    check_params(store.n, tau, k_min, k_max)
    substantial = substantial_patterns(store, tau)
    n = store.n
    masks: dict[Pattern, int] = {}
    for k in range(k_min, k_max + 1):
        a, b, t = spec.linear(k, n)
        mask = (1 << k) - 1
        violating = {
            p
            for p, st in substantial.items()
            if a * (st.bits & mask).bit_count() < b * st.size + t
        }
        res = (p for p in violating if not has_ancestor_in(p, violating))
        add_step(masks, res, k)
    return SearchResult(masks, k_min, k_max)
