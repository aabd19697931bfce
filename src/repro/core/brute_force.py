"""Brute-force reference for both problem definitions.

Enumerates *every* pattern with ``s_D(p) ≥ τ_s`` and reads each k's most
general violators (Section III) off the generalization lattice in one
pass. Each pattern p gets two bitmasks over the k range: ``V(p)``, the k
at which p violates, and ``A(p)``, the OR of ``V(q) | A(q)`` over its
immediate parents q (p less one pair): the k at which a proper
subpattern violates. p is in ``Res_k`` iff bit k of ``V(p) & ~A(p)`` is
set. None of the algorithms' bound pruning, ``Res``/``DRes`` bookkeeping
or ``k̃`` is used: the tests check the three algorithms against it.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.core.bounds import GlobalSpec, PropSpec, check_params
from repro.core.pattern import EMPTY, Pattern, children
from repro.core.result import SearchResult
from repro.core.store import PatternStat, StatsStore


def substantial_patterns(
    store: StatsStore, tau: int
) -> Iterator[tuple[Pattern, PatternStat]]:
    """Every non-empty pattern with size ≥ τ_s, with its statistics: a
    breadth-first walk down the search tree (Definition 4.1) that prunes a
    pattern below τ_s with its subtree.

    Any ancestor of a substantial pattern is substantial too (sizes are
    anti-monotone), so the pruning loses none, and the set is closed under
    generalization. The walk yields the patterns by length, so each
    pattern's immediate parents come before it.
    """
    queue = deque([EMPTY])
    while queue:
        for child in children(queue.popleft(), store.domains):
            stat = store.stat(child)
            if stat.size >= tau:
                yield child, stat
                queue.append(child)


def brute_force(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
) -> SearchResult:
    """Reference result: most general substantial violating patterns per k."""
    check_params(store.n, tau, k_min, k_max)
    n = store.n
    steps = [
        (k, (1 << k) - 1, *spec.linear(k, n)) for k in range(k_min, k_max + 1)
    ]
    #: ``V(p) | A(p)``: the k at which p or a proper subpattern violates.
    #: The empty pattern is never a result, so it covers no k.
    covered: dict[Pattern, int] = {EMPTY: 0}
    masks: dict[Pattern, int] = {}
    for p, st in substantial_patterns(store, tau):
        violates = 0
        for k, mask, a, b, t in steps:
            if a * (st.bits & mask).bit_count() < b * st.size + t:
                violates |= 1 << k
        above = 0
        for i in range(len(p)):
            above |= covered[p[:i] + p[i + 1:]]
        if violates & ~above:
            masks[p] = violates & ~above
        covered[p] = violates | above
    return SearchResult(masks, k_min, k_max)
