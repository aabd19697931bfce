"""Divergence-based subgroup detection (Pastor et al. [27]) — the method
the paper compares against in Section VI-D.

Each tuple gets an outcome ``o(t) = 1`` if it is in the top-k, else 0 (the
outcome function used in the paper's case study). A subgroup G (pattern)
has outcome ``o(G)`` = mean outcome of its tuples and divergence
``o(G) − o(D)``. The method reports *all* subgroups with support at least
``min_support`` (most general or not — unlike the paper's algorithms),
ranked by divergence.

Implementation: a subgroup is reported iff ``size / n ≥ min_support``.
The frequent subgroups are the substantial patterns at τ_s = the smallest
size that passes that test, enumerated by brute force's τ_s-pruned
search-tree walk over the same statistics store the detection algorithms
read; a subgroup's size and top-k count are ``s_D(p)`` and
``s_{R^k(D)}(p)``.
"""
from __future__ import annotations

import math

import pandas as pd

from repro.core.bounds import check_params
from repro.core.brute_force import substantial_patterns
from repro.core.store import StatsStore


def divergence_subgroups(
    store: StatsStore, k: int, min_support: float
) -> pd.DataFrame:
    """All subgroups over the store's attributes with support ≥
    ``min_support``, with their divergence, most-negative first (ties by
    pattern).

    Returns a pandas frame with columns ``pattern`` (a
    ``repro.core.pattern.Pattern`` over the store's attribute indices),
    ``size``, ``outcome`` and ``divergence``. Raises ``ValueError`` for
    ``min_support`` outside ``(0, 1]`` or ``k`` outside ``1..n``.
    """
    if not 0 < min_support <= 1:
        raise ValueError("min_support must be in (0, 1]")
    n = store.n
    # The smallest size with size / n ≥ min_support. Not the ceiling of
    # min_support · n: the product can round past an integer (0.28 · 25 =
    # 7.000000000000001) and so drop the groups whose support equals
    # min_support.
    tau = next(
        size for size in range(max(1, math.floor(min_support * n) - 1), n + 1)
        if size / n >= min_support
    )
    check_params(n, tau, k, k)
    o_d = k / n
    rows = []
    for p, st in substantial_patterns(store, tau):
        outcome = st.topk(k) / st.size
        rows.append((p, st.size, outcome, outcome - o_d))
    rows.sort(key=lambda r: (r[3], r[0]))
    return pd.DataFrame(
        rows, columns=["pattern", "size", "outcome", "divergence"]
    )
