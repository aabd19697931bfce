"""Test helpers: randomized ranked datasets (driver-only) for the
algorithm-equivalence grids, random bound specs, the check of a store's
derived child bitmaps, the invariant checks of the searches, and the
references that only tests use (tuple satisfaction, pattern-graph
parents, per-k result masks and the per-k brute-force filter, the
driver-side group Shapley vector)."""
from __future__ import annotations

import contextlib
import math
from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np
import pandas as pd

from repro.core.bounds import GlobalSpec, PropSpec, check_params
from repro.core.brute_force import substantial_patterns
from repro.core.pattern import EMPTY, Pattern, children, has_ancestor_in
from repro.core.prop_bounds import _PropState
from repro.core.result import SearchResult
from repro.core.store import PatternStat, StatsStore
from repro.core.topdown import Frontier, normalize_frontier
from repro.datasets.base import RankedDataset
from repro.shapley.shapley import PredictFn, mc_shapley, tuple_rng


def satisfies(row: Sequence[str], p: Pattern) -> bool:
    """True iff a tuple (as a value list indexed by attribute index)
    satisfies ``p``, i.e. matches every pair of ``p``."""
    return all(row[a] == v for a, v in p)


def parents(p: Pattern) -> Iterator[Pattern]:
    """All parents of ``p`` in the *pattern graph* (one pair removed)."""
    for i in range(len(p)):
        yield p[:i] + p[i + 1 :]


def add_step(
    masks: dict[Pattern, int], res: Iterable[Pattern], k: int
) -> None:
    """Record ``res`` as ``Res_k``: set bit ``k`` of each of its patterns'
    masks."""
    bit = 1 << k
    for p in res:
        masks[p] = masks.get(p, 0) | bit


def per_k_oracle(
    store: StatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
) -> SearchResult:
    """A second formulation of the brute-force reference: at every k, the
    substantial violating patterns with no violating proper subpattern,
    found by a scan of all of them per k."""
    check_params(store.n, tau, k_min, k_max)
    substantial = dict(substantial_patterns(store, tau))
    masks: dict[Pattern, int] = {}
    for k in range(k_min, k_max + 1):
        a, b, t = spec.linear(k, store.n)
        mask = (1 << k) - 1
        violating = {
            p
            for p, st in substantial.items()
            if a * (st.bits & mask).bit_count() < b * st.size + t
        }
        res = (p for p in violating if not has_ancestor_in(p, violating))
        add_step(masks, res, k)
    return SearchResult(masks, k_min, k_max)


def group_shapley(
    predict: PredictFn,
    X_group: np.ndarray,
    background: np.ndarray,
    n_samples: int = 64,
    seed: int = 0,
) -> np.ndarray:
    """Driver-side reference for ``group_shapley_spark``: the mean
    per-tuple Shapley vector of a group. Tuple ``i`` draws from
    ``tuple_rng(seed, i)``, as on the workers."""
    acc = np.zeros(X_group.shape[1], dtype=np.float64)
    for i, row in enumerate(X_group):
        rng = tuple_rng(seed, i)
        acc += mc_shapley(predict, row, background, n_samples, rng)
    return acc / len(X_group)


@contextlib.contextmanager
def invariant_checks() -> Iterator[Counter]:
    """Check the searches' invariants at every k of the block.

    After every ``Frontier.promote`` (one per k in ITERTD, GLOBALBOUNDS and
    PROPBOUNDS, ``k_min`` included) the frontier's own checks run and its
    ``Res`` must equal ``normalize_frontier`` of the violating set. After
    every ``_PropState.promote`` PROPBOUNDS' invariants at that k run too.
    Yields the number of checks made, under ``"frontier"`` and ``"prop"``.
    """
    checks: Counter = Counter()
    frontier_promote, prop_promote = Frontier.promote, _PropState.promote

    def checked_frontier_promote(self: Frontier, k: int) -> None:
        frontier_promote(self, k)
        self.check_invariants()
        assert self.res.keys() == normalize_frontier(self.violating), k
        checks["frontier"] += 1

    def checked_prop_promote(self: _PropState, k: int) -> None:
        prop_promote(self, k)
        self.check_invariants(k)
        checks["prop"] += 1

    Frontier.promote = checked_frontier_promote
    _PropState.promote = checked_prop_promote
    try:
        yield checks
    finally:
        Frontier.promote = frontier_promote
        _PropState.promote = prop_promote


def make_random_ranked(
    seed: int,
    n_min: int = 20,
    n_max: int = 120,
    attrs_min: int = 2,
    attrs_max: int = 5,
) -> RankedDataset:
    """A random categorical dataset with a random total ranking. Small and
    driver-only, for brute-force-validated grids."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    n_attrs = int(rng.integers(attrs_min, attrs_max + 1))
    cards = rng.integers(2, 5, n_attrs)
    data = {
        f"A{i}": rng.integers(0, cards[i], n).astype(str)
        for i in range(n_attrs)
    }
    pdf = pd.DataFrame(data)
    pdf["rank"] = rng.permutation(n) + 1
    return RankedDataset(
        name=f"random(seed={seed})",
        pdf=pdf,
        pattern_attrs=[f"A{i}" for i in range(n_attrs)],
    )


def random_params(seed: int, n: int) -> dict:
    """Random (tau, k_min, k_max, GlobalSpec, alpha) for a dataset of n
    rows — covers constant bounds, stepping bounds, narrow/wide ranges."""
    rng = np.random.default_rng(seed + 10_000)
    k_min = int(rng.integers(2, max(3, n // 4)))
    k_max = min(n, k_min + int(rng.integers(1, 20)))
    tau = int(rng.integers(1, max(2, n // 4)))
    steps = {k_min: int(rng.integers(1, k_min + 2))}
    bound = steps[k_min]
    for k in range(k_min + 1, k_max + 1):
        if rng.random() < 0.2:
            bound += int(rng.integers(0, 3))
            steps[k] = bound
    return {
        "tau": tau,
        "k_min": k_min,
        "k_max": k_max,
        "global_spec": GlobalSpec(steps),
        "alpha": float(rng.uniform(0.3, 1.5)),
    }


def assert_tree_children_match_stat(store: StatsStore) -> int:
    """Walk the whole search tree through ``store.extensions``, from the
    empty pattern's bitmap, without τ_s pruning, deriving each child as the
    search does: ``p + pair`` with bitmap ``bits & value bitmap``. At every
    node the children come in :func:`children` order, and each derived
    bitmap equals the child's ``stat()`` in size and bits. The walk reaches
    every non-empty value combination over every attribute subset."""
    checked = 0
    stack = [(EMPTY, store.all_bits)]
    while stack:
        p, bits = stack.pop()
        kids = [(p + pair, bits & vb) for pair, vb in store.extensions(p)]
        assert [c for c, _ in kids] == list(children(p, store.domains)), p
        for c, c_bits in kids:
            assert store.stat(c) == PatternStat(c_bits.bit_count(), c_bits), c
        checked += len(kids)
        stack.extend(kids)
    assert checked == math.prod(len(d) + 1 for d in store.domains) - 1
