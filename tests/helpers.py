"""Test helpers: randomized ranked datasets (driver-only) for the
algorithm-equivalence grids, random bound specs, and the check of a
store's derived child bitmaps."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

from repro.core.bounds import GlobalSpec
from repro.core.pattern import EMPTY, children
from repro.core.store import PatternStat, StatsStore
from repro.datasets.base import RankedDataset


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
