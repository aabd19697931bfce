"""Tests for Algorithm 1 (single-k top-down search) and Proposition 4.3."""
import numpy as np
import pandas as pd
import pytest

from repro.core import GlobalSpec, PropSpec, StatsStore, iter_td
from repro.core.global_bounds import global_bounds
from repro.core.prop_bounds import prop_bounds
from repro.core.pattern import EMPTY
from repro.core.result import SearchStats, SearchTimeout
from repro.core.topdown import normalize_frontier, top_down_search
from repro.datasets.hardness import hardness_construction
from tests.helpers import make_random_ranked, satisfies


class _RecordingStore:
    """Proxy store that records every child of every extension list it
    hands out, the τ_s-pruned ones included — the patterns the search
    examines, i.e. the nodes of the search tree T_k. The search never
    builds a pruned child, so the proxy builds each as ``p + pair``."""

    def __init__(self, inner):
        self._inner = inner
        self.queried = []

    def extensions(self, p):
        ext = self._inner.extensions(p)
        self.queried.extend(p + pair for pair, _ in ext)
        return ext

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_res_and_dres_disjoint(paper_ds):
    """Res, derived from the violating set, and DRes, the rest, split it:
    no Res entry has an ancestor in the set, and every DRes entry has one
    in Res."""
    store = paper_ds.pandas_store()
    violating = top_down_search(
        store, GlobalSpec({4: 2}), 4, 4, SearchStats()
    )
    res = normalize_frontier(violating)
    dres = violating - res
    assert res and dres and res <= violating
    for r in res:
        assert not any(set(q) < set(r) for q in violating)
    for d in dres:
        assert any(
            len(r) < len(d) and set(r) <= set(d) for r in res
        ), "every DRes entry must have an ancestor in Res"


def test_violating_patterns_not_expanded(paper_ds):
    """No violating pattern is a search-tree descendant of another, and no
    reported pattern is a descendant of another reported one."""
    store = paper_ds.pandas_store()
    violating = top_down_search(
        store, GlobalSpec({4: 2}), 1, 4, SearchStats()
    )
    for p in violating:
        assert not any(p[:i] in violating for i in range(1, len(p)))
    res = normalize_frontier(violating)
    for p in res:
        for q in res:
            if p != q:
                assert not set(p) < set(q)


def test_deadline_raises():
    ds = hardness_construction(12)
    store = ds.pandas_store()
    stats = SearchStats(deadline=0.0)  # already expired
    with pytest.raises(SearchTimeout):
        top_down_search(store, GlobalSpec({12: 7}), 1, 12, stats)


def test_examined_counter_counts_pops(paper_ds):
    store = paper_ds.pandas_store()
    stats = SearchStats()
    rec = _RecordingStore(paper_ds.pandas_store())
    top_down_search(rec, GlobalSpec({4: 2}), 4, 4, stats)
    assert rec.queried
    assert stats.examined == len(rec.queried)


@pytest.mark.parametrize("k", [3, 5, 8, 12])
@pytest.mark.parametrize("spec", [GlobalSpec({1: 2}), PropSpec(0.8)])
def test_proposition_4_3(paper_ds, k, spec):
    """R(D)[k+1] satisfies at most half of the nodes of T_k (every
    attribute of the running example has ≥ 2 active values)."""
    store = paper_ds.pandas_store()
    rec = _RecordingStore(store)
    top_down_search(rec, spec, 1, k, SearchStats())
    nodes = [p for p in rec.queried if p != EMPTY]
    assert nodes
    new_tuple = store.row_at_rank(k + 1)
    satisfied = sum(1 for p in nodes if satisfies(new_tuple, p))
    assert satisfied <= len(nodes) / 2


@pytest.mark.parametrize("seed", range(6))
def test_proposition_4_3_random(seed):
    ds = make_random_ranked(seed, n_min=30, n_max=60)
    store = ds.pandas_store()
    rec = _RecordingStore(store)
    k = 10
    top_down_search(rec, PropSpec(0.9), 1, k, SearchStats())
    nodes = [p for p in rec.queried if p != EMPTY]
    assert nodes
    new_tuple = store.row_at_rank(k + 1)
    satisfied = sum(1 for p in nodes if satisfies(new_tuple, p))
    assert satisfied <= len(nodes) / 2


def _wide_store():
    """200 random rows over 6 attributes of 3 values each: with ``k = n``
    nothing violates, so the first search walks the whole substantial
    tree."""
    rng = np.random.default_rng(5)
    pdf = pd.DataFrame({
        f"A{i}": rng.integers(0, 3, 200).astype(str) for i in range(6)
    })
    pdf["rank"] = rng.permutation(200) + 1
    return StatsStore(pdf, [f"A{i}" for i in range(6)])


@pytest.mark.parametrize(
    "algo, spec",
    [(iter_td, GlobalSpec({1: 0})), (global_bounds, GlobalSpec({1: 0})),
     (prop_bounds, PropSpec(0.8))],
    ids=["iter_td", "global_bounds", "prop_bounds"],
)
def test_expired_deadline_stops_soon_after_512(algo, spec):
    """The deadline is checked whenever ``examined`` crosses a multiple of
    512, however the count grows, so an expired deadline stops the first
    search within one expansion after 512 examined patterns."""
    store = _wide_store()
    n = store.n
    assert algo(store, spec, 1, n, n).stats.examined > 4 * 512
    with pytest.raises(SearchTimeout) as err:
        algo(store, spec, 1, n, n, deadline=0.0)
    examined = int(str(err.value).removeprefix("examined="))
    assert 512 <= examined < 512 + sum(len(d) for d in store.domains)
