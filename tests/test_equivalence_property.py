"""Property tests on any small ranked table — constant columns, duplicate
rows, nulls, the full k range 1..n, τ_s of 1 or n:

* ITERTD, GLOBALBOUNDS and PROPBOUNDS equal the brute-force reference,
  and the lattice oracle equals the per-k filter;
* τ-filter: for τ1 ≤ τ2, each algorithm's result at τ2 is its result at
  τ1 restricted to patterns of size ≥ τ2 (a substantial pattern's
  ancestors are at least as large, so raising τ_s removes results and
  adds none);
* attribute order: on the reversed attribute order each algorithm returns
  the same groups, with the attribute indices reversed;
* k-window: a run over ``[k_a, k_b] ⊆ [1, n]`` returns the full run's
  masks cut to the window's bits, less the patterns left with none;
* each algorithm's result is canonical: no mask is 0 or has a bit outside
  the k range, ``res_at(k)`` is the patterns with bit k set, and a k
  outside the range is a ``KeyError``;
* the store derives every search-tree child's bitmap from its parent's as
  ``stat()`` computes it from scratch;
* Algorithm 1, from the root and from any node, finds the violating set of
  a plain BFS over ``pattern.children`` and ``stat()``, and examines as
  many patterns."""
from collections import deque

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GlobalSpec, PropSpec, StatsStore, iter_td
from repro.core.brute_force import brute_force
from repro.core.global_bounds import global_bounds
from repro.core.pattern import children
from repro.core.prop_bounds import prop_bounds
from repro.core.result import SearchStats
from repro.core.topdown import resume_search, top_down_search
from tests.helpers import (
    assert_tree_children_match_stat,
    invariant_checks,
    per_k_oracle,
)


@st.composite
def ranked_frames(draw):
    """``(table, global spec, α, τ_s)`` for a random ranked pandas table of
    1–12 rows over 1–3 attributes, each with 1–4 values from ``x, None,
    y, z`` (1 makes it constant)."""
    n = draw(st.integers(1, 12))
    columns = {
        f"A{i}": draw(st.lists(
            st.sampled_from(("x", None, "y", "z")[: draw(st.integers(1, 4))]),
            min_size=n, max_size=n,
        ))
        for i in range(draw(st.integers(1, 3)))
    }
    pdf = pd.DataFrame(columns)
    pdf["rank"] = draw(st.permutations(range(1, n + 1)))
    starts = draw(st.sets(st.integers(1, n), min_size=1))
    bounds = draw(st.lists(
        st.integers(0, n), min_size=len(starts), max_size=len(starts)
    ))
    spec = GlobalSpec(dict(zip(sorted(starts), sorted(bounds))))
    alpha = draw(st.integers(1, 20)) / 10
    tau = draw(st.sampled_from([1, n]))
    return pdf, spec, alpha, tau


def _store(frame):
    pdf, *rest = frame
    return (StatsStore(pdf, list(pdf.columns[:-1])), *rest)


def ranked_tables():
    """``(store, global spec, α, τ_s)``: ``ranked_frames`` with the table
    replaced by a store over its attribute columns."""
    return ranked_frames().map(_store)


def _runs(global_spec, alpha):
    """``(algorithm, spec)`` for the four algorithms under both problems."""
    for spec, optimized in [
        (global_spec, global_bounds), (PropSpec(alpha), prop_bounds)
    ]:
        for algo in (brute_force, iter_td, optimized):
            yield algo, spec


@settings(max_examples=200, deadline=None)
@given(ranked_tables())
def test_algorithms_match_brute_force(table):
    store, global_spec, alpha, tau = table
    n = store.n
    for args, optimized in [
        ((store, global_spec, tau, 1, n), global_bounds),
        ((store, PropSpec(alpha), tau, 1, n), prop_bounds),
    ]:
        expected = brute_force(*args).res
        assert per_k_oracle(*args).res == expected
        with invariant_checks():
            assert iter_td(*args).res == expected
            assert optimized(*args).res == expected


@settings(max_examples=100, deadline=None)
@given(ranked_tables(), st.data())
def test_tau_filter(table, data):
    store, global_spec, alpha, _ = table
    n = store.n
    tau1 = data.draw(st.integers(1, n))
    tau2 = data.draw(st.integers(tau1, n))
    for algo, spec in _runs(global_spec, alpha):
        low = algo(store, spec, tau1, 1, n).res
        high = algo(store, spec, tau2, 1, n).res
        assert high == {
            p: mask for p, mask in low.items() if store.size(p) >= tau2
        }, (algo.__name__, tau1, tau2)


@settings(max_examples=100, deadline=None)
@given(ranked_frames())
def test_attribute_order_permutation(frame):
    pdf, global_spec, alpha, tau = frame
    attrs = list(pdf.columns[:-1])
    store = StatsStore(pdf, attrs)
    reversed_store = StatsStore(pdf, attrs[::-1])
    n, m = store.n, len(attrs)

    def remap(p):
        return tuple(sorted((m - 1 - a, v) for a, v in p))

    for algo, spec in _runs(global_spec, alpha):
        got = algo(reversed_store, spec, tau, 1, n).res
        assert {remap(p): mask for p, mask in got.items()} == algo(
            store, spec, tau, 1, n
        ).res, algo.__name__


@settings(max_examples=100, deadline=None)
@given(ranked_tables(), st.data())
def test_k_window(table, data):
    store, global_spec, alpha, tau = table
    n = store.n
    k_a = data.draw(st.integers(1, n))
    k_b = data.draw(st.integers(k_a, n))
    window = (1 << (k_b + 1)) - (1 << k_a)
    for algo, spec in _runs(global_spec, alpha):
        full = algo(store, spec, tau, 1, n).res
        assert algo(store, spec, tau, k_a, k_b).res == {
            p: mask & window for p, mask in full.items() if mask & window
        }, (algo.__name__, k_a, k_b)


@settings(max_examples=100, deadline=None)
@given(ranked_tables())
def test_result_masks_are_canonical(table):
    store, global_spec, alpha, tau = table
    n = store.n
    window = (1 << (n + 1)) - (1 << 1)
    for algo, spec in _runs(global_spec, alpha):
        result = algo(store, spec, tau, 1, n)
        for mask in result.res.values():
            assert mask and not mask & ~window, (algo.__name__, mask)
        for k in range(1, n + 1):
            assert result.res_at(k) == {
                p for p, mask in result.res.items() if mask >> k & 1
            }, (algo.__name__, k)
        for k in (0, n + 1):
            with pytest.raises(KeyError):
                result.res_at(k)


@settings(max_examples=100, deadline=None)
@given(ranked_tables())
def test_tree_children_match_stat(table):
    assert_tree_children_match_stat(table[0])


def _reference_search(store, spec, tau, k, node):
    """Algorithm 1 below ``node`` as a BFS over :func:`children`, with
    every count from ``stat()``: ``(violating set, examined count)``.
    Each child of an expanded node is examined; a substantial violator is
    kept, a substantial passing child is expanded."""
    violating, examined = set(), 0
    queue = deque([node])
    while queue:
        for child in children(queue.popleft(), store.domains):
            examined += 1
            stat = store.stat(child)
            if stat.size < tau:
                continue
            if spec.violates(stat.topk(k), stat.size, k, store.n):
                violating.add(child)
            else:
                queue.append(child)
    return violating, examined


@settings(max_examples=200, deadline=None)
@given(ranked_tables(), st.data())
def test_search_matches_reference_bfs(table, data):
    store, global_spec, alpha, _ = table
    n = store.n
    tau = data.draw(st.integers(1, n), label="tau")
    k = data.draw(st.integers(1, n), label="k")
    values = [
        data.draw(st.sampled_from([None, *domain]), label=f"A{a}")
        for a, domain in enumerate(store.domains)
    ]
    node = tuple((a, v) for a, v in enumerate(values) if v is not None)
    for spec in (global_spec, PropSpec(alpha)):
        stats = SearchStats()
        got = top_down_search(store, spec, tau, k, stats)
        assert (got, stats.examined) == _reference_search(
            store, spec, tau, k, ()
        ), spec
        stats, got = SearchStats(), set()
        resume_search(store, spec, tau, k, stats, node, got)
        assert (got, stats.examined) == _reference_search(
            store, spec, tau, k, node
        ), (spec, node)
