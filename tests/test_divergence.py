"""Tests for the divergence baseline of [27] (Section VI-D comparison)."""
import itertools

import pandas as pd
import pytest

from repro.core.store import StatsStore
from repro.divergence import divergence_subgroups


def _pandas_reference(pdf, attrs, k, min_support):
    """Driver-side enumeration of all frequent subgroups + divergence."""
    n = len(pdf)
    o_d = k / n
    rows = []
    for r in range(1, len(attrs) + 1):
        for subset in itertools.combinations(range(len(attrs)), r):
            cols = [attrs[i] for i in subset]
            grouped = pdf.groupby(cols, sort=False)
            for key, grp in grouped:
                key = key if isinstance(key, tuple) else (key,)
                if len(grp) / n < min_support:
                    continue
                outcome = float((grp["rank"] <= k).mean())
                rows.append(
                    {
                        "pattern": tuple(
                            (i, str(v)) for i, v in zip(subset, key)
                        ),
                        "size": len(grp),
                        "outcome": outcome,
                        "divergence": outcome - o_d,
                    }
                )
    return rows


@pytest.fixture(scope="module")
def paper_store(paper_ds):
    return paper_ds.pandas_store()


@pytest.fixture(scope="module")
def div_result(paper_store):
    return divergence_subgroups(paper_store, k=5, min_support=0.2)


def test_matches_pandas_reference(paper_ds, div_result):
    ref = _pandas_reference(paper_ds.pdf, paper_ds.pattern_attrs, 5, 0.2)
    got = {r.pattern: (r.size, r.outcome) for r in div_result.itertuples()}
    exp = {r["pattern"]: (r["size"], r["outcome"]) for r in ref}
    assert got == exp


def test_sorted_most_negative_first(div_result):
    div = div_result["divergence"].to_numpy()
    assert (div[:-1] <= div[1:]).all()
    # Tied divergences (there are some) follow pattern order.
    keys = [(r.divergence, r.pattern) for r in div_result.itertuples()]
    assert len(set(div)) < len(keys)
    assert keys == sorted(keys)


def test_divergence_formula(div_result, paper_ds):
    n = paper_ds.n
    for r in div_result.itertuples():
        assert r.divergence == pytest.approx(r.outcome - 5 / n)


def test_support_threshold_enforced(paper_store):
    out = divergence_subgroups(paper_store, k=5, min_support=0.5)
    assert (out["size"] >= 8).all()


def test_support_equal_to_min_support_reported():
    """A group whose support is exactly ``min_support`` is reported, also
    where ``min_support · n`` rounds above its size (0.28 · 25 =
    7.000000000000001)."""
    pdf = pd.DataFrame({"A": ["x"] * 7 + ["y"] * 18, "rank": range(1, 26)})
    out = divergence_subgroups(StatsStore(pdf, ["A"]), k=5, min_support=7 / 25)
    assert dict(zip(out["pattern"], out["size"])) == {
        ((0, "x"),): 7, ((0, "y"),): 18,
    }


def test_empty_pattern_excluded(div_result):
    assert all(len(p) >= 1 for p in div_result["pattern"])


def test_bad_support_rejected(paper_store):
    with pytest.raises(ValueError):
        divergence_subgroups(paper_store, 5, 0.0)


@pytest.mark.parametrize("k", [0, 17])
def test_k_outside_1_to_n_rejected(paper_store, k):
    with pytest.raises(ValueError):
        divergence_subgroups(paper_store, k, 0.2)


def test_detected_groups_are_frequent_subgroups(student_ds):
    """§VI-D containment: every pattern our PROPBOUNDS finds (4 attrs,
    τ_s=50, k=10, α=0.8) appears among [27]'s frequent subgroups with
    negative divergence."""
    from repro.core import PropSpec
    from repro.core.prop_bounds import prop_bounds

    view = student_ds.with_attrs(4)
    store = view.pandas_store()
    res = prop_bounds(store, PropSpec(0.8), 50, 10, 10).res_at(10)
    assert len(res) >= 1
    div = divergence_subgroups(store, k=10, min_support=50 / student_ds.n)
    assert len(div) >= 5
    table = {r.pattern: r.divergence for r in div.itertuples()}
    for p in res:
        assert p in table
        assert table[p] < 0
