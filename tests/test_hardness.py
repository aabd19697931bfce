"""Theorem 3.3: on the Figure-2 construction the set of most general
violating patterns contains all C(n, n/2) patterns assigning 0 to exactly
n/2 attributes — exponential in n."""
from itertools import combinations
from math import comb

import pytest

from repro.core import GlobalSpec, PropSpec, iter_td
from repro.core.brute_force import brute_force
from repro.core.global_bounds import global_bounds
from repro.core.prop_bounds import prop_bounds
from repro.datasets.hardness import hardness_construction
from tests.helpers import invariant_checks


def _expected_patterns(n):
    return {
        tuple((i, "0") for i in idxs)
        for idxs in combinations(range(n), n // 2)
    }


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_global_bounds_worst_case(n):
    ds = hardness_construction(n)
    store = ds.pandas_store()
    spec = GlobalSpec({n: n // 2 + 1})
    res = iter_td(store, spec, 1, n, n).res_at(n)
    assert _expected_patterns(n) <= set(res)
    assert len(res) >= comb(n, n // 2)
    assert global_bounds(store, spec, 1, n, n).res_at(n) == res
    assert brute_force(store, spec, 1, n, n).res_at(n) == res


@pytest.mark.parametrize("n", [4, 6, 8])
def test_prop_bounds_worst_case(n):
    ds = hardness_construction(n)
    store = ds.pandas_store()
    spec = PropSpec((n + 3) / (n + 4))
    with invariant_checks():
        res = prop_bounds(store, spec, 1, n, n).res_at(n)
    assert _expected_patterns(n) <= set(res)
    assert len(res) >= comb(n, n // 2)
    assert brute_force(store, spec, 1, n, n).res_at(n) == res


def test_construction_shape():
    ds = hardness_construction(4)
    assert ds.n == 5
    assert ds.pdf.loc[0, "A1"] == "1"
    assert ds.pdf.loc[4, ["A1", "A2", "A3", "A4"]].tolist() == ["0"] * 4


def test_odd_n_rejected():
    with pytest.raises(ValueError):
        hardness_construction(5)
    with pytest.raises(ValueError):
        hardness_construction(0)
