"""Correctness grid: ITERTD and PROPBOUNDS must equal the brute-force
reference under proportional bounds (Proposition 4.8), with the internal
invariants of the incremental state checked at every k."""
import pytest

from repro.core import iter_td
from repro.core.brute_force import brute_force
from repro.core.prop_bounds import prop_bounds
from repro.core.bounds import PropSpec
from tests.helpers import invariant_checks, make_random_ranked, random_params

SEEDS = list(range(40))


@pytest.mark.parametrize("seed", SEEDS)
def test_prop_algorithms_match_brute_force(seed):
    ds = make_random_ranked(seed)
    params = random_params(seed, ds.n)
    store = ds.pandas_store()
    spec = PropSpec(params["alpha"])
    args = (store, spec, params["tau"], params["k_min"], params["k_max"])
    bf = brute_force(*args).res
    it = iter_td(*args).res
    with invariant_checks():
        pb = prop_bounds(*args).res
    assert it == bf, f"ITERTD mismatch (seed={seed}, params={params})"
    assert pb == bf, f"PROPBOUNDS mismatch (seed={seed}, params={params})"


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 1.0, 1.2])
def test_prop_alpha_sweep_on_paper_example(paper_ds, alpha):
    store = paper_ds.pandas_store()
    spec = PropSpec(alpha)
    args = (store, spec, 3, 3, 12)
    with invariant_checks():
        assert prop_bounds(*args).res == brute_force(*args).res


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_prop_full_range(seed):
    """k from 1 to n: every tuple insertion is exercised."""
    ds = make_random_ranked(seed, n_min=15, n_max=40)
    store = ds.pandas_store()
    spec = PropSpec(0.8)
    args = (store, spec, 2, 1, ds.n)
    with invariant_checks():
        assert prop_bounds(*args).res == brute_force(*args).res


def test_prop_results_satisfy_definition(paper_ds):
    """Problem 3.2 spelled out on the reported patterns."""
    store = paper_ds.pandas_store()
    alpha = 0.9
    result = prop_bounds(store, PropSpec(alpha), 4, 4, 10)
    for k in range(4, 11):
        for p in result.res_at(k):
            size = store.size(p)
            assert size >= 4
            assert store.stat(p).topk(k) < alpha * size * k / store.n


def test_prop_tiny_alpha_only_zero_count_patterns(paper_ds):
    """With a tiny α the bound is a tiny positive number, so exactly the
    substantial patterns with *zero* top-k presence violate."""
    store = paper_ds.pandas_store()
    with invariant_checks():
        result = prop_bounds(store, PropSpec(1e-9), 1, 2, 10)
    for k in range(2, 11):
        for p in result.res_at(k):
            assert store.stat(p).topk(k) == 0
