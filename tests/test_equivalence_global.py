"""Correctness grid: ITERTD and GLOBALBOUNDS must equal the brute-force
reference on randomized datasets, bounds and parameters (Proposition 4.5)."""
import pytest

from repro.core import iter_td
from repro.core.brute_force import brute_force
from repro.core.global_bounds import global_bounds
from repro.core.bounds import GlobalSpec
from tests.helpers import invariant_checks, make_random_ranked, random_params

SEEDS = list(range(40))


@pytest.mark.parametrize("seed", SEEDS)
def test_global_algorithms_match_brute_force(seed):
    ds = make_random_ranked(seed)
    params = random_params(seed, ds.n)
    store = ds.pandas_store()
    spec = params["global_spec"]
    args = (store, spec, params["tau"], params["k_min"], params["k_max"])
    bf = brute_force(*args).res
    it = iter_td(*args).res
    with invariant_checks():
        gb = global_bounds(*args).res
    assert it == bf, f"ITERTD mismatch (seed={seed}, params={params})"
    assert gb == bf, f"GLOBALBOUNDS mismatch (seed={seed}, params={params})"


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_global_constant_bound_no_restarts(seed):
    """With a constant L the optimized algorithm never restarts — the pure
    incremental path must still match brute force."""
    ds = make_random_ranked(seed)
    store = ds.pandas_store()
    k_min, k_max = 3, min(ds.n, 20)
    spec = GlobalSpec({k_min: 2})
    for tau in (1, 5):
        args = (store, spec, tau, k_min, k_max)
        with invariant_checks():
            assert global_bounds(*args).res == brute_force(*args).res


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_global_bound_increases_every_step(seed):
    """L_k rising at every k forces a full restart per step — results must
    equal ITERTD exactly (degenerate path of Algorithm 2)."""
    ds = make_random_ranked(seed)
    store = ds.pandas_store()
    k_min, k_max = 3, min(ds.n, 14)
    spec = GlobalSpec({k: max(1, k - 2) for k in range(k_min, k_max + 1)})
    args = (store, spec, 2, k_min, k_max)
    with invariant_checks():
        assert global_bounds(*args).res == iter_td(*args).res


def test_global_examined_fewer_than_baseline(paper_ds):
    """The optimized algorithm's raison d'être: fewer patterns examined
    than ITERTD over a k-range with constant bounds."""
    store = paper_ds.pandas_store()
    spec = GlobalSpec({2: 2})
    base = iter_td(store, spec, 2, 2, 16)
    opt = global_bounds(store, spec, 2, 2, 16)
    assert opt.res == base.res
    assert opt.stats.examined < base.stats.examined


def test_results_only_contain_substantial_patterns(paper_ds):
    store = paper_ds.pandas_store()
    spec = GlobalSpec({4: 3})
    result = global_bounds(store, spec, 6, 4, 10)
    for k in range(4, 11):
        for p in result.res_at(k):
            assert store.size(p) >= 6
            assert store.stat(p).topk(k) < 3
