"""Pins the paper's metric: the exact number of patterns each algorithm
examines on the session datasets (pandas store), with the total size of its
result sets and the number of distinct patterns in them. A change to the
search bookkeeping that leaves results and effort alone keeps every figure;
one that changes either fails here."""
import pytest

from repro.core import GlobalSpec, PropSpec, iter_td
from repro.core.bounds import paper_default_global
from repro.core.global_bounds import global_bounds
from repro.core.prop_bounds import prop_bounds

# (dataset fixture, attributes, algorithm, spec, τ_s, k_min, k_max,
#  examined, Σ_k |Res_k| (the masks' popcounts), distinct patterns)
CASES = [
    ("german_ds", 6, iter_td, paper_default_global(), 50, 10, 1000,
     808_930, 38_022, 192),
    ("german_ds", 6, prop_bounds, PropSpec(0.8), 10, 10, 1000,
     40_551, 24_494, 350),
    ("german_ds", 8, global_bounds, paper_default_global(), 20, 10, 300,
     8_905, 27_801, 294),
    ("german_ds", 8, global_bounds, paper_default_global(), 20, 10, 1000,
     33_214, 440_110, 1_380),
    ("compas_ds", 10, prop_bounds, PropSpec(0.8), 50, 10, 49,
     43_740, 2_443, 301),
    ("student_ds", 10, global_bounds, paper_default_global(), 50, 10, 49,
     1_662, 975, 64),
    ("student_ds", 10, iter_td, paper_default_global(), 50, 10, 49,
     5_073, 975, 64),
    ("student_ds", 15, prop_bounds, PropSpec(0.8), 50, 10, 49,
     47_632, 1_870, 249),
]


@pytest.mark.parametrize(
    "fixture, m, algo, spec, tau, k_min, k_max, examined, total, distinct",
    CASES,
    ids=[f"{c[0]}-{c[1]}-{c[2].__name__}-tau{c[4]}-k{c[6]}" for c in CASES],
)
def test_examined_and_result_sizes_pinned(
    request, fixture, m, algo, spec, tau, k_min, k_max, examined, total,
    distinct,
):
    store = request.getfixturevalue(fixture).with_attrs(m).pandas_store()
    out = algo(store, spec, tau, k_min, k_max)
    assert out.stats.examined == examined
    assert sum(mask.bit_count() for mask in out.res.values()) == total
    assert len(out.res) == distinct
