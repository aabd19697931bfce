"""The benchmark's span tracer (``perfbench/spans.py``) wraps program
entry points by name and reads ``k`` from their positional arguments. Each
name must resolve, and each ``k`` must be where the tracer reads it, so
that renaming a function or moving its ``k`` fails here and not only in a
traced benchmark run. No Spark session is started."""
from perfbench.spans import Tracer, _targets, traced

from repro.core import GlobalSpec, PropSpec, store
from repro.core.global_bounds import global_bounds
from repro.core.prop_bounds import prop_bounds


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for owner, attr, span, *_ in targets:
        assert callable(getattr(owner, attr, None)), (span, owner, attr)


def _traced_run(algo, store, spec, tau, k_min, k_max):
    tracer = Tracer()
    tracer.begin(algo.__name__, tau, k_min)
    with traced(tracer):
        result = algo(store, spec, tau, k_min, k_max)
    return tracer, result


def test_prop_trace_keyed_by_k(paper_ds):
    """``expand``, ``selective_td`` and ``fire_k_tilde`` give the tracer
    the k that ``promote`` records |Res| at."""
    tracer, result = _traced_run(
        prop_bounds, paper_ds.pandas_store(), PropSpec(0.8), 1, 2, 16
    )
    assert set(tracer.per_k) == set(range(result.k_min, result.k_max + 1))
    for k in tracer.per_k:
        assert tracer.per_k[k]["res"] == len(result.res_at(k)), k


def test_global_restarts_where_bound_steps_up(paper_ds):
    """``top_down_search`` gives the tracer its k: a restart is recorded
    exactly where ``L_k`` steps up."""
    spec = GlobalSpec({3: 1, 6: 2, 9: 2, 11: 3})
    tracer, _ = _traced_run(
        global_bounds, paper_ds.pandas_store(), spec, 1, 3, 14
    )
    restarts = {k for k, v in tracer.per_k.items() if v.get("restarts")}
    assert restarts == {k for k in range(4, 15) if spec.L(k) > spec.L(k - 1)}
    assert restarts == {6, 11}


def test_tracer_sees_a_pandas_table_store(paper_ds):
    """The tracer's store names are the one store class, so a store over a
    pandas table makes the same store spans as one over a Spark table: one
    ``store.init``, one ``store.collect_rows`` reading every tuple and one
    ``store.aggregate`` per attribute, each adding its value count."""
    assert store.SparkStatsStore is store.BaseStatsStore is store.StatsStore
    tracer = Tracer()
    tracer.begin("none", 1, 1)
    with traced(tracer):
        built = store.StatsStore(paper_ds.pdf, paper_ds.pattern_attrs)
    m = len(paper_ds.pattern_attrs)
    assert tracer.calls("store.init") == 1
    assert tracer.calls("store.collect_rows") == 1
    assert tracer.calls("store.aggregate") == m
    assert tracer.counters["aggregations"] == m
    assert tracer.counters["rows_collected"] == built.n + sum(
        len(d) for d in built.domains
    )
