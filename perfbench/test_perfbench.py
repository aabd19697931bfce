"""Tests of the detection benchmark's tracer and its contract.

    python3 -m pytest perfbench/ -q -p no:cacheprovider

Each workload runs in a reduced copy (fewer attributes or a shorter k
range, same algorithm and store) once untraced and once traced.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.spans import Tracer, layer_metrics, traced  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MASTER,
    WORKLOADS,
    Detection,
    build_input,
    detect,
    pin_environment,
    start_session,
    stop_spark,
)

SMOKE = {
    "german-prop-tau10": {"k_max": 60},
    "german-itertd-k1000": {"k_max": 60},
    "student-prop-tau10": {"n_attrs": 6, "k_max": 16},
    "compas16-global": {"n_attrs": 8, "k_max": 30},
}

STORE_FIGURES = [
    "store.aggregations", "store.agg_s", "store.attr_sets",
    "store.rows_collected", "spark.jobs", "store.init_s",
]
PROP_FIGURES = STORE_FIGURES + [
    "store.collect_rows_s", "lookup.calls", "search.examined",
    "search.self_s", "pattern.ancestor_checks", "pattern.ancestor_s",
    "global.normalize_s", "prop.selective_s", "prop.fire_s",
    "prop.promote_s", "prop.expand_s", "prop.res_max", "prop.dres_max",
    "prop.K_max",
]
#: Per-layer figures each workload is predicted to exercise.
EXERCISED = {
    "german-prop-tau10": PROP_FIGURES,
    "german-itertd-k1000": STORE_FIGURES + [
        "lookup.calls", "lookup.self_s", "lookup.useful_ratio",
        "search.examined", "search.self_s", "pattern.ancestor_checks",
    ],
    "student-prop-tau10": PROP_FIGURES,
    "compas16-global": STORE_FIGURES + [
        "store.collect_rows_s", "search.examined", "global.normalize_s",
        "global.restarts", "global.resumes",
    ],
}
#: Per-layer figures the run adds to ``layer_metrics``.
RUN_FIGURES = {
    "setup.session_s", "setup.dataset_s", "setup.cold_s", "setup.warm_up_s",
    "trace.detect_s", "trace.overhead_s",
}


@pytest.fixture(scope="module")
def spark():
    pin_environment(ROOT / ".perfbench" / "test")
    session = start_session()
    assert session.sparkContext.master == MASTER
    yield session
    stop_spark()


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_tracing_leaves_results_unchanged(spark, name):
    w = dataclasses.replace(WORKLOADS[name], **SMOKE[name])
    _, view = build_input(spark, w, w.data_seed, seed=1)
    plain = detect(spark, view, w, 300.0, "test-plain")
    tracer = Tracer()
    tracer.begin(w.algorithm, w.tau, w.k_min)
    with traced(tracer):
        with_spans = detect(spark, view, w, 300.0, "test-traced")
    assert plain.error is None, plain.error
    assert with_spans.error is None, with_spans.error
    assert with_spans.res == plain.res
    figures = layer_metrics(tracer, with_spans)
    assert figures["search.examined"][0] == plain.examined
    assert figures["store.aggregations"][0] == tracer.calls(
        "store.aggregate", "store.prefetch_batch"
    )
    zero = [f for f in EXERCISED[name] if not figures[f][0] > 0]
    assert not zero, f"{name}: no work traced for {zero}"
    if w.problem == "prop":
        assert set(tracer.per_k) == set(range(w.k_min, w.k_max + 1))


def test_every_binding_is_wrapped_and_restored():
    import repro.core  # noqa: F401

    # ``repro.core.global_bounds`` is the function; its module is only
    # reachable through sys.modules.
    pattern = sys.modules["repro.core.pattern"]
    topdown = sys.modules["repro.core.topdown"]
    gb = sys.modules["repro.core.global_bounds"]
    originals = [
        pattern.has_ancestor_in, gb.normalize_frontier,
        topdown.top_down_search, topdown.resume_search,
        topdown.child_attr_sets,
    ]

    def bindings():
        return {
            (name, attr): value
            for name, module in list(sys.modules.items())
            if name.startswith("repro") and module is not None
            for attr, value in vars(module).items()
            if any(value is f for f in originals)
        }

    before = bindings()
    assert len(before) > len(originals)  # imported by name elsewhere too
    with traced(Tracer()):
        assert bindings() == {}
    assert bindings() == before


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "detect_s", "setup_s", "peak_rss_mb"
    }
    figures = layer_metrics(Tracer(), Detection(seconds=0.0))
    assert {m["name"] for m in spec["per_layer"]} == set(figures) | RUN_FIGURES
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert set(SMOKE) == set(WORKLOADS)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "german-itertd-k1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
