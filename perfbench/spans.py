"""Span tracer for the detection benchmark.

The tracer wraps the public entry points of the program's layers from the
outside, for the duration of a ``with traced(tracer):`` block, and restores
them afterwards. Nothing under ``src/`` is edited.

Layers and the functions whose calls make their spans:

* ``store``  — ``SparkStatsStore.__init__``, ``_aggregate``, ``prefetch``,
  ``_prefetch_batch`` and ``_collect_rows``;
* ``lookup`` — ``BaseStatsStore.stat``;
* ``search`` — ``iter_td``, ``global_bounds``, ``prop_bounds``,
  ``top_down_search``, ``resume_search``, ``child_attr_sets``,
  ``normalize_frontier``, ``has_ancestor_in`` and the ``_PropState`` phases
  ``expand``, ``selective_td``, ``fire_k_tilde`` and ``promote``.

Two pitfalls shape the patching:

* ``repro.core`` re-exports the functions ``global_bounds`` and
  ``prop_bounds`` under the names of their modules, so the attribute
  ``repro.core.global_bounds`` is a function. Modules are looked up in
  ``sys.modules``.
* Several functions are imported by name into other modules (for example
  ``has_ancestor_in`` into ``topdown``, ``global_bounds`` and
  ``prop_bounds``). Each module keeps its own binding, so every binding in
  every loaded ``repro`` module is replaced.

Each span name keeps a call count, its total duration and its self time:
the duration minus the durations of the spans it directly encloses.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

STORE, LOOKUP, SEARCH = "store", "lookup", "search"


class Tracer:
    """Span totals, counters and the per-k trace of traced detections."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: span name -> layer
        self.layers: dict[str, str] = {}
        #: child seconds of each open span
        self._stack: list[list[float]] = [[0.0]]
        self.counters: dict[str, int] = defaultdict(int)
        #: k -> {"res", "dres", "K", "crossers", "restarts"}
        self.per_k: dict[int, dict[str, int]] = defaultdict(dict)
        self.algorithm: str | None = None
        self.tau = 0
        self.k_min = 0
        self.k = 0
        self._aggregations_at_lookup = 0

    def begin(self, algorithm: str, tau: int, k_min: int):
        """Start a fresh detection: totals and the per-k trace restart."""
        self.totals.clear()
        self.counters.clear()
        self.per_k.clear()
        self.algorithm = algorithm
        self.tau = tau
        self.k_min = k_min
        self.k = k_min

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        before: Callable[["Tracer", tuple], None] | None = None,
        after: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        self.layers[name] = layer
        stack = self._stack
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            parent = stack[-1]
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[0] += duration
                total = totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
            if after is not None:
                after(self, args, out)
            return out

        return wrapper

    # -- derived figures ---------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def total_s(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def self_s(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def layer_self_s(self, layer: str) -> float:
        return self.self_s(*(n for n, l in self.layers.items() if l == layer))

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "layer": self.layers[name],
                "calls": c,
                "total_s": t,
                "self_s": s,
            }
            for name, (c, t, s) in sorted(self.totals.items())
        }


# -- hooks: counters and the per-k trace -----------------------------------
def _after_aggregate(t: Tracer, args: tuple, out: dict) -> None:
    t.counters["aggregations"] += 1
    t.counters["attr_sets"] += 1
    t.counters["rows_collected"] += len(out)


def _after_prefetch_batch(t: Tracer, args: tuple, out: None) -> None:
    store, missing = args[0], args[1]
    t.counters["aggregations"] += 1
    t.counters["attr_sets"] += len(missing)
    t.counters["rows_collected"] += sum(len(store._groups[s]) for s in missing)


def _after_collect_rows(t: Tracer, args: tuple, out: list) -> None:
    t.counters["rows_collected"] += len(out)


def _before_stat(t: Tracer, args: tuple) -> None:
    t._aggregations_at_lookup = t.counters["aggregations"]


def _after_stat(t: Tracer, args: tuple, out) -> None:
    if t.counters["aggregations"] != t._aggregations_at_lookup:
        t.counters["lookup_misses"] += 1
    if out is not None and out.size >= t.tau:
        t.counters["lookup_useful"] += 1


def _after_top_down(t: Tracer, args: tuple, out) -> None:
    k = args[3]
    if t.algorithm == "global_bounds" and k > t.k_min:
        t.counters["restarts"] += 1
        t.per_k[k]["restarts"] = t.per_k[k].get("restarts", 0) + 1


def _after_resume(t: Tracer, args: tuple, out) -> None:
    k = args[3]
    t.counters["resumes"] += 1
    t.per_k[k]["crossers"] = t.per_k[k].get("crossers", 0) + 1


def _set_k(position: int) -> Callable[[Tracer, tuple], None]:
    def before(t: Tracer, args: tuple) -> None:
        t.k = args[position]

    return before


def _after_promote(t: Tracer, args: tuple, out) -> None:
    state = args[0]
    t.per_k[t.k].update(
        res=len(state.res), dres=len(state.dres), K=len(state.K)
    )


def _targets() -> list[tuple]:
    """(owner, attribute, span name, layer, before, after) of every
    wrapped entry point. Modules come from ``sys.modules``: the attribute
    ``repro.core.global_bounds`` is the function, not the module."""
    import repro.core  # noqa: F401  (loads every module below)

    store = sys.modules["repro.core.store"]
    topdown = sys.modules["repro.core.topdown"]
    itertd = sys.modules["repro.core.itertd"]
    gb = sys.modules["repro.core.global_bounds"]
    pb = sys.modules["repro.core.prop_bounds"]
    pattern = sys.modules["repro.core.pattern"]
    spark_store = store.SparkStatsStore
    prop_state = pb._PropState
    return [
        (spark_store, "__init__", "store.init", STORE, None, None),
        (spark_store, "_aggregate", "store.aggregate", STORE,
         None, _after_aggregate),
        (spark_store, "prefetch", "store.prefetch", STORE, None, None),
        (spark_store, "_prefetch_batch", "store.prefetch_batch", STORE,
         None, _after_prefetch_batch),
        (spark_store, "_collect_rows", "store.collect_rows", STORE,
         None, _after_collect_rows),
        (store.BaseStatsStore, "stat", "lookup.stat", LOOKUP,
         _before_stat, _after_stat),
        (itertd, "iter_td", "search.iter_td", SEARCH, None, None),
        (gb, "global_bounds", "search.global_bounds", SEARCH,
         None, None),
        (pb, "prop_bounds", "search.prop_bounds", SEARCH, None, None),
        (topdown, "top_down_search", "search.top_down", SEARCH,
         None, _after_top_down),
        (topdown, "resume_search", "search.resume", SEARCH,
         None, _after_resume),
        (topdown, "child_attr_sets", "search.child_attr_sets", SEARCH,
         None, None),
        (gb, "normalize_frontier", "global.normalize", SEARCH,
         None, None),
        (pattern, "has_ancestor_in", "pattern.has_ancestor_in", SEARCH,
         None, None),
        (prop_state, "expand", "prop.expand", SEARCH, _set_k(2), None),
        (prop_state, "selective_td", "prop.selective", SEARCH,
         _set_k(2), None),
        (prop_state, "fire_k_tilde", "prop.fire", SEARCH,
         _set_k(1), None),
        (prop_state, "promote", "prop.promote", SEARCH,
         None, _after_promote),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every binding of the traced entry points for the block.

    A class attribute is replaced on its class. A module-level function is
    replaced in every loaded ``repro`` module that holds it under any name,
    which covers the modules that imported it by name and the package
    re-exports.
    """
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]
    undo: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, layer, before, after in _targets():
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, name, layer, before, after)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, binding, original))
                        setattr(module, binding, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(t: Tracer, detection) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced detection just finished, as
    ``name -> (value, unit)``. ``_s`` figures of a single span name are self
    times, except ``global.normalize_s`` and the ``store`` times, whose spans
    enclose only their own layer's work and are given whole."""
    calls = max(t.calls("lookup.stat"), 1)
    kmax = {
        key: max((v.get(key, 0) for v in t.per_k.values()), default=0)
        for key in ("res", "dres", "K")
    }
    return {
        "store.aggregations": (t.counters["aggregations"], "count"),
        "store.agg_s": (t.total_s("store.aggregate", "store.prefetch_batch"), "s"),
        "store.attr_sets": (t.counters["attr_sets"], "count"),
        "store.rows_collected": (t.counters["rows_collected"], "count"),
        "spark.jobs": (detection.spark_jobs, "count"),
        "store.init_s": (t.total_s("store.init"), "s"),
        "store.collect_rows_s": (t.total_s("store.collect_rows"), "s"),
        "lookup.calls": (t.calls("lookup.stat"), "count"),
        "lookup.self_s": (t.self_s("lookup.stat"), "s"),
        "lookup.miss_ratio": (t.counters["lookup_misses"] / calls, "ratio"),
        "lookup.useful_ratio": (t.counters["lookup_useful"] / calls, "ratio"),
        "search.examined": (detection.examined, "count"),
        "search.self_s": (t.layer_self_s(SEARCH), "s"),
        "pattern.ancestor_checks": (t.calls("pattern.has_ancestor_in"), "count"),
        "pattern.ancestor_s": (t.total_s("pattern.has_ancestor_in"), "s"),
        "global.normalize_s": (t.total_s("global.normalize"), "s"),
        "global.restarts": (t.counters["restarts"], "count"),
        "global.resumes": (t.counters["resumes"], "count"),
        "prop.selective_s": (t.self_s("prop.selective"), "s"),
        "prop.fire_s": (t.self_s("prop.fire"), "s"),
        "prop.promote_s": (t.self_s("prop.promote"), "s"),
        "prop.expand_s": (t.self_s("prop.expand"), "s"),
        "prop.res_max": (kmax["res"], "count"),
        "prop.dres_max": (kmax["dres"], "count"),
        "prop.K_max": (kmax["K"], "count"),
    }
