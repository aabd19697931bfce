"""The parameter sweep behind the paper's Figures 4–9 and the in-text
patterns-examined / result-size statistics.

Each sweep point builds a *fresh* Spark store per algorithm inside the
timed run, so the measured time is end to end (store construction, its
value bitmaps included) for baseline and optimized alike — the paper
measures complete runs the same way. A point at which both runs finish
raises if their result sets differ, and a τ_s sweep raises if a finished
row is not the smallest-τ finished row filtered by size.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.bounds import GlobalSpec, PropSpec
from repro.datasets.base import RankedDataset
from repro.experiments.runner import RunOutcome, run_algorithm


@dataclass(frozen=True)
class Defaults:
    """The paper's default parameters (Section VI-A). ``n_attrs`` caps the
    attributes of the τ_s and k-range sweeps and the T8 detection (the
    paper likewise capped attribute counts at what the baseline handled
    within its timeout)."""

    n_attrs: int = 10
    tau: int = 50
    k_min: int = 10
    k_max: int = 49
    alpha: float = 0.8

    def spec(self, problem: str) -> GlobalSpec | PropSpec:
        """The bounds of every sweep: α, or the paper's gradually
        increasing global bounds ``L_k = k``, a step every 10 positions
        from ``k_min`` to ``k_max``. At the defaults these are 10/20/30/40,
        :func:`~repro.core.bounds.paper_default_global`; the k-range sweep
        widens ``k_max`` and so extends the steps."""
        if problem == "prop":
            return PropSpec(self.alpha)
        return GlobalSpec(
            {k: k for k in range(self.k_min, self.k_max + 1, 10)}
        )


DEFAULTS = Defaults()

_ALGOS = ("baseline", "optimized")


def _point(
    ds: RankedDataset,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    timeout_s: float | None,
) -> dict[str, RunOutcome]:
    """Run the baseline and the optimized algorithm at one sweep point.
    Raises if both finish with different result sets."""
    point = {
        algo: run_algorithm(
            ds.spark_store, algo, spec, tau, k_min, k_max, timeout_s
        )
        for algo in _ALGOS
    }
    base, opt = point["baseline"].result, point["optimized"].result
    if base is not None and opt is not None and base != opt:
        raise RuntimeError(
            f"{ds.name}: baseline and optimized result sets differ "
            f"({spec}, tau={tau}, k in [{k_min}, {k_max}])"
        )
    return point


def sweep(
    ds: RankedDataset,
    problem: str,
    axis: str,
    values: Sequence,
    defaults: Defaults = DEFAULTS,
    timeout_s: float | None = 120.0,
) -> list[dict]:
    """Runtime as a function of one parameter, the others held at
    ``defaults``: ``axis`` is ``"n_attrs"`` (Figures 4–5), ``"tau"``
    (Figures 6–7) or ``"k_max"`` (Figures 8–9, ``k_min`` fixed). Each row
    holds the dataset name, the axis value under the axis name, and the
    baseline and optimized outcomes."""
    rows = []
    for value in values:
        d = replace(defaults, **{axis: value})
        point = _point(
            ds.with_attrs(d.n_attrs), d.spec(problem), d.tau, d.k_min,
            d.k_max, timeout_s,
        )
        rows.append({"dataset": ds.name, axis: value, **point})
    if axis == "tau":
        _check_tau_filter(ds.with_attrs(defaults.n_attrs), rows)
    return rows


def _check_tau_filter(ds: RankedDataset, rows: list[dict]) -> None:
    """Raise unless every finished row of a τ_s sweep is the smallest-τ
    finished row filtered by size: ``Res_{τ2}(k) = {p ∈ Res_{τ1}(k) :
    s_D(p) ≥ τ2}`` for ``τ1 ≤ τ2`` (a substantial pattern's ancestors are
    at least as large, so raising τ_s removes results and adds none)."""
    finished = [
        (row["tau"], out.result.res)
        for row in rows
        for out in (row["baseline"], row["optimized"])
        if not out.timed_out
    ]
    if len({tau for tau, _ in finished}) < 2:
        return
    tau1, low = min(finished, key=lambda f: f[0])
    store = ds.spark_store()
    size = {p: store.size(p) for p in low}
    for tau2, res in finished:
        if {p: m for p, m in low.items() if size[p] >= tau2} != res:
            raise RuntimeError(
                f"{ds.name}: the result sets at tau={tau2} are not those at "
                f"tau={tau1} filtered by size"
            )


def examined_gain(point: dict[str, RunOutcome]) -> float | None:
    """Patterns-examined gain of the optimized algorithm at one sweep
    point: ``1 − examined_opt / examined_baseline`` (the paper's §VI-B
    percentage). None if either run timed out."""
    base, opt = point["baseline"], point["optimized"]
    if base.timed_out or opt.timed_out or base.result.stats.examined <= 0:
        return None
    return 1.0 - opt.result.stats.examined / base.result.stats.examined


def result_size_census(rows: list[dict]) -> dict:
    """Fraction of (run, k) result sets with fewer than 100 groups — the
    paper's in-text 97.58% statistic (Section III). Every k of a finished
    run's range counts, an empty ``Res_k`` included."""
    total = below = 0
    for row in rows:
        for algo in _ALGOS:
            result = row[algo].result
            if result is None:
                continue
            for k in range(result.k_min, result.k_max + 1):
                total += 1
                below += len(result.res_at(k)) < 100
    return {
        "result_sets": total,
        "below_threshold": below,
        "fraction": below / total if total else float("nan"),
    }
