"""Tests for the experiment harness (runner, sweeps, tables)."""
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.bounds import GlobalSpec
from repro.core.result import SearchResult, SearchStats
from repro.experiments import (
    DEFAULTS,
    format_rows,
    result_size_census,
    sweep,
)
from repro.experiments import runner, sweeps
from repro.experiments.runner import RunOutcome, run_algorithm
from repro.experiments.shapley_exp import pick_group
from repro.experiments.sweeps import Defaults, examined_gain
from tests.helpers import add_step


SMALL = Defaults(n_attrs=4, tau=3, k_min=3, k_max=10, alpha=0.8)


def _result(examined: int) -> SearchResult:
    """An empty result of a run that examined ``examined`` patterns."""
    return SearchResult({}, 1, 1, SearchStats(examined=examined))


class TestRunner:
    def test_baseline_and_optimized_agree(self, paper_ds):
        spec = GlobalSpec({3: 2})
        runs = {
            a: run_algorithm(paper_ds.pandas_store, a, spec, 3, 3, 10)
            for a in ("baseline", "optimized")
        }
        base, opt = runs["baseline"].result, runs["optimized"].result
        assert base == opt
        assert not runs["baseline"].timed_out
        assert opt.stats.examined < base.stats.examined
        assert (base.k_min, base.k_max) == (3, 10)

    def test_timeout_marks_outcome(self, paper_ds):
        from repro.datasets.hardness import hardness_construction

        out = run_algorithm(
            hardness_construction(14).pandas_store, "baseline",
            GlobalSpec({14: 8}), 1, 14, 14, timeout_s=0.0,
        )
        assert out.timed_out
        assert out.result is None

    def test_deadline_covers_store_construction(self, paper_ds):
        """A store that takes longer to build than the whole budget times
        the run out, and its construction is part of ``time_s``."""
        sleep_s = 0.2

        def slow_factory():
            time.sleep(sleep_s)
            return paper_ds.pandas_store()

        out = run_algorithm(
            slow_factory, "baseline", GlobalSpec({3: 2}), 3, 3, 10,
            timeout_s=sleep_s / 2,
        )
        assert out.timed_out
        assert out.result is None
        assert out.time_s >= sleep_s


class TestSweeps:
    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_num_attrs(self, paper_ds_spark, problem):
        rows = sweep(
            paper_ds_spark, problem, "n_attrs", [2, 3, 4], SMALL, None
        )
        assert [r["n_attrs"] for r in rows] == [2, 3, 4]
        for r in rows:
            assert r["baseline"].result == r["optimized"].result

    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_tau(self, paper_ds_spark, problem):
        rows = sweep(paper_ds_spark, problem, "tau", [2, 4, 8], SMALL, None)
        for r in rows:
            assert r["baseline"].result == r["optimized"].result
        # Larger τ_s shrinks the search space (paper Fig. 6–7 trend).
        assert (
            rows[0]["baseline"].result.stats.examined
            >= rows[-1]["baseline"].result.stats.examined
        )

    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_krange(self, paper_ds_spark, problem):
        rows = sweep(
            paper_ds_spark, problem, "k_max", [8, 12, 16], SMALL, None
        )
        for r in rows:
            assert r["baseline"].result == r["optimized"].result
        assert (
            rows[-1]["baseline"].result.stats.examined
            > rows[0]["baseline"].result.stats.examined
        )

    @pytest.mark.parametrize("problem", ["global", "prop"])
    @pytest.mark.parametrize(
        "dataset, taus, k_maxes",
        [("student_ds", [10, 50, 100], []), ("compas_full", [50], []),
         ("german_ds", [50], [150])],
        ids=["student", "compas", "german"],
    )
    def test_optimized_matches_baseline_on_evaluation_datasets(
        self, request, dataset, taus, k_maxes, problem
    ):
        """On 8 attributes of each full-size evaluation dataset, at the
        paper's defaults and at τ_s / k-range points of Figs. 6–9, the
        optimized algorithm returns ITERTD's result sets and examines fewer
        patterns (paper §VI-B)."""
        ds = request.getfixturevalue(dataset)
        d = replace(DEFAULTS, n_attrs=8)
        rows = sweep(ds, problem, "tau", taus, d, None) + sweep(
            ds, problem, "k_max", k_maxes, d, None
        )
        for r in rows:
            assert r["optimized"].result == r["baseline"].result
            assert examined_gain(r) > 0

    def test_point_raises_when_results_differ(
        self, paper_ds_spark, monkeypatch
    ):
        """A sweep point at which both runs finish compares their result
        sets: an optimized run that loses one pattern stops the sweep."""
        optimized = runner.OPTIMIZED[GlobalSpec]

        def drop_one(*args, **kwargs):
            result = optimized(*args, **kwargs)
            del result.res[min(result.res)]
            return result

        monkeypatch.setitem(runner.OPTIMIZED, GlobalSpec, drop_one)
        with pytest.raises(RuntimeError, match="result sets differ"):
            sweep(paper_ds_spark, "global", "tau", [2], SMALL, None)

    def test_tau_row_must_filter_smallest_tau_row(
        self, paper_ds_spark, monkeypatch
    ):
        """A τ_s sweep checks each finished row against the smallest-τ
        one: a row that gains a pattern, in both of its runs so that the
        point itself agrees, stops the sweep."""
        run = sweeps.run_algorithm

        def add_one(factory, algo, spec, tau, *args):
            out = run(factory, algo, spec, tau, *args)
            if tau == 4:
                add_step(out.result.res, [((0, "F"),)], 10)
            return out

        monkeypatch.setattr(sweeps, "run_algorithm", add_one)
        with pytest.raises(RuntimeError, match="filtered by size"):
            sweep(paper_ds_spark, "global", "tau", [2, 4], SMALL, None)

    def test_examined_gain_positive_on_wide_range(self, paper_ds_spark):
        rows = sweep(paper_ds_spark, "global", "k_max", [16], SMALL, None)
        gain = examined_gain(rows[0])
        assert gain is not None and 0 < gain < 1

    def test_result_size_census(self, paper_ds_spark):
        """Every k of a finished run is one result set, an empty one too:
        at τ_s = 8 the last two k find no group."""
        rows = sweep(paper_ds_spark, "global", "tau", [2, 8], SMALL, None)
        tau8 = rows[1]["baseline"].result
        assert not tau8.res_at(9) and not tau8.res_at(10)
        # 2 runs × 2 τ_s × |[3, 10]|; paper-example results are tiny, all
        # below 100 groups.
        assert result_size_census(rows) == {
            "result_sets": 32, "below_threshold": 32, "fraction": 1.0,
        }


class TestPickGroup:
    """T8's group does not depend on the iteration order of the detected
    set: the same candidates in two orders give the same pick."""

    @staticmethod
    def picks(sizes: dict, dataset: str) -> set:
        store = SimpleNamespace(
            attr_names=["Medu", "sex"], size=sizes.__getitem__
        )
        return {
            pick_group(store, order, dataset)
            for order in (list(sizes), list(sizes)[::-1])
        }

    def test_smallest_preferred_singleton(self):
        sizes = {
            ((0, "1"),): 54, ((0, "2"),): 93, ((0, "4"),): 54,
            ((1, "F"),): 20, ((0, "3"), (1, "M")): 30,
        }
        assert self.picks(sizes, "student") == {((0, "1"),)}

    def test_largest_group_without_preferred_attribute(self):
        sizes = {((1, "M"),): 40, ((1, "F"),): 40, ((0, "2"),): 12}
        assert self.picks(sizes, "german_credit") == {((1, "F"),)}
        pairs = {((0, "2"), (1, "M")): 9, ((0, "1"), (1, "F")): 9}
        assert self.picks(pairs, "german_credit") == {((0, "1"), (1, "F"))}


class TestTables:
    def test_format_rows_markdown(self, paper_ds_spark):
        rows = sweep(paper_ds_spark, "global", "tau", [2], SMALL, None)
        md = format_rows(rows, "tau")
        assert md.startswith("| tau |")
        assert "| 2 |" in md
        assert md.count("\n") == 2  # header + separator + one data row

    @pytest.mark.parametrize(
        "base_s, opt_s, speedup",
        [(0.5, 0.25, "2.00x"), (0.1, 0.1, "1.00x"), (0.009, 0.001, "-"),
         (0.5, 0.099, "-"), (0.099, 0.5, "-")],
    )
    def test_speedup_needs_resolvable_times(self, base_s, opt_s, speedup):
        """The search speedup is printed only when both search times are
        at least ``SPEEDUP_RESOLUTION_S``; the examined gain always is."""
        row = {
            "tau": 2,
            "baseline": RunOutcome(base_s + 1.0, 1.0, _result(100)),
            "optimized": RunOutcome(opt_s + 1.0, 1.0, _result(50)),
        }
        cells = format_rows([row], "tau").splitlines()[2].split(" | ")
        assert cells[5] == speedup
        assert cells[8] == "50.00% |"

    def test_defaults_match_paper(self):
        assert DEFAULTS.tau == 50
        assert (DEFAULTS.k_min, DEFAULTS.k_max) == (10, 49)
        assert DEFAULTS.alpha == 0.8
        spec = DEFAULTS.spec("global")
        assert [spec.L(k) for k in (10, 20, 30, 40)] == [10, 20, 30, 40]
