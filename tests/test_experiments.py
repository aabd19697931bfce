"""Tests for the experiment harness (runner, sweeps, tables)."""
import time

import pytest

from repro.core.bounds import GlobalSpec
from repro.experiments import (
    DEFAULTS,
    format_rows,
    result_size_census,
    sweep_krange,
    sweep_num_attrs,
    sweep_tau,
)
from repro.experiments.runner import run_algorithm
from repro.experiments.sweeps import Defaults, examined_gain
from repro.datasets.base import RankedDataset


SMALL = Defaults(tau=3, k_min=3, k_max=10, alpha=0.8)


class TestRunner:
    def test_baseline_and_optimized_agree(self, paper_ds):
        spec = GlobalSpec({3: 2})
        runs = {
            a: run_algorithm(
                paper_ds.pandas_store, "global", a, spec, 3, 3, 10
            )
            for a in ("baseline", "optimized")
        }
        assert runs["baseline"].res == runs["optimized"].res
        assert not runs["baseline"].timed_out
        assert runs["optimized"].examined < runs["baseline"].examined
        assert runs["baseline"].groups_per_k.keys() == set(range(3, 11))

    def test_timeout_marks_outcome(self, paper_ds):
        from repro.datasets.hardness import hardness_construction

        out = run_algorithm(
            hardness_construction(14).pandas_store, "global", "baseline",
            GlobalSpec({14: 8}), 1, 14, 14, timeout_s=0.0,
        )
        assert out.timed_out
        assert out.res is None

    def test_deadline_covers_store_construction(self, paper_ds):
        """A store that takes longer to build than the whole budget times
        the run out, and its construction is part of ``time_s``."""
        sleep_s = 0.2

        def slow_factory():
            time.sleep(sleep_s)
            return paper_ds.pandas_store()

        out = run_algorithm(
            slow_factory, "global", "baseline", GlobalSpec({3: 2}), 3, 3, 10,
            timeout_s=sleep_s / 2,
        )
        assert out.timed_out
        assert out.res is None
        assert out.time_s >= sleep_s


class TestSweeps:
    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_num_attrs(self, paper_ds, problem):
        rows = sweep_num_attrs(
            paper_ds, problem, [2, 3, 4],
            RankedDataset.pandas_store, SMALL, None
        )
        assert [r["n_attrs"] for r in rows] == [2, 3, 4]
        for r in rows:
            assert r["baseline"].res == r["optimized"].res

    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_tau(self, paper_ds, problem):
        rows = sweep_tau(
            paper_ds, problem, [2, 4, 8],
            RankedDataset.pandas_store, SMALL, None
        )
        for r in rows:
            assert r["baseline"].res == r["optimized"].res
        # Larger τ_s shrinks the search space (paper Fig. 6–7 trend).
        assert (
            rows[0]["baseline"].examined >= rows[-1]["baseline"].examined
        )

    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_krange(self, paper_ds, problem):
        rows = sweep_krange(
            paper_ds, problem, [8, 12, 16],
            RankedDataset.pandas_store, SMALL, None
        )
        for r in rows:
            assert r["baseline"].res == r["optimized"].res
        assert rows[-1]["baseline"].examined > rows[0]["baseline"].examined

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
        view = request.getfixturevalue(dataset).with_attrs(8)
        rows = sweep_tau(
            view, problem, taus, RankedDataset.pandas_store, timeout_s=None
        ) + sweep_krange(
            view, problem, k_maxes, RankedDataset.pandas_store, timeout_s=None
        )
        for r in rows:
            assert r["optimized"].res == r["baseline"].res
            assert examined_gain(r) > 0

    def test_examined_gain_positive_on_wide_range(self, paper_ds):
        rows = sweep_krange(
            paper_ds, "global", [16], RankedDataset.pandas_store, SMALL, None
        )
        gain = examined_gain(rows[0])
        assert gain is not None and 0 < gain < 1

    def test_result_size_census(self, paper_ds):
        rows = sweep_tau(
            paper_ds, "global", [2, 4], RankedDataset.pandas_store, SMALL, None
        )
        census = result_size_census(rows)
        assert census["result_sets"] > 0
        assert 0.0 <= census["fraction"] <= 1.0
        # Paper-example results are tiny, all below 100 groups.
        assert census["fraction"] == 1.0


class TestTables:
    def test_format_rows_markdown(self, paper_ds):
        rows = sweep_tau(
            paper_ds, "global", [2], RankedDataset.pandas_store, SMALL, None
        )
        md = format_rows(rows, "tau")
        assert md.startswith("| tau |")
        assert "| 2 |" in md
        assert md.count("\n") == 2  # header + separator + one data row

    def test_defaults_match_paper(self):
        assert DEFAULTS.tau == 50
        assert (DEFAULTS.k_min, DEFAULTS.k_max) == (10, 49)
        assert DEFAULTS.alpha == 0.8
        spec = DEFAULTS.spec("global")
        assert [spec.L(k) for k in (10, 20, 30, 40)] == [10, 20, 30, 40]
