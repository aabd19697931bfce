"""Smoke tests: every jobs/t*.py entrypoint runs end to end in --fast mode
on the session SparkSession and returns structured results. T1–T6 and T8
run once, in module fixtures; T7 and T11 are computed from the T3–T6 rows,
T9 from T8's analyses."""
import contextlib
import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import DEFAULTS, sweep
from repro.experiments.sweeps import examined_gain

ROOT = Path(__file__).resolve().parent.parent
JOBS_DIR = str(ROOT / "jobs")
if JOBS_DIR not in sys.path:
    sys.path.insert(0, JOBS_DIR)


@pytest.fixture(scope="module")
def fast_kwargs():
    return {"fast": True, "timeout": 30.0}


@pytest.fixture(scope="module")
def figure_jobs(spark, fast_kwargs):
    """The T1–T6 outputs and what they print, run once."""
    import t1_attrs_global, t2_attrs_prop, t3_tau_global, t4_tau_prop
    import t5_krange_global, t6_krange_prop

    jobs = {
        "t1": t1_attrs_global, "t2": t2_attrs_prop, "t3": t3_tau_global,
        "t4": t4_tau_prop, "t5": t5_krange_global, "t6": t6_krange_prop,
    }
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        out = {t: job.main(spark, **fast_kwargs) for t, job in jobs.items()}
    return out, printed.getvalue()


@pytest.fixture(scope="module")
def sweeps(figure_jobs):
    """The T3–T6 outputs: T7 and T11 are read off these rows."""
    out, _ = figure_jobs
    return {t: out[t] for t in ("t3", "t4", "t5", "t6")}


def _assert_finished_points_agree(out):
    for rows in out.values():
        for row in rows:
            if not (row["baseline"].timed_out or row["optimized"].timed_out):
                assert row["baseline"].result == row["optimized"].result


def test_t1_attrs_global(figure_jobs):
    out = figure_jobs[0]["t1"]
    assert set(out) == {"student", "compas", "german"}
    _assert_finished_points_agree(out)


def test_t2_attrs_prop(figure_jobs):
    _assert_finished_points_agree(figure_jobs[0]["t2"])


def test_figure_headings_match_recorded_run(figure_jobs):
    """The fast T1–T6 jobs print the 18 T1–T6 headings of the recorded
    full run, in order, each over a table keyed by its sweep axis."""
    lines = figure_jobs[1].splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("## ")]
    recorded = [
        line for line in (ROOT / "experiments_raw.txt").read_text()
        .splitlines() if line.startswith("## ")
    ]
    assert [lines[i] for i in at] == recorded[:18]
    axes = ["n_attrs"] * 6 + ["tau"] * 6 + ["k_max"] * 6
    assert [lines[i + 2].split(" | ")[0] for i in at] == [
        f"| {axis}" for axis in axes
    ]


def test_t3_tau_global(sweeps):
    assert all(len(rows) == 2 for rows in sweeps["t3"].values())


def test_t4_tau_prop(sweeps):
    assert all(len(rows) == 2 for rows in sweeps["t4"].values())


def test_t5_krange_global(sweeps):
    for rows in sweeps["t5"].values():
        assert [r["k_max"] for r in rows] == [20, 40]


def test_t6_krange_prop(sweeps):
    assert len(sweeps["t6"]) == 3


def test_t7_gains(sweeps):
    from t7_patterns_examined import main

    out = main(**sweeps)
    assert len(out) == 12  # 3 datasets × 2 problems × 2 ranges
    for gain in out.values():
        if gain is not None:
            assert gain < 1.0


def test_t7_gains_equal_direct_krange_runs(german_ds):
    """T7 read off T3–T6-shaped rows gives the gains of direct k-range runs
    at k_max = 49 and at the widest k (6 attributes)."""
    from t7_patterns_examined import main

    d = replace(DEFAULTS, n_attrs=6)
    wide = 150
    tau_rows, krange_rows = {}, {}
    for problem in ("global", "prop"):
        tau_rows[problem] = {"german": sweep(
            german_ds, problem, "tau", [20, DEFAULTS.tau], d, None
        )}
        krange_rows[problem] = {"german": sweep(
            german_ds, problem, "k_max", [20, wide], d, None
        )}
    gains = main(
        tau_rows["global"], tau_rows["prop"],
        krange_rows["global"], krange_rows["prop"],
    )
    for problem in ("global", "prop"):
        for k_max in (DEFAULTS.k_max, wide):
            direct = sweep(german_ds, problem, "k_max", [k_max], d, None)[0]
            assert gains[("german", problem, k_max)] == examined_gain(direct)


@pytest.fixture(scope="module")
def t8(spark):
    """The T8 output, run once: T9 is read off these analyses."""
    from t8_shapley import main

    return main(spark, fast=True)


def test_t8_shapley(t8):
    assert set(t8) == {"student", "compas", "german"}
    for a in t8.values():
        assert len(a.top6) == 6
        assert a.group_size > 0


def test_t9_distributions(t8):
    from t9_distributions import main

    out = main(t8)
    for a in out.values():
        assert 0.0 <= a.tv_distance <= 1.0
        assert a.distributions["topk_frac"].sum() == pytest.approx(1.0)


def test_t9_prints_t8_output_without_analysis(t8, monkeypatch, capsys):
    """T9 prints the distributions of the analyses it is given and runs no
    Shapley analysis of its own."""
    import t8_shapley
    from repro.experiments import shapley_exp
    from t9_distributions import main

    def no_analysis(*args, **kwargs):
        raise AssertionError("T9 ran a Shapley analysis")

    monkeypatch.setattr(shapley_exp, "shapley_analysis", no_analysis)
    monkeypatch.setattr(t8_shapley, "shapley_analysis", no_analysis)
    main(t8)
    printed = capsys.readouterr().out
    for name, a in t8.items():
        assert f"T9 distributions — {name}" in printed
        assert f"total-variation distance: {a.tv_distance:.3f}" in printed


def test_t10_case_study(spark):
    from t10_case_study import main

    out = main(spark, fast=True)
    assert "divergence" in out
    # [27] reports every frequent subgroup, so at least as many groups as
    # either of our most-general result sets.
    assert len(out["divergence"]) >= max(len(out["global"]), len(out["prop"]))


def test_t11_result_sizes(sweeps):
    from t11_result_sizes import main

    census = main(**sweeps)
    assert census["result_sets"] > 0
    assert 0.0 <= census["fraction"] <= 1.0
