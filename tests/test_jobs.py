"""Smoke tests: every jobs/t*.py entrypoint runs end to end in --fast mode
on the session SparkSession and returns structured results. T3–T6 and T8
run once, in module fixtures; T7 and T11 are computed from the T3–T6 rows,
T9 from T8's analyses."""
import sys
from pathlib import Path

import pytest

from repro.datasets.base import RankedDataset
from repro.experiments import DEFAULTS, sweep_krange, sweep_tau
from repro.experiments.sweeps import examined_gain

JOBS_DIR = str(Path(__file__).resolve().parent.parent / "jobs")
if JOBS_DIR not in sys.path:
    sys.path.insert(0, JOBS_DIR)


@pytest.fixture(scope="module")
def fast_kwargs():
    return {"fast": True, "timeout": 30.0}


def test_t1_attrs_global(spark, fast_kwargs):
    from t1_attrs_global import main

    out = main(spark, **fast_kwargs)
    assert set(out) == {"student", "compas", "german"}
    for rows in out.values():
        for row in rows:
            if not (row["baseline"].timed_out or row["optimized"].timed_out):
                assert row["baseline"].res == row["optimized"].res


def test_t2_attrs_prop(spark, fast_kwargs):
    from t2_attrs_prop import main

    out = main(spark, **fast_kwargs)
    for rows in out.values():
        for row in rows:
            if not (row["baseline"].timed_out or row["optimized"].timed_out):
                assert row["baseline"].res == row["optimized"].res


@pytest.fixture(scope="module")
def sweeps(spark, fast_kwargs):
    """The T3–T6 outputs, run once: T7 and T11 are read off these rows."""
    import t3_tau_global, t4_tau_prop, t5_krange_global, t6_krange_prop

    return {
        "t3": t3_tau_global.main(spark, **fast_kwargs),
        "t4": t4_tau_prop.main(spark, **fast_kwargs),
        "t5": t5_krange_global.main(spark, **fast_kwargs),
        "t6": t6_krange_prop.main(spark, **fast_kwargs),
    }


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
    at k_max = 49 and at the widest k (pandas store)."""
    from t7_patterns_examined import main

    view = german_ds.with_attrs(6)
    wide = 150
    tau_rows, krange_rows = {}, {}
    for problem in ("global", "prop"):
        tau_rows[problem] = {"german": sweep_tau(
            view, problem, [20, DEFAULTS.tau],
            RankedDataset.pandas_store, timeout_s=None
        )}
        krange_rows[problem] = {"german": sweep_krange(
            view, problem, [20, wide],
            RankedDataset.pandas_store, timeout_s=None
        )}
    gains = main(
        tau_rows["global"], tau_rows["prop"],
        krange_rows["global"], krange_rows["prop"],
    )
    for problem in ("global", "prop"):
        for k_max in (DEFAULTS.k_max, wide):
            direct = sweep_krange(
                view, problem, [k_max],
                RankedDataset.pandas_store, timeout_s=None
            )[0]
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
