"""Ranking substrate tests: Window ranking against the driver ranker and
the Figure-1 ground truth, and the driver-side normalized score against
numpy."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets.paper_example import paper_example
from repro.ranking import add_rank, normalized_score, rank_frame


@pytest.mark.parametrize(
    "pdf, order",
    [
        pytest.param(
            pd.DataFrame({
                "id": range(1, 21),
                "score": [((i * 7) % 13) * 1.0 for i in range(20)],
            }),
            [12, 10, 8, 6, 19, 4, 17, 2, 15, 13, 11, 9, 7, 20, 5, 18, 3, 16,
             1, 14],
            id="cyclic",
        ),
        pytest.param(
            pd.DataFrame({
                "id": [5, 3, 9, 1, 7, 2],
                "score": [2.0, 1.0, 2.0, 2.0, 1.0, 3.0],
            }),
            [2, 1, 5, 9, 3, 7],
            id="ties",
        ),
    ],
)
def test_rank_matches_driver_rank_frame(spark, pdf, order):
    """``rank_frame``, the driver ranker the dataset generators use, puts
    the ids in score order, ties by ``id``, and ``add_rank`` gives each id
    the same rank. The scores tie, so the ``id`` tiebreak decides part of
    the order."""
    assert pdf["score"].duplicated().any()
    driver = rank_frame(pdf, "score")
    assert driver["rank"].tolist() == list(range(1, len(pdf) + 1))
    assert driver["id"].tolist() == order
    assert _spark_ranks(spark, pdf, "score") == dict(
        zip(driver["id"], driver["rank"])
    )


def test_rank_reproduces_figure_1(spark):
    """Re-ranking the running example by grade desc / failures asc must
    reproduce the paper's Rank column exactly."""
    ds = paper_example(spark)
    df = ds.df.drop("rank")
    reranked = add_rank(
        df, "Grade", tiebreak_cols=["Failures", "id"]
    ).select("id", F.col("rank").alias("new_rank"))
    merged = reranked.toPandas().merge(
        ds.pdf[["id", "rank"]], on="id"
    )
    assert (merged["new_rank"] == merged["rank"]).all()


def test_rank_is_dense_permutation(spark):
    pdf = pd.DataFrame({"id": range(50), "score": [1.0] * 50})  # all ties
    ranked = add_rank(spark.createDataFrame(pdf), "score", tiebreak_cols=["id"])
    ranks = sorted(r["rank"] for r in ranked.select("rank").collect())
    assert ranks == list(range(1, 51))


def _spark_ranks(spark, pdf, score_col) -> dict:
    ranked = add_rank(spark.createDataFrame(pdf), score_col, tiebreak_cols=["id"])
    return {r["id"]: r["rank"] for r in ranked.select("id", "rank").collect()}


@pytest.mark.parametrize(
    "fixture, score_col",
    [
        ("compas_ds", "score"),
        ("student_ds", "G3_num"),
        ("german_ds", "creditworthiness"),
    ],
)
def test_driver_ranks_equal_window_ranks(request, spark, fixture, score_col):
    """Each generator's driver ranks are the ranks ``add_rank`` gives the
    same table in Spark."""
    ds = request.getfixturevalue(fixture)
    spark_ranks = _spark_ranks(spark, ds.pdf.drop(columns=["rank"]), score_col)
    assert dict(zip(ds.pdf["id"], ds.pdf["rank"])) == spark_ranks


class TestNormalizedScore:
    def test_minmax_and_negation(self):
        pdf = pd.DataFrame(
            {"a": [0.0, 5.0, 10.0], "b": [10.0, 20.0, 30.0], "id": [1, 2, 3]}
        )
        scored = normalized_score(pdf, positive_cols=["a"], negative_cols=["b"])
        out = dict(zip(scored["id"], scored["score"]))
        # a normalized: 0, .5, 1 ; b contributes 1-normalized: 1, .5, 0
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(1.0)
        assert out[3] == pytest.approx(1.0)

    def test_constant_column_contributes_zero(self):
        pdf = pd.DataFrame({"a": [3.0, 3.0], "b": [1.0, 2.0], "id": [1, 2]})
        scored = normalized_score(pdf, positive_cols=["a", "b"])
        out = dict(zip(scored["id"], scored["score"]))
        assert out[1] == pytest.approx(0.0)
        assert out[2] == pytest.approx(1.0)

    def test_against_numpy_minmax(self):
        """One positive column scores ``(x − min) / (max − min)``."""
        pdf = pd.DataFrame(
            {"id": range(1, 9), "x": [2.0, 4, 6, 8, 1, 3, 5, 7]}
        )
        scored = normalized_score(pdf, positive_cols=["x"])
        x = pdf["x"].to_numpy()
        expected = (x - x.min()) / (x.max() - x.min())
        assert dict(zip(scored["id"], scored["score"])) == pytest.approx(
            dict(zip(pdf["id"], expected))
        )
