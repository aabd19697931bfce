"""Ranking substrate tests: Window ranking against the DuckDB oracle and
the Figure-1 ground truth."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets.paper_example import paper_example
from repro.oracle import assert_equivalent
from repro.ranking import add_rank, normalized_score


def test_rank_matches_duckdb_row_number(spark):
    pdf = pd.DataFrame(
        {"id": range(1, 21), "score": [((i * 7) % 13) * 1.0 for i in range(20)]}
    )
    ranked = add_rank(spark.createDataFrame(pdf), "score", tiebreak_cols=["id"])
    assert_equivalent(
        ranked.select("id", "rank"),
        """
        SELECT id, row_number() OVER (ORDER BY score DESC, id) AS rank
        FROM t
        """,
        t=pdf,
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


class TestNormalizedScore:
    def test_minmax_and_negation(self, spark):
        pdf = pd.DataFrame(
            {"a": [0.0, 5.0, 10.0], "b": [10.0, 20.0, 30.0], "id": [1, 2, 3]}
        )
        scored = normalized_score(
            spark.createDataFrame(pdf), positive_cols=["a"], negative_cols=["b"]
        )
        out = {r["id"]: r["score"] for r in scored.collect()}
        # a normalized: 0, .5, 1 ; b contributes 1-normalized: 1, .5, 0
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(1.0)
        assert out[3] == pytest.approx(1.0)

    def test_constant_column_contributes_zero(self, spark):
        pdf = pd.DataFrame({"a": [3.0, 3.0], "b": [1.0, 2.0], "id": [1, 2]})
        scored = normalized_score(
            spark.createDataFrame(pdf), positive_cols=["a", "b"]
        )
        out = {r["id"]: r["score"] for r in scored.collect()}
        assert out[1] == pytest.approx(0.0)
        assert out[2] == pytest.approx(1.0)

    def test_against_duckdb(self, spark):
        pdf = pd.DataFrame(
            {"id": range(1, 9), "x": [2.0, 4, 6, 8, 1, 3, 5, 7]}
        )
        scored = normalized_score(
            spark.createDataFrame(pdf), positive_cols=["x"]
        ).select("id", F.round("score", 6).alias("score"))
        assert_equivalent(
            scored,
            """
            SELECT id,
                   round((x - min(x) OVER ()) / (max(x) OVER () - min(x) OVER ()), 6)
                   AS score
            FROM t
            """,
            t=pdf,
        )
