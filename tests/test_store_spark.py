"""Spark pattern-statistics store: its row source against the pandas
one, and the ranked Spark table against the DuckDB oracle
(repro.oracle.assert_equivalent). Both stores group the collected rows with
the same driver code, so equal rows give equal statistics."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.pattern import EMPTY
from repro.core.store import PandasStatsStore, SparkStatsStore
from repro.core.topdown import child_attr_sets
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def stores(paper_ds_spark):
    return paper_ds_spark.pandas_store(), paper_ds_spark.spark_store()


def _null_table() -> pd.DataFrame:
    return pd.DataFrame({
        "A": ["x", None, "x", "y"],
        "B": ["u", "v", None, None],
        "rank": [1, 2, 3, 4],
    })


@pytest.mark.parametrize(
    "attrs", [(0,), (1,), (3,), (0, 1), (1, 3), (0, 2, 3), (0, 1, 2, 3)]
)
def test_spark_equals_pandas_groups(stores, attrs):
    """Exact equality of the group dicts, rank arrays included."""
    ps, ss = stores
    assert ss.group(attrs) == ps.group(attrs)


def test_spark_domains_and_n(stores):
    ps, ss = stores
    assert ss.n == ps.n == 16
    assert ss.domains == ps.domains


def test_spark_row_at_rank(stores):
    ps, ss = stores
    for k in range(1, ps.n + 1):
        assert ss.row_at_rank(k) == ps.row_at_rank(k)


def test_spark_store_on_synthetic_dataset(student_ds):
    """The two row sources on a real-sized dataset (395 rows): same ``n``,
    ``domains`` and ranked rows."""
    ps, ss = student_ds.pandas_store(), student_ds.spark_store()
    assert ss.n == ps.n == 395
    assert ss.domains == ps.domains
    for k in range(1, ps.n + 1):
        assert ss.row_at_rank(k) == ps.row_at_rank(k)


def test_group_counts_against_duckdb(paper_ds_spark):
    """The ranked Spark table the store reads, grouped in Spark and checked
    by the DuckDB oracle (scalar projection: count + rank extrema, arrays
    are not orderable)."""
    df = paper_ds_spark.df
    agg = df.groupBy("Gender", "School").agg(
        F.count(F.lit(1)).alias("cnt"),
        F.min("rank").alias("min_rank"),
        F.sum("rank").alias("sum_rank"),
    )
    assert_equivalent(
        agg,
        """
        SELECT Gender, School, count(*) AS cnt,
               min(rank) AS min_rank, sum(rank) AS sum_rank
        FROM students GROUP BY Gender, School
        """,
        students=paper_ds_spark.pdf,
    )


def test_topk_counts_against_duckdb(paper_ds_spark):
    """s_{R^5}(p) for every single-attribute pattern vs a DuckDB filter."""
    df = paper_ds_spark.df
    agg = (
        df.where(F.col("rank") <= 5)
        .groupBy("School")
        .agg(F.count(F.lit(1)).alias("topk"))
    )
    assert_equivalent(
        agg,
        "SELECT School, count(*) AS topk FROM students WHERE rank <= 5 GROUP BY School",
        students=paper_ds_spark.pdf,
    )
    store = paper_ds_spark.spark_store()
    for row in agg.collect():
        assert store.topk_count(((1, str(row["School"])),), 5) == row["topk"]


def test_construction_runs_no_aggregation(paper_ds_spark):
    """``n``, ``domains`` and ``row_at_rank`` come from the rows collected
    at construction, so the root's children sets are still uncached and
    a prefetch groups each of them once."""
    ss = paper_ds_spark.spark_store()
    assert ss.n == 16
    assert ss.domains == [
        ["F", "M"], ["GP", "MS"], ["R", "U"], ["0", "1", "2"]
    ]
    assert ss.row_at_rank(1) == ("F", "GP", "U", "0")
    assert ss.jobs == 0
    sets = child_attr_sets(EMPTY, len(ss.domains))
    ss.prefetch(sets)
    assert ss.jobs == len(sets) == 4


def test_jobs_counter_tracks_cache_misses(paper_ds_spark):
    ss = paper_ds_spark.spark_store()
    assert ss.jobs == 0
    ss.group((0,))
    ss.group((0,))
    ss.group((0, 1))
    assert ss.jobs == 2


class TestPrefetch:
    """A prefetch groups each missing set once, with the same group dicts
    as grouping on demand."""

    def test_prefetch_matches_per_set(self, paper_ds_spark):
        batched = paper_ds_spark.spark_store()
        sets = [(0,), (1,), (2,), (3,), (0, 1), (0, 3), (1, 2, 3)]
        batched.prefetch(sets)
        assert batched.jobs == len(sets)
        loop = paper_ds_spark.pandas_store()
        for s in sets:
            assert batched.group(s) == loop.group(s)
        assert batched.jobs == len(sets)  # all served from the prefetch

    def test_prefetch_skips_cached_and_empty(self, paper_ds_spark):
        ss = paper_ds_spark.spark_store()
        ss.group((0,))
        jobs = ss.jobs
        ss.prefetch([(), (0,)])
        assert ss.jobs == jobs


def test_null_is_one_value_in_both_stores(spark):
    """A null is the value 'None' in both stores: a group of its own, a
    member of ``domains`` and the rendering of ``row_at_rank``."""
    pdf = _null_table()
    ps = PandasStatsStore(pdf, ["A", "B"])
    ss = SparkStatsStore(spark.createDataFrame(pdf), ["A", "B"])
    assert ps.domains == ss.domains == [["None", "x", "y"], ["None", "u", "v"]]
    for attrs in [(0,), (1,), (0, 1)]:
        assert ps.group(attrs) == ss.group(attrs)
    assert ps.stat(((0, "None"), (1, "v"))).ranks == (2,)
    for k in range(1, 5):
        assert ps.row_at_rank(k) == ss.row_at_rank(k)
    ss.unpersist()


@pytest.mark.parametrize("ranks", [[1, 3], [1, 1], [0, 1]])
def test_rank_column_must_be_1_to_n(spark, ranks):
    df = spark.createDataFrame(pd.DataFrame({"A": ["x", "y"], "rank": ranks}))
    with pytest.raises(ValueError, match="1..n"):
        SparkStatsStore(df, ["A"])
