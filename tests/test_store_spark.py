"""The pattern-statistics store over a Spark table: its rows against the
same table's in pandas, the counts of both sources against pandas boolean
masks and against pandas group-bys (group sizes, rank extrema and sums,
top-k counts), and the checks of its input's columns and rank values. Past
the source step both tables take one driver path, so equal rows give equal
statistics."""
from itertools import product

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.store import PatternStat, StatsStore
from repro.ranking.rankers import add_rank
from tests.helpers import assert_tree_children_match_stat

ATTRS = ["Gender", "School", "Address", "Failures"]


@pytest.fixture(scope="module")
def stores(paper_ds_spark):
    return paper_ds_spark.pandas_store(), paper_ds_spark.spark_store()


def _null_table() -> pd.DataFrame:
    return pd.DataFrame({
        "A": ["x", None, "x", "y"],
        "B": ["u", "v", None, None],
        "rank": [1, 2, 3, 4],
    })


def test_counts_match_boolean_masks(stores, paper_ds_spark):
    """``size`` and ``stat(p).topk(k)`` of every value combination over the
    four attributes, for every k, against a pandas boolean-mask count. Each
    attribute is left free or set to one of its values or to a value no
    tuple has."""
    pdf = paper_ds_spark.pdf
    choices = [[None, "X", *pdf[a].astype(str).unique()] for a in ATTRS]
    for combo in product(*choices):
        p = tuple((i, v) for i, v in enumerate(combo) if v is not None)
        mask = pd.Series(True, index=pdf.index)
        for i, v in p:
            mask &= pdf[ATTRS[i]].astype(str) == v
        ranks = pdf.loc[mask, "rank"]
        for store in stores:
            assert store.size(p) == len(ranks), p
            for k in range(1, len(pdf) + 1):
                assert store.stat(p).topk(k) == (ranks <= k).sum(), (p, k)


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


def test_group_counts_against_pandas_groupby(stores, paper_ds_spark):
    """Every (Gender, School) pattern's bitmap, from both row sources,
    against a pandas group-by of the table: its size is the group's count,
    its lowest set bit + 1 the group's best rank, and the sum of its set
    bit positions + 1 the group's rank sum. A value pair with no tuple is
    no group and has an empty bitmap."""
    pdf = paper_ds_spark.pdf.astype({"Gender": str, "School": str})
    groups = pdf.groupby(["Gender", "School"])["rank"].agg(
        ["count", "min", "sum"]
    )
    for store in stores:
        for g, s in product(*store.domains[:2]):
            st = store.stat(((0, g), (1, s)))
            ranks = [r + 1 for r in range(store.n) if st.bits >> r & 1]
            if (g, s) not in groups.index:
                assert st.size == 0 and not ranks, (g, s)
                continue
            count, lo, total = groups.loc[(g, s)]
            assert st.size == len(ranks) == count, (g, s)
            assert (st.bits & -st.bits).bit_length() == min(ranks) == lo
            assert sum(ranks) == total, (g, s)


def test_topk_counts_against_pandas_filter(stores, paper_ds_spark):
    """s_{R^5}(p) of every single-attribute pattern, from both row
    sources, against a pandas filter to the top 5 and a group count."""
    pdf = paper_ds_spark.pdf
    for i, attr in enumerate(ATTRS):
        top5 = pdf[pdf["rank"] <= 5].groupby(pdf[attr].astype(str)).size()
        for store in stores:
            for v in store.domains[i]:
                assert store.stat(((i, v),)).topk(5) == top5.get(v, 0), (
                    attr, v
                )


def test_construction_runs_no_aggregation(spark, paper_ds_spark):
    """``n``, ``domains``, ``row_at_rank`` and every statistic come from
    the rows collected at construction: the collect is the store's only
    Spark work, and lookups start no Spark job. The table is ranked in
    Spark by ``add_rank``, as the jobs rank theirs, so the collect runs a
    job (a collect of a local relation would run none)."""
    df = add_rank(
        paper_ds_spark.df.drop("rank"), "Grade", tiebreak_cols=["Failures"]
    )
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    try:
        sc.setJobGroup("store-build", "store construction")
        ss = StatsStore(df, ATTRS)
        assert tracker.getJobIdsForGroup("store-build")
        sc.setJobGroup("store-lookups", "store lookups")
        assert ss.n == 16
        assert ss.domains == [
            ["F", "M"], ["GP", "MS"], ["R", "U"], ["0", "1", "2"]
        ]
        assert ss.row_at_rank(1) == ("F", "GP", "U", "0")
        assert ss.stat(((1, "MS"), (2, "R"))).topk(5) == 3
        assert tracker.getJobIdsForGroup("store-lookups") == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def _typed_table() -> pd.DataFrame:
    """A bool and a double column, a NaN among the doubles."""
    return pd.DataFrame({
        "A": [True, False, True, False],
        "B": [1.0, float("nan"), 1e-5, 2.5],
        "rank": [1, 2, 3, 4],
    })


def test_null_is_one_value_in_both_stores(spark):
    """A null is the value 'None' from both table kinds, a NaN included: a
    group of its own, a member of ``domains`` and the rendering of
    ``row_at_rank``. Other values are keyed alike too: as ``str`` of the
    Python value, whatever their column's type."""
    cases = [
        (_null_table(), [["None", "x", "y"], ["None", "u", "v"]], {
            ((0, "None"), (1, "v")): PatternStat(1, 0b10),
            ((1, "None"),): PatternStat(2, 0b1100),
        }),
        (_typed_table(), [["False", "True"], ["1.0", "1e-05", "2.5", "None"]],
         {((0, "False"), (1, "None")): PatternStat(1, 0b10)}),
    ]
    for pdf, domains, expected in cases:
        ps = StatsStore(pdf, ["A", "B"])
        ss = StatsStore(spark.createDataFrame(pdf), ["A", "B"])
        assert ps.domains == ss.domains == domains
        for a, b in product([None, *ps.domains[0]], [None, *ps.domains[1]]):
            p = tuple((i, v) for i, v in enumerate((a, b)) if v is not None)
            assert ps.stat(p) == ss.stat(p)
        for p, stat in expected.items():
            assert ps.stat(p) == stat
        for k in range(1, 5):
            assert ps.row_at_rank(k) == ss.row_at_rank(k)
        for store in (ps, ss):
            assert_tree_children_match_stat(store)
        ss.unpersist()


def test_tree_children_match_stat(stores):
    """Both row sources derive every child bitmap of the paper example's
    search tree as ``stat()`` computes it."""
    for store in stores:
        assert_tree_children_match_stat(store)


@pytest.mark.parametrize(
    "ranks", [[1, 3], [1, 1], [0, 1], [None, 1], [2, None], [None, None]]
)
def test_rank_column_must_be_1_to_n(spark, ranks):
    """Gaps, duplicates and null ranks are rejected, whatever the order in
    which the rows arrive."""
    df = spark.createDataFrame(
        list(zip(["x", "y"], ranks)), "A string, rank long"
    )
    with pytest.raises(ValueError, match="1..n"):
        StatsStore(df, ["A"])


def _assert_same_store(ss, ps) -> None:
    """Same ``n``, domains, value bitmaps and ranked rows."""
    assert ss.n == ps.n
    assert ss.domains == ps.domains
    assert ss.value_bits == ps.value_bits
    assert [ss.row_at_rank(k) for k in range(1, ss.n + 1)] == [
        ps.row_at_rank(k) for k in range(1, ps.n + 1)
    ]


@pytest.mark.parametrize(
    "attrs,rank_col,missing",
    [(["A", "C"], "rank", "C"), (["A"], "position", "position")],
)
def test_missing_column_rejected_before_any_job(
    spark, attrs, rank_col, missing
):
    """A missing attribute or rank column is a ``ValueError`` that names
    it, raised before the store starts a Spark job."""
    df = add_rank(
        spark.createDataFrame([("x", 2.0), ("y", 1.0)], "A string, s double"),
        "s",
    )
    sc = spark.sparkContext
    try:
        sc.setJobGroup("store-missing", "store over a missing column")
        with pytest.raises(ValueError, match=repr(missing)):
            StatsStore(df, attrs, rank_col)
        assert sc.statusTracker().getJobIdsForGroup("store-missing") == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


@pytest.mark.parametrize(
    "ranks",
    [[1.5, 2.5], [0.5, 1.5], [1.0, None], [1.0, 3.0], [2.0, 2.0]],
)
def test_fractional_rank_column_must_be_1_to_n(spark, ranks):
    """A floating-point rank column is read as it is, not truncated:
    fractional ranks fail the 1..n check as nulls, gaps and duplicates
    do."""
    df = spark.createDataFrame(
        list(zip(["x", "y"], ranks)), "A string, rank double"
    )
    with pytest.raises(ValueError, match="1..n"):
        StatsStore(df, ["A"])


def test_whole_number_rank_types_accepted(spark):
    """Integral ranks of any width, and whole-number doubles and decimals,
    give the same store as the pandas one."""
    pdf = _null_table()
    ps = StatsStore(pdf, ["A", "B"])
    for rank_type in ["tinyint", "int", "bigint", "double", "decimal(10,0)"]:
        df = spark.createDataFrame(pdf).withColumn(
            "rank", F.col("rank").cast(rank_type)
        )
        _assert_same_store(StatsStore(df, ["A", "B"]), ps)


@pytest.mark.parametrize("rank_type", ["string", "boolean"])
def test_non_numeric_rank_column_rejected(spark, rank_type):
    """A string or boolean rank column is rejected by its type, in pandas
    as in Spark, even where its values would pass the 1..n check (a single
    ``True`` compares equal to 1)."""
    pdf = _null_table()
    df = spark.createDataFrame(pdf).withColumn(
        "rank", F.col("rank").cast(rank_type)
    )
    cast = {"string": str, "boolean": bool}[rank_type]
    one_row = pd.DataFrame({"A": ["x"], "rank": [cast(1)]})
    for table in (df, pdf.astype({"rank": cast}), one_row):
        with pytest.raises(ValueError, match=f"numeric, got {rank_type}"):
            StatsStore(table, ["A"])


def test_extra_columns_equal_pandas_store(spark, student_ds):
    """Columns other than the attributes and the rank, of any type and in
    any position, are collected and ignored: the store equals the pandas
    store over the attributes alone."""
    df = spark.createDataFrame(student_ds.pdf).select(
        F.array(F.lit(1), F.lit(2)).alias("arr"),
        F.struct(F.lit("s").alias("f")).alias("st"),
        F.current_timestamp().alias("ts"),
        *reversed(student_ds.pdf.columns),
        F.lit(None).cast("double").alias("nothing"),
    )
    _assert_same_store(
        StatsStore(df, student_ds.pattern_attrs),
        student_ds.pandas_store(),
    )


def test_stores_over_one_ranked_dataframe_are_identical(
    spark, paper_ds_spark
):
    """Two stores built over one ``add_rank`` DataFrame, as a sweep point
    builds its baseline's and its optimized algorithm's, read the same
    rows and equal the pandas store."""
    df = add_rank(
        paper_ds_spark.df.drop("rank").repartition(3),
        "Grade",
        tiebreak_cols=["id"],
    )
    first, second = StatsStore(df, ATTRS), StatsStore(df, ATTRS)
    _assert_same_store(first, second)
    ranked = paper_ds_spark.pdf.sort_values(
        ["Grade", "id"], ascending=[False, True]
    ).assign(rank=range(1, 17))
    _assert_same_store(first, StatsStore(ranked, ATTRS))


@pytest.mark.parametrize("seed", [0, 1])
def test_shuffled_rows_equal_pandas_store(spark, student_ds, seed):
    """A Spark store over the rows in a random order, spread over several
    partitions, orders them by rank on the driver: the same ranked rows,
    domains and value bitmaps as the pandas store."""
    pdf = student_ds.pdf.sample(frac=1, random_state=seed)
    assert pdf["rank"].tolist() != sorted(pdf["rank"])
    ss = StatsStore(
        spark.createDataFrame(pdf).repartition(4), student_ds.pattern_attrs
    )
    _assert_same_store(ss, student_ds.pandas_store())
