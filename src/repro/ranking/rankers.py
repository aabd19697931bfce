"""Score-based ranking in Spark.

The paper treats the ranking algorithm R as a black box producing a total
order; all three evaluation datasets are ranked by a numeric score (Student:
the final grade; COMPAS: a normalized sum of seven attributes with age
negated, following [4]; German Credit: a creditworthiness score). We attach
a dense 1-based ``rank`` with a Window ``row_number`` — the datasets are at
most ~7k rows, so the single-partition global sort is cheap.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def add_rank(
    df: DataFrame,
    score_col: str,
    tiebreak_cols: Sequence[str] = (),
    rank_col: str = "rank",
) -> DataFrame:
    """Attach ``rank`` = position by ``score_col`` (best first).

    Ties are broken by ``tiebreak_cols`` ascending (e.g. the running
    example's "fewer failures ranks higher"), then by an implicit stable
    order if still tied — callers wanting full determinism include a unique
    id in ``tiebreak_cols``.
    """
    w = Window.orderBy(F.desc(score_col), *[F.asc(c) for c in tiebreak_cols])
    return df.withColumn(rank_col, F.row_number().over(w))


def normalized_score(
    df: DataFrame,
    positive_cols: Sequence[str],
    negative_cols: Sequence[str] = (),
    score_col: str = "score",
) -> DataFrame:
    """Min-max normalize each column to [0,1] and sum; ``negative_cols``
    contribute ``1 - normalized`` (higher raw value → lower score), exactly
    the COMPAS scoring of [4] where age counts against the score.

    Column extrema are computed with one Spark aggregation and folded into
    the projection as literals (datasets are small; this keeps the scored
    plan a single narrow projection).
    """
    cols = list(positive_cols) + list(negative_cols)
    aggs = []
    for c in cols:
        aggs += [F.min(c).alias(f"min_{c}"), F.max(c).alias(f"max_{c}")]
    extrema = df.agg(*aggs).collect()[0]

    def norm(c: str):
        lo, hi = float(extrema[f"min_{c}"]), float(extrema[f"max_{c}"])
        span = hi - lo
        if span == 0:
            return F.lit(0.0)
        return (F.col(c).cast("double") - F.lit(lo)) / F.lit(span)

    score = F.lit(0.0)
    for c in positive_cols:
        score = score + norm(c)
    for c in negative_cols:
        score = score + (F.lit(1.0) - norm(c))
    return df.withColumn(score_col, score)
