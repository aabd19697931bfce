"""Score-based ranking.

The paper treats the ranking algorithm R as a black box producing a total
order; all three evaluation datasets are ranked by a numeric score (Student:
the final grade; COMPAS: a normalized sum of seven attributes with age
negated, following [4]; German Credit: a creditworthiness score). A ranker
attaches a dense 1-based ``rank``: position by score descending, ties by
id (or the given tiebreak columns) ascending.

The dataset generators build their tables in pandas, so they score and rank
on the driver (:func:`normalized_score`, :func:`rank_frame`); the datasets
are at most ~7k rows. :func:`add_rank` gives the same ranks to a table that
lives in Spark, with a Window ``row_number``.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def rank_frame(pdf: pd.DataFrame, score_col: str) -> pd.DataFrame:
    """``pdf`` in rank order, with ``rank`` = 1..n attached.

    A stable sort by ``score_col`` descending, then ``id`` ascending. The
    result has a fresh 0..n-1 index.
    """
    ranked = pdf.sort_values(
        [score_col, "id"], ascending=[False, True], kind="stable"
    ).reset_index(drop=True)
    ranked["rank"] = range(1, len(ranked) + 1)
    return ranked


def add_rank(
    df: DataFrame,
    score_col: str,
    tiebreak_cols: Sequence[str] = (),
    rank_col: str = "rank",
) -> DataFrame:
    """Attach ``rank`` = position by ``score_col`` (best first) to a Spark
    DataFrame.

    Ties are broken by ``tiebreak_cols`` ascending (e.g. the running
    example's "fewer failures ranks higher"), then by an implicit order if
    still tied — callers wanting full determinism include a unique id in
    ``tiebreak_cols``.
    """
    w = Window.orderBy(F.desc(score_col), *[F.asc(c) for c in tiebreak_cols])
    return df.withColumn(rank_col, F.row_number().over(w))


def normalized_score(
    pdf: pd.DataFrame,
    positive_cols: Sequence[str],
    negative_cols: Sequence[str] = (),
    score_col: str = "score",
) -> pd.DataFrame:
    """Min-max normalize each column to [0,1] and sum; ``negative_cols``
    contribute ``1 - normalized`` (higher raw value → lower score), exactly
    the COMPAS scoring of [4] where age counts against the score. A constant
    column contributes 0. Returns a copy of ``pdf`` with ``score_col``
    appended."""

    def norm(c: str) -> pd.Series:
        col = pdf[c].astype("float64")
        lo, hi = float(col.min()), float(col.max())
        span = hi - lo
        if span == 0:
            return pd.Series(0.0, index=pdf.index)
        return (col - lo) / span

    score = pd.Series(0.0, index=pdf.index)
    for c in positive_cols:
        score = score + norm(c)
    for c in negative_cols:
        score = score + (1.0 - norm(c))
    return pdf.assign(**{score_col: score})
