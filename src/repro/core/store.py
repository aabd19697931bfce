"""Pattern-statistics stores: the data substrate of the search algorithms.

A store collects the ranked table to the driver once, at construction; the
rows give ``n``, ``domains`` and ``row_at_rank``. For an attribute subset
``S`` it computes, in one pass over the rows,
``{value-combination → (s_D, sorted ranks)}``. Because the sorted rank list
of a pattern is kept, ``s_{R^k(D)}(p)`` for *any* ``k`` is a binary search —
one grouping serves the entire k-range and every algorithm, so runtime
differences between ITERTD and the optimized algorithms reflect patterns
examined (the paper's metric), not redundant counting.

Both stores group the collected rows on the driver, one pass per
attribute set (``BaseStatsStore._aggregate``); they differ only in where
the rows come from:

* :class:`SparkStatsStore` — a ranked Spark DataFrame, read with one
  ``orderBy(rank).collect()``;
* :class:`PandasStatsStore` — a ranked pandas DataFrame.

Values are keyed as strings. A null is one value of its own, ``'None'``, in
both stores, as in Spark and SQL ``GROUP BY``: nulls form a group, appear in
``domains`` and match patterns such as ``{A=None}``.
"""
from __future__ import annotations

import time
from bisect import bisect_right
from typing import NamedTuple, Sequence

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pattern import Pattern, attr_indices, values as pattern_values


class PatternStat(NamedTuple):
    """Statistics of one pattern: its size in D and the sorted (1-based)
    rank positions of the tuples that satisfy it."""

    size: int
    ranks: tuple[int, ...]

    def topk(self, k: int) -> int:
        """``s_{R^k(D)}(p)`` — satisfying tuples among the top-k."""
        return bisect_right(self.ranks, k)


GroupStats = dict[tuple[str, ...], PatternStat]


class BaseStatsStore:
    """Shared collection, memoisation and lookup logic; groups the
    collected rows on the driver."""

    def __init__(self, attr_names: Sequence[str], rank_col: str = "rank"):
        self.attr_names = list(attr_names)
        self.rank_col = rank_col
        self._groups: dict[tuple[int, ...], GroupStats] = {}
        self.jobs = 0  # aggregations actually computed (cache misses)
        #: Wall-clock seconds spent inside aggregations. The experiment
        #: tables report search time = total − agg time, isolating the
        #: paper's algorithmic cost from the (shared) counting substrate.
        self.agg_seconds = 0.0
        ranked = self._collect_rows()
        self.n = len(ranked)
        if [r for r, _ in ranked] != list(range(1, self.n + 1)):
            raise ValueError(f"{rank_col!r} must be exactly 1..n")
        #: Pattern-attribute values of the tuple at rank k, at ``k - 1``.
        self._rows = [row for _, row in ranked]
        #: Active domain of each attribute, sorted for determinism.
        self.domains: list[list[str]] = [
            sorted({row[i] for row in self._rows})
            for i in range(len(self.attr_names))
        ]

    def _collect_rows(self) -> list[tuple[object, tuple[str, ...]]]:
        """``(rank, pattern-attribute values)`` of every tuple, ordered by
        rank."""
        raise NotImplementedError

    def _aggregate(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        """One pass over the collected rows; a row's position is its rank,
        so each rank list comes out sorted."""
        ranks: dict[tuple[str, ...], list[int]] = {}
        keys = zip(*([row[i] for row in self._rows] for i in attr_idxs))
        for rank, key in enumerate(keys, 1):
            ranks.setdefault(key, []).append(rank)
        return {
            key: PatternStat(len(rs), tuple(rs)) for key, rs in ranks.items()
        }

    # -- public API --------------------------------------------------------
    def group(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        """Stats for every existing value combination over ``attr_idxs``.

        Combinations absent from the data (size 0) are not present — they are
        below any positive size threshold, so the search never needs them.
        """
        g = self._groups.get(attr_idxs)
        if g is None:
            self.jobs += 1
            start = time.monotonic()
            g = self._aggregate(attr_idxs)
            self.agg_seconds += time.monotonic() - start
            self._groups[attr_idxs] = g
        return g

    def prefetch(self, attr_sets: list[tuple[int, ...]]) -> None:
        """Group every non-empty set of ``attr_sets`` now. The searches
        call this with a node's child attribute sets before they expand
        it; grouping on demand, in ``group``, gives the same results. It
        and its call sites remain because the benchmark's span tracer
        (``perfbench/spans.py``) binds this name."""
        for s in attr_sets:
            if s:
                self.group(s)

    #: No caller: the benchmark's span tracer binds this name too, so it
    #: stays until the tracer drops it (ROADMAP item 1).
    _prefetch_batch = prefetch

    def stat(self, p: Pattern) -> PatternStat | None:
        """Stats of one pattern (``None`` if no tuple satisfies it)."""
        if not p:
            return PatternStat(self.n, tuple(range(1, self.n + 1)))
        return self.group(attr_indices(p)).get(pattern_values(p))

    def size(self, p: Pattern) -> int:
        s = self.stat(p)
        return 0 if s is None else s.size

    def topk_count(self, p: Pattern, k: int) -> int:
        s = self.stat(p)
        return 0 if s is None else s.topk(k)

    def row_at_rank(self, k: int) -> tuple[str, ...]:
        """Pattern-attribute values of ``R(D)[k]``, the k-th ranked tuple
        (needed by the incremental algorithms)."""
        return self._rows[k - 1]


class PandasStatsStore(BaseStatsStore):
    """Pattern statistics over a pandas DataFrame (tests / brute force)."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        attr_names: Sequence[str],
        rank_col: str = "rank",
    ):
        self._pdf = pdf
        super().__init__(attr_names, rank_col)

    def _collect_rows(self) -> list[tuple[object, tuple[str, ...]]]:
        ordered = self._pdf.sort_values(self.rank_col)
        # Any null (None, NaN, NaT) is the value 'None', as Spark renders it.
        return [
            (rank, tuple("None" if pd.isna(v) else str(v) for v in row))
            for rank, *row in ordered[[self.rank_col, *self.attr_names]]
            .itertuples(index=False)
        ]


class SparkStatsStore(BaseStatsStore):
    """Pattern statistics over a Spark DataFrame, grouped on the driver.

    ``df`` must carry the pattern attributes plus a dense 1-based integer
    ``rank`` column (see ``repro.ranking.rankers``). Construction reads it
    once, with a single ``orderBy(rank).collect()``; every later statistic
    comes from the collected rows, so the DataFrame is not cached.
    """

    def __init__(
        self,
        df: DataFrame,
        attr_names: Sequence[str],
        rank_col: str = "rank",
    ):
        self._df = df.select(
            *[F.col(a).cast("string").alias(a) for a in attr_names],
            F.col(rank_col).cast("long").alias(rank_col),
        )
        super().__init__(attr_names, rank_col)

    def _collect_rows(self) -> list[tuple[object, tuple[str, ...]]]:
        rows = self._df.orderBy(self.rank_col).collect()
        return [
            (r[self.rank_col], tuple(str(r[a]) for a in self.attr_names))
            for r in rows
        ]

    def unpersist(self) -> None:
        """Nothing to release: the DataFrame is read once and never cached.
        Kept because the benchmark (``perfbench/workloads.detect``) calls
        it on every store it builds."""
