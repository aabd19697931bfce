"""Pattern-statistics stores: the data substrate of the search algorithms.

For an attribute subset ``S`` the store computes, in one aggregation over the
ranked dataset, ``{value-combination → (s_D, sorted ranks)}``. Because the
sorted rank list of a pattern is kept, ``s_{R^k(D)}(p)`` for *any* ``k`` is a
binary search — one aggregation serves the entire k-range and every
algorithm, so runtime differences between ITERTD and the optimized
algorithms reflect patterns examined (the paper's metric), not redundant
counting.

Two interchangeable implementations:

* :class:`SparkStatsStore` — the production path:
  ``df.groupBy(S).agg(count(*), sort_array(collect_list(rank)))`` on a cached
  DataFrame (a DataFrame aggregation over the ranked data, per attribute set,
  memoised).
* :class:`PandasStatsStore` — identical semantics over a pandas mirror; used
  by the fast randomized correctness grids. A dedicated test module asserts
  Spark ≡ pandas ≡ DuckDB (via ``repro.oracle``).

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


def _key(v) -> str:
    """A pandas cell as a pattern value: ``'None'`` for any null (``None``,
    ``NaN``, ``NaT``), as Spark renders it, else ``str(v)``."""
    return "None" if pd.isna(v) else str(v)


class BaseStatsStore:
    """Shared memoisation, domain discovery and lookup logic."""

    def __init__(self, attr_names: Sequence[str], rank_col: str = "rank"):
        self.attr_names = list(attr_names)
        self.rank_col = rank_col
        self._groups: dict[tuple[int, ...], GroupStats] = {}
        self._row_values: list[tuple[str, ...]] | None = None
        self.jobs = 0  # aggregations actually computed (cache misses)
        #: Wall-clock seconds spent inside aggregations. The experiment
        #: tables report search time = total − agg time, isolating the
        #: paper's algorithmic cost from the (shared) counting substrate.
        self.agg_seconds = 0.0
        self.n = self._count_rows()
        self._domains: list[list[str]] | None = None

    # -- to be provided by subclasses -------------------------------------
    def _count_rows(self) -> int:
        raise NotImplementedError

    def _aggregate(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        raise NotImplementedError

    def _collect_rows(self) -> list[tuple[str, ...]]:
        """All tuples' pattern-attribute values, ordered by rank (1..n)."""
        raise NotImplementedError

    # -- public API --------------------------------------------------------
    @property
    def domains(self) -> list[list[str]]:
        """Active domain of each attribute, sorted for determinism."""
        if self._domains is None:
            doms = []
            for i in range(len(self.attr_names)):
                doms.append(sorted(v[0] for v in self.group((i,))))
            self._domains = doms
        return self._domains

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
        """Warm the cache for several attribute sets at once. The base
        implementation loops; the Spark store overrides this with a single
        GROUPING SETS aggregation (the searches prefetch a node's children
        attribute sets before expanding, collapsing per-child jobs)."""
        for s in attr_sets:
            if s:
                self.group(s)

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
        if self._row_values is None:
            self._row_values = self._collect_rows()
        return self._row_values[k - 1]


class PandasStatsStore(BaseStatsStore):
    """Pattern statistics over a pandas DataFrame (tests / brute force)."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        attr_names: Sequence[str],
        rank_col: str = "rank",
    ):
        self._pdf = pdf.reset_index(drop=True)
        super().__init__(attr_names, rank_col)

    def _count_rows(self) -> int:
        return len(self._pdf)

    def _aggregate(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        cols = [self.attr_names[i] for i in attr_idxs]
        out: GroupStats = {}
        grouped = self._pdf.groupby(cols, sort=False, dropna=False)[
            self.rank_col
        ]
        for key, ranks in grouped:
            key_t = key if isinstance(key, tuple) else (key,)
            key_t = tuple(_key(v) for v in key_t)
            sorted_ranks = tuple(sorted(int(r) for r in ranks))
            out[key_t] = PatternStat(len(sorted_ranks), sorted_ranks)
        return out

    def _collect_rows(self) -> list[tuple[str, ...]]:
        ordered = self._pdf.sort_values(self.rank_col)
        return [
            tuple(_key(v) for v in row)
            for row in ordered[self.attr_names].itertuples(index=False)
        ]


class SparkStatsStore(BaseStatsStore):
    """Pattern statistics via Spark DataFrame aggregations.

    ``df`` must carry the pattern attributes plus a dense 1-based integer
    ``rank`` column (see ``repro.ranking.rankers.add_rank``). The DataFrame
    is cached on first use so each aggregation scans memory, not the source.
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
        ).cache()
        super().__init__(attr_names, rank_col)

    def _count_rows(self) -> int:
        return self._df.count()

    def _aggregate(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        cols = [self.attr_names[i] for i in attr_idxs]
        rows = (
            self._df.groupBy(*cols)
            .agg(
                F.count(F.lit(1)).alias("cnt"),
                F.sort_array(F.collect_list(self.rank_col)).alias("ranks"),
            )
            .collect()
        )
        return {
            tuple(str(r[c]) for c in cols): PatternStat(
                int(r["cnt"]), tuple(int(x) for x in r["ranks"])
            )
            for r in rows
        }

    def _collect_rows(self) -> list[tuple[str, ...]]:
        rows = self._df.orderBy(self.rank_col).collect()
        return [tuple(str(r[a]) for a in self.attr_names) for r in rows]

    #: Max grouping sets per batched aggregation (keeps the generated plan
    #: a reasonable size; batches are chunked beyond this).
    _PREFETCH_CHUNK = 48

    def prefetch(self, attr_sets: list[tuple[int, ...]]) -> None:
        """One GROUPING SETS aggregation for all missing attribute sets:
        ``grouping_id`` identifies which set each output row belongs to, so
        a single Spark job fills many cache entries."""
        missing = sorted(
            {s for s in attr_sets if s and s not in self._groups}
        )
        if not missing:
            return
        if len(missing) == 1:
            self.group(missing[0])
            return
        for i in range(0, len(missing), self._PREFETCH_CHUNK):
            self._prefetch_batch(missing[i : i + self._PREFETCH_CHUNK])

    def _prefetch_batch(self, missing: list[tuple[int, ...]]) -> None:
        self.jobs += 1
        start = time.monotonic()
        all_idx = sorted({i for s in missing for i in s})
        cols = [self.attr_names[i] for i in all_idx]
        gd = self._df.groupingSets(
            [[self.attr_names[i] for i in s] for s in missing], *cols
        )
        rows = gd.agg(
            F.count(F.lit(1)).alias("cnt"),
            F.sort_array(F.collect_list(self.rank_col)).alias("ranks"),
            F.grouping_id(*cols).alias("gid"),
        ).collect()
        # grouping_id bit b (MSB-first over ``cols``) is 0 iff that column
        # is grouped; distinct attribute sets get distinct ids.
        gid_to_set = {}
        for s in missing:
            mask = 0
            for b, i in enumerate(all_idx):
                if i not in s:
                    mask |= 1 << (len(all_idx) - 1 - b)
            gid_to_set[mask] = s
        out: dict[tuple[int, ...], GroupStats] = {s: {} for s in missing}
        for r in rows:
            s = gid_to_set[int(r["gid"])]
            key = tuple(str(r[self.attr_names[i]]) for i in s)
            out[s][key] = PatternStat(
                int(r["cnt"]), tuple(int(x) for x in r["ranks"])
            )
        self._groups.update(out)
        self.agg_seconds += time.monotonic() - start

    def unpersist(self) -> None:
        """Release the cached DataFrame."""
        self._df.unpersist()
