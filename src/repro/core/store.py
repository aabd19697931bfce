"""Pattern-statistics stores: the data substrate of the search algorithms.

A store collects the ranked table to the driver once, at construction; the
rows give ``n``, ``domains`` and ``row_at_rank``. From them it builds one
bitmap per (attribute, value) — a Python ``int`` whose bit ``r − 1`` is set
iff the tuple at rank ``r`` has that value, the vertical "tidset" layout of
Zaki's Eclat. A pattern's bitmap is the AND of its pairs' bitmaps, so
``s_D(p)`` is its popcount and ``s_{R^k(D)}(p)`` for *any* ``k`` the
popcount under a k-bit mask — one set of bitmaps serves the entire k-range
and every algorithm, so runtime differences between ITERTD and the
optimized algorithms reflect patterns examined (the paper's metric), not
redundant counting. Pattern bitmaps are never cached: the search derives
each child's bitmap from its parent's, one AND per child, as Eclat extends
a prefix's tidset by one item's. The extensions of a node are a list built
at construction (:meth:`BaseStatsStore.extensions`): the ``(pair, value
bitmap)`` of every search-tree child, the same list for every node with the
same largest attribute, so the search builds a child's pattern tuple only
once its popcount has passed τ_s. ``stat()`` serves patterns reached out of
tree order and the oracle. So a store's memory grows with the number of
values, not with the patterns examined.

Both stores build the bitmaps on the driver, one pass per attribute
(``BaseStatsStore._aggregate``); they differ only in where the rows come
from:

* :class:`SparkStatsStore` — a ranked Spark DataFrame, read as it is given
  with one plain ``collect()`` (no projection, so every store over one
  DataFrame reuses its planned query) and ordered by rank on the driver, so
  Spark runs no sort;
* :class:`PandasStatsStore` — a ranked pandas DataFrame.

Values are keyed as strings by :func:`value_key`. A null is one value of
its own, ``'None'``, in both stores, as in Spark and SQL ``GROUP BY``: nulls
form a group, appear in ``domains`` and match patterns such as
``{A=None}``.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import NumericType

from repro.core.pattern import Pattern


def value_key(v: object) -> str:
    """The key of a value in a pattern: ``'None'`` for any null (None,
    NaN, NaT, ``pd.NA``), else ``str(v)``."""
    return "None" if pd.isna(v) else str(v)


def _positions(columns: Sequence[str], names: Sequence[str]) -> list[int]:
    """The position of each of ``names`` among a table's ``columns``;
    ``ValueError`` naming the first one the table lacks."""
    columns = list(columns)
    for name in names:
        if name not in columns:
            raise ValueError(f"column {name!r} not found among {columns}")
    return [columns.index(name) for name in names]


class PatternStat(NamedTuple):
    """Statistics of one pattern: its size in D and its bitmap, whose bit
    ``r − 1`` is set iff the tuple at rank ``r`` satisfies it."""

    size: int
    bits: int

    def topk(self, k: int) -> int:
        """``s_{R^k(D)}(p)`` — satisfying tuples among the top-k."""
        return (self.bits & ((1 << k) - 1)).bit_count()


class BaseStatsStore:
    """Shared collection, bitmap and lookup logic."""

    def __init__(self, attr_names: Sequence[str], rank_col: str = "rank"):
        self.attr_names = list(attr_names)
        self.rank_col = rank_col
        ranked = self._collect_rows()
        self.n = len(ranked)
        if [r for r, _ in ranked] != list(range(1, self.n + 1)):
            raise ValueError(f"{rank_col!r} must be exactly 1..n")
        #: Pattern-attribute values of the tuple at rank k, at ``k - 1``.
        self._rows = [row for _, row in ranked]
        #: The bitmap of the empty pattern: every tuple.
        self.all_bits = (1 << self.n) - 1
        #: ``{value: bitmap}`` of each attribute, at its index.
        self.value_bits = [
            self._aggregate(i) for i in range(len(self.attr_names))
        ]
        #: Active domain of each attribute, sorted for determinism.
        self.domains: list[list[str]] = [sorted(b) for b in self.value_bits]
        #: At ``j``: the ``(((a, v),), bitmap)`` extension of every pair
        #: over attributes ``a ≥ j``, in domain order — the search-tree
        #: children of a pattern whose largest attribute index is ``j − 1``.
        m = len(self.domains)
        self._tails: list[list[tuple[Pattern, int]]] = [
            [
                (((a, v),), self.value_bits[a][v])
                for a in range(j, m)
                for v in self.domains[a]
            ]
            for j in range(m + 1)
        ]

    def _collect_rows(self) -> list[tuple[object, tuple[str, ...]]]:
        """``(rank, pattern-attribute values)`` of every tuple, ordered by
        rank."""
        raise NotImplementedError

    def _aggregate(self, i: int) -> dict[str, int]:
        """The bitmap of every value of attribute ``i``, in one pass over
        the collected rows: bit ``r − 1`` stands for the tuple at rank
        ``r``."""
        bits: dict[str, int] = {}
        for r, row in enumerate(self._rows):
            bits[row[i]] = bits.get(row[i], 0) | (1 << r)
        return bits

    # -- public API --------------------------------------------------------
    def prefetch(self, attr_sets: list[tuple[int, ...]]) -> None:
        """Does nothing: every bitmap is built at construction. It and its
        alias ``_prefetch_batch`` have no caller and remain only because
        the benchmark's span tracer (``perfbench/spans.py``) binds both
        names (ROADMAP item 1)."""

    _prefetch_batch = prefetch

    def stat(self, p: Pattern) -> PatternStat:
        """Stats of one pattern: the AND of its pairs' value bitmaps. A
        value combination no tuple has is a size-0 stat."""
        bits = self.all_bits
        for a, v in p:
            bits &= self.value_bits[a].get(v, 0)
        return PatternStat(bits.bit_count(), bits)

    def extensions(self, p: Pattern) -> list[tuple[Pattern, int]]:
        """``p``'s extension list: ``(((A_j, v),), bitmap(A_j = v))`` for
        every ``j`` past ``p``'s largest attribute index, in the order of
        :func:`~repro.core.pattern.children`. ``p + pair`` is a search-tree
        child of ``p``, and ``bits & bitmap`` its bitmap when ``bits`` is
        ``p``'s. The list is shared: callers must not change it."""
        return self._tails[p[-1][0] + 1 if p else 0]

    def size(self, p: Pattern) -> int:
        return self.stat(p).size

    def topk_count(self, p: Pattern, k: int) -> int:
        return self.stat(p).topk(k)

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
        _positions(self._pdf.columns, [self.rank_col, *self.attr_names])
        ordered = self._pdf.sort_values(self.rank_col)
        return [
            (rank, tuple(value_key(v) for v in row))
            for rank, *row in ordered[[self.rank_col, *self.attr_names]]
            .itertuples(index=False)
        ]


class SparkStatsStore(BaseStatsStore):
    """Pattern statistics over a Spark DataFrame, counted on the driver.

    ``df`` must carry the pattern attributes plus a dense 1-based ``rank``
    column (see ``repro.ranking.rankers``); other columns may be present.
    The rank column's values must be exactly the integers ``1..n``, each
    once: an integral Spark type (``byte`` to ``long``) as ``add_rank``
    gives, or a floating-point or decimal type whose values are whole
    numbers. Fractional, null, gapped and duplicated ranks raise
    ``ValueError``. So do a missing attribute or rank column and a
    non-numeric rank column, before any Spark job runs.

    Construction runs one plain ``collect()`` on ``df`` itself, with no
    projection, cast or ``orderBy``: every store built over one DataFrame
    reuses that DataFrame's planned query, and Spark skips the stages it
    has already materialised (such as ``add_rank``'s ranking shuffle).
    The attribute and rank fields are picked by position on the driver,
    and the rows ordered by rank there: over a table spread across
    partitions, a Spark ``orderBy`` adds a range-partition sampling job and
    a sort shuffle for rows the driver receives anyway. Every statistic
    comes from the bitmaps of the collected rows, so the DataFrame is not
    cached. The attributes are collected as they are typed and keyed on
    the driver with :func:`value_key`, as the pandas store keys its cells,
    so both stores give a value, a NaN included, the same key.
    ``__init__``, ``_aggregate`` and ``_collect_rows`` are bound by name
    on this class by the benchmark's span tracer.
    """

    def __init__(
        self,
        df: DataFrame,
        attr_names: Sequence[str],
        rank_col: str = "rank",
    ):
        self._df = df
        super().__init__(attr_names, rank_col)

    def _collect_rows(self) -> list[tuple[object, tuple[str, ...]]]:
        schema = self._df.schema
        rank_at, *attr_at = _positions(
            schema.names, [self.rank_col, *self.attr_names]
        )
        rank_type = schema[rank_at].dataType
        if not isinstance(rank_type, NumericType):
            raise ValueError(
                f"{self.rank_col!r} must be numeric, got "
                f"{rank_type.simpleString()}"
            )
        ranked = [
            (r[rank_at], tuple([value_key(r[i]) for i in attr_at]))
            for r in self._df.collect()
        ]
        # A null rank sorts first instead of failing the comparison, so the
        # base class's 1..n check rejects it.
        ranked.sort(key=lambda row: (row[0] is not None, row[0] or 0))
        return ranked

    def unpersist(self) -> None:
        """Nothing to release: the DataFrame is read once and never cached.
        Kept because the benchmark (``perfbench/workloads.detect``) calls
        it on every store it builds."""
