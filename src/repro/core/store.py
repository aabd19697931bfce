"""The pattern-statistics store: the data substrate of the search algorithms.

A store reads the ranked table once, at construction; the rows give ``n``,
``domains`` and ``row_at_rank``. From them it builds one bitmap per
(attribute, value) — a Python ``int`` whose bit ``r − 1`` is set iff the
tuple at rank ``r`` has that value, the vertical "tidset" layout of Zaki's
Eclat. A pattern's bitmap is the AND of its pairs' bitmaps, so ``s_D(p)``
is its popcount and ``s_{R^k(D)}(p)`` for *any* ``k`` the popcount under a
k-bit mask — one set of bitmaps serves the entire k-range and every
algorithm, so runtime differences between ITERTD and the optimized
algorithms reflect patterns examined (the paper's metric), not redundant
counting. Pattern bitmaps are never cached: the search derives each
child's bitmap from its parent's, one AND per child, as Eclat extends a
prefix's tidset by one item's. The extensions of a node are a list built at
construction (:meth:`StatsStore.extensions`): the ``(pair, value bitmap)``
of every search-tree child, the same list for every node with the same
largest attribute, so the search builds a child's pattern tuple only once
its popcount has passed τ_s. ``stat()`` serves patterns reached out of tree
order and the oracle. So a store's memory grows with the number of values,
not with the patterns examined.

The ranked table is a pandas or a Spark DataFrame. Only the source step
differs between the two: the column names and the rank column's type come
from the frame or from its Spark schema, and the rows from ``itertuples``
or from one plain ``collect()``. The rest is one path for both: the fields
are picked by position, the values keyed by :func:`value_key`, and the rows
ordered by rank on the driver, where :func:`rank_order` checks the ranks.
A null is one value of its own, ``'None'``, as in Spark and SQL ``GROUP
BY``: nulls form a group, appear in ``domains`` and match patterns such as
``{A=None}``.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import pandas as pd
from pandas.api.types import infer_dtype
from pyspark.sql import DataFrame
from pyspark.sql.types import NumericType

from repro.core.pattern import Pattern

#: The ``infer_dtype`` kinds of a numeric, non-boolean pandas column;
#: ``'empty'`` is a column with no non-null value.
_NUMERIC_KINDS = {
    "integer", "floating", "mixed-integer-float", "decimal", "empty"
}


def value_key(v: object) -> str:
    """The key of a value in a pattern: ``'None'`` for any null (None,
    NaN, NaT, ``pd.NA``), else ``str(v)``."""
    return "None" if pd.isna(v) else str(v)


def rank_order(ranks: Sequence[object], what: str) -> list[int]:
    """The positions of ``ranks`` in rank order; ``ValueError`` unless they
    are exactly the numbers ``1..n``, each once, in any order. A null —
    tested with ``pd.isna``, as :func:`value_key` tests it — fails before
    any rank is compared, so a ``pd.NA`` never reaches a comparison."""
    ranks = list(ranks)
    n = len(ranks)
    if not pd.isna(ranks).any():
        order = sorted(range(n), key=ranks.__getitem__)
        if [ranks[i] for i in order] == list(range(1, n + 1)):
            return order
    raise ValueError(f"{what} must be exactly 1..n")


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


class StatsStore:
    """Pattern statistics over a ranked pandas or Spark DataFrame.

    ``table`` must carry the pattern attributes plus a dense 1-based rank
    column (see ``repro.ranking.rankers``); other columns may be present.
    The rank column must be numeric and not boolean — by its Spark type, or
    by ``infer_dtype`` for a pandas column — and its values exactly the
    numbers ``1..n``, each once: integers of any width, or floating-point or
    decimal whole numbers. Fractional, null, gapped and duplicated ranks
    raise ``ValueError``. So do a missing attribute or rank column and a
    non-numeric or boolean rank column, before any row is read.

    A Spark table is read with one plain ``collect()`` on ``table`` itself,
    with no projection, cast or ``orderBy``: every store built over one
    DataFrame reuses that DataFrame's planned query, and Spark skips the
    stages it has already materialised (such as ``add_rank``'s ranking
    shuffle). The rows are ordered by rank on the driver: over a table
    spread across partitions, a Spark ``orderBy`` adds a range-partition
    sampling job and a sort shuffle for rows the driver receives anyway.
    Every statistic comes from the bitmaps of the rows read, so the
    DataFrame is not cached.
    """

    def __init__(
        self,
        table: pd.DataFrame | DataFrame,
        attr_names: Sequence[str],
        rank_col: str = "rank",
    ):
        self.attr_names = list(attr_names)
        self.rank_col = rank_col
        #: Pattern-attribute values of the tuple at rank k, at ``k - 1``.
        self._rows = self._collect_rows(table)
        self.n = len(self._rows)
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

    def _collect_rows(
        self, table: pd.DataFrame | DataFrame
    ) -> list[tuple[str, ...]]:
        """The keyed pattern-attribute values of every tuple of ``table``,
        ordered by rank."""
        names = [self.rank_col, *self.attr_names]
        if isinstance(table, pd.DataFrame):
            rank_at, *attr_at = _positions(table.columns, names)
            rank_type = infer_dtype(table.iloc[:, rank_at], skipna=True)
            numeric = rank_type in _NUMERIC_KINDS
            read = lambda: list(table.itertuples(index=False, name=None))
        else:
            schema = table.schema
            rank_at, *attr_at = _positions(schema.names, names)
            spark_type = schema[rank_at].dataType
            rank_type = spark_type.simpleString()
            numeric = isinstance(spark_type, NumericType)
            read = table.collect
        if not numeric:
            raise ValueError(
                f"{self.rank_col!r} must be numeric, got {rank_type}"
            )
        records = read()
        order = rank_order([r[rank_at] for r in records], repr(self.rank_col))
        return [
            tuple([value_key(r[i]) for i in attr_at])
            for r in map(records.__getitem__, order)
        ]

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

    def row_at_rank(self, k: int) -> tuple[str, ...]:
        """Pattern-attribute values of ``R(D)[k]``, the k-th ranked tuple
        (needed by the incremental algorithms)."""
        return self._rows[k - 1]

    def unpersist(self) -> None:
        """Nothing to release: the table is read once and never cached.
        Kept because the benchmark (``perfbench/workloads.detect``) calls
        it on every store it builds."""


# Aliases of the one store class, so that the benchmark's span tracer
# (``perfbench/spans.py``) sees every store, whatever its table.
#: Exists only for the tracer, which binds ``stat`` (ROADMAP item 1).
BaseStatsStore = StatsStore
#: Exists only for the tracer, which binds ``__init__``, ``_aggregate``,
#: ``prefetch``, ``_prefetch_batch`` and ``_collect_rows`` (ROADMAP item 1).
SparkStatsStore = StatsStore
