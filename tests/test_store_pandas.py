"""Unit tests for the pattern-statistics store over a pandas table
(driver-only), and the checks of its rank column."""
from itertools import product

import pandas as pd
import pytest

from repro.core.store import PatternStat, StatsStore
from repro.datasets.base import RankedDataset
from repro.datasets.paper_example import paper_example
from tests.helpers import assert_tree_children_match_stat


@pytest.fixture(scope="module")
def store():
    return StatsStore(
        paper_example().pdf, ["Gender", "School", "Address", "Failures"]
    )


class TestPatternStat:
    def test_topk_popcount(self):
        """Bit ``r − 1`` stands for rank ``r``: ranks 2, 5, 9 and 11."""
        st = PatternStat(4, sum(1 << (r - 1) for r in (2, 5, 9, 11)))
        assert st.topk(1) == 0
        assert st.topk(2) == 1
        assert st.topk(5) == 2
        assert st.topk(100) == 4


class TestStoreBasics:
    def test_n(self, store):
        assert store.n == 16

    def test_root_pattern(self, store):
        st = store.stat(())
        assert st.size == 16
        assert st.bits == (1 << 16) - 1

    def test_example_2_3(self, store):
        """s_D({School=GP}) = 8; s_{R^5}({School=GP}) = 1."""
        st = store.stat(((1, "GP"),))
        assert st.size == 8
        assert st.topk(5) == 1

    def test_example_2_4_school_counts_at_5(self, store):
        """Example 2.4: one GP student in the top-5, L=2 violated."""
        assert store.stat(((1, "GP"),)).topk(5) == 1
        assert store.stat(((1, "MS"),)).topk(5) == 4

    def test_two_attr_group(self, store):
        st = store.stat(((1, "MS"), (2, "R")))
        assert st.size == 6  # tuples 1,2,5,9,10,11

    def test_missing_combo_is_none(self, store):
        fresh = StatsStore(
            paper_example().pdf, ["Gender", "School", "Address", "Failures"]
        )
        assert fresh.stat(((0, "X"),)) == PatternStat(0, 0)
        assert fresh.size(((0, "X"),)) == 0
        assert fresh.stat(((0, "X"),)).topk(5) == 0

    def test_domains_sorted(self, store):
        assert store.domains == [
            ["F", "M"],
            ["GP", "MS"],
            ["R", "U"],
            ["0", "1", "2"],
        ]

    def test_row_at_rank(self, store):
        # Rank 1 is tuple 12: (F, GP, U, 0); rank 5 is tuple 14: (M, MS, U, 1).
        assert store.row_at_rank(1) == ("F", "GP", "U", "0")
        assert store.row_at_rank(5) == ("M", "MS", "U", "1")

    def test_sizes_anti_monotone(self, store):
        """s_D and s_{R^k} never grow when a pattern is specialized."""
        parent = ((0, "F"),)
        child = ((0, "F"), (1, "GP"))
        assert store.size(child) <= store.size(parent)
        for k in range(1, 17):
            assert store.stat(child).topk(k) <= store.stat(parent).topk(k)

    def test_group_sizes_partition_dataset(self, store):
        """The value combinations over an attribute set split D: their
        sizes add up to |D| and their bitmaps are disjoint."""
        for attrs in [(0,), (1,), (0, 1), (0, 1, 2, 3)]:
            stats = [
                store.stat(tuple(zip(attrs, vals)))
                for vals in product(*(store.domains[a] for a in attrs))
            ]
            assert sum(st.size for st in stats) == 16
            union = 0
            for st in stats:
                assert not union & st.bits
                union |= st.bits
            assert union == (1 << 16) - 1

    def test_tree_children_match_stat(self, store):
        assert_tree_children_match_stat(store)

    def test_values_normalized_to_str(self):
        pdf = pd.DataFrame({"A": [1, 1, 2], "rank": [1, 2, 3]})
        s = StatsStore(pdf, ["A"])
        assert s.stat(((0, "1"),)).size == 2


@pytest.mark.parametrize("ranks", [[1, 3], [1, 1], [0, 1]])
def test_rank_column_must_be_1_to_n(ranks):
    pdf = pd.DataFrame({"A": ["x", "y"], "rank": ranks})
    with pytest.raises(ValueError, match="1..n"):
        StatsStore(pdf, ["A"])


@pytest.mark.parametrize(
    "ranks",
    [
        pd.array([pd.NA, 1], dtype="Int64"),
        pd.array([2, pd.NA], dtype="Int64"),
        pd.Series([None, 1], dtype=object),
        pd.Series([2.0, float("nan")]),
    ],
    ids=["NA-first", "NA-last", "object-None", "float-NaN"],
)
def test_null_rank_rejected(ranks):
    """A null rank of any kind fails the 1..n check, in the store and in
    ``RankedDataset``, instead of reaching a comparison (``pd.NA`` raises
    ``TypeError`` there)."""
    pdf = pd.DataFrame({"A": ["x", "y"], "rank": ranks})
    with pytest.raises(ValueError, match="1..n"):
        StatsStore(pdf, ["A"])
    with pytest.raises(ValueError, match="1..n"):
        RankedDataset(name="null", pdf=pdf, pattern_attrs=["A"])


def test_nullable_integer_rank_accepted():
    """An ``Int64`` rank column without nulls is an integral column like
    any other."""
    pdf = pd.DataFrame({
        "A": ["x", "y", "x"],
        "rank": pd.array([3, 1, 2], dtype="Int64"),
    })
    store = StatsStore(pdf, ["A"])
    assert [store.row_at_rank(k) for k in (1, 2, 3)] == [
        ("y",), ("x",), ("x",)
    ]
    assert RankedDataset(name="ok", pdf=pdf, pattern_attrs=["A"]).n == 3
