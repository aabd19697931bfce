"""Common dataset container and bucketization helpers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.store import StatsStore, rank_order


@dataclass
class RankedDataset:
    """A ranked dataset ready for bias detection.

    ``pdf`` holds the pattern attributes (categorical, as strings), any raw
    numeric columns backing them (for ranking / the Shapley regression), and
    a dense 1-based integer ``rank`` column. ``df`` is the Spark mirror with
    identical content (None for driver-only fixtures such as the Figure-1
    example when Spark is not needed).
    """

    name: str
    pdf: pd.DataFrame
    pattern_attrs: list[str]
    #: pattern attr → raw numeric column used for regression features; pure
    #: categoricals are absent and get ordinal-encoded by the Shapley layer.
    numeric_cols: dict[str, str] = field(default_factory=dict)
    df: DataFrame | None = None
    rank_col: str = "rank"

    def __post_init__(self) -> None:
        rank_order(
            self.pdf[self.rank_col].tolist(),
            f"{self.name}: rank column {self.rank_col!r}",
        )

    @property
    def n(self) -> int:
        return len(self.pdf)

    def pandas_store(self) -> StatsStore:
        return StatsStore(self.pdf, self.pattern_attrs, self.rank_col)

    def spark_store(self) -> StatsStore:
        if self.df is None:
            raise ValueError(f"{self.name} has no Spark DataFrame attached")
        return StatsStore(self.df, self.pattern_attrs, self.rank_col)

    def with_attrs(self, m: int) -> "RankedDataset":
        """A view restricted to the first ``m`` pattern attributes — the
        paper's number-of-attributes sweeps (Figures 4–5). Raises
        ``ValueError`` unless ``1 ≤ m ≤ len(pattern_attrs)``."""
        if not 1 <= m <= len(self.pattern_attrs):
            raise ValueError(
                f"{self.name}: need 1 <= m <= {len(self.pattern_attrs)} "
                f"pattern attributes, got m={m}"
            )
        return RankedDataset(
            name=f"{self.name}[{m} attrs]",
            pdf=self.pdf,
            pattern_attrs=self.pattern_attrs[:m],
            numeric_cols={
                a: c for a, c in self.numeric_cols.items()
                if a in self.pattern_attrs[:m]
            },
            df=self.df,
            rank_col=self.rank_col,
        )


def bucketize(
    values: np.ndarray | pd.Series, edges: list[float], labels: list[str]
) -> pd.Series:
    """Bucketize a continuous attribute into labelled ranges (the paper
    bucketizes continuous attributes equally into 3–4 bins). ``edges`` are
    the interior cut points, *inclusive* on the lower bucket (a value equal
    to an edge falls left, matching labels like "<=12");
    ``len(labels) == len(edges) + 1``."""
    if len(labels) != len(edges) + 1:
        raise ValueError("need one more label than interior edges")
    v = pd.Series(np.asarray(values))
    idx = np.searchsorted(np.asarray(edges, dtype="float64"), v, side="left")
    return pd.Series([labels[i] for i in idx], index=v.index, dtype="object")
