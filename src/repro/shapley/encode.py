"""Feature encoding for the ranker-surrogate regression.

The paper trains ``M_R`` on the dataset's attributes. Our features follow
``RankedDataset.numeric_cols``: a pattern attribute backed by a raw numeric
column uses that column (so e.g. the Student ranker's G3 keeps its full
0–20 resolution, not the 4 pattern buckets); purely categorical attributes
are ordinal-encoded over their sorted active domain, with values keyed as
the stores key them (every null is the one value ``'None'``).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.store import value_key
from repro.datasets.base import RankedDataset


def encode_features(
    ds: RankedDataset,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Return ``(X, y, feature_names)`` with ``y`` the rank column.

    Feature i is named after pattern attribute i; its values come from the
    backing numeric column when one exists (string-typed numeric columns —
    ordinal scales stored as digit strings — are coerced).
    """
    pdf = ds.pdf
    cols: list[np.ndarray] = []
    names: list[str] = []
    for attr in ds.pattern_attrs:
        src = ds.numeric_cols.get(attr)
        if src is not None:
            col = pd.to_numeric(pdf[src]).to_numpy(dtype="float64")
        else:
            keys = pdf[attr].map(value_key)
            cats = sorted(keys.unique())
            mapping = {c: float(i) for i, c in enumerate(cats)}
            col = keys.map(mapping).to_numpy(dtype="float64")
        cols.append(col)
        names.append(attr)
    X = np.column_stack(cols)
    y = pdf[ds.rank_col].to_numpy(dtype="float64")
    return X, y, names
