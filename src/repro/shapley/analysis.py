"""Analysis of detected groups (paper Section V / Figures 10a–f):
attributes with the largest aggregated Shapley values, and the value
distribution of such an attribute in the top-k versus the detected group."""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.pattern import Pattern
from repro.core.store import value_key
from repro.datasets.base import RankedDataset


def top_attributes(
    shap: pd.Series, top: int = 6
) -> list[tuple[str, float]]:
    """The ``top`` attributes by aggregated-Shapley magnitude, as
    ``(name, value)`` pairs sorted descending by |value| (the paper plots
    the six largest; the rest were below ~10% of the maximum)."""
    order = shap.abs().sort_values(ascending=False).index[:top]
    return [(a, float(shap[a])) for a in order]


def group_mask(ds: RankedDataset, p: Pattern) -> pd.Series:
    """Boolean mask of tuples satisfying pattern ``p``, whose values are
    keyed as the stores key them (a null is ``'None'``)."""
    mask = pd.Series(True, index=ds.pdf.index)
    for a, v in p:
        mask &= ds.pdf[ds.pattern_attrs[a]].map(value_key) == v
    return mask


def value_distributions(
    ds: RankedDataset, p: Pattern, attr: str, k: int
) -> pd.DataFrame:
    """Proportion of each value of ``attr`` among the top-k tuples versus
    the tuples of the detected group ``p`` (Figures 10d–f; proportions, not
    counts, because the two sets differ in size)."""
    topk = ds.pdf[ds.rank_col] <= k
    grp = group_mask(ds, p)
    keys = ds.pdf[attr].map(value_key)
    rows = []
    for v in sorted(keys.unique()):
        is_v = keys == v
        rows.append(
            {
                "value": v,
                "topk_frac": float((is_v & topk).sum() / max(1, topk.sum())),
                "group_frac": float((is_v & grp).sum() / max(1, grp.sum())),
            }
        )
    return pd.DataFrame(rows)


def distribution_distance(dist: pd.DataFrame) -> float:
    """Total-variation distance between the two value distributions — the
    scalar we record in EXPERIMENTS.md for the 'vast difference' the paper
    reports between top-k and detected-group distributions."""
    return float(
        0.5 * np.abs(dist["topk_frac"] - dist["group_frac"]).sum()
    )
