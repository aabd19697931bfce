"""The Shapley analysis behind T8 (Fig. 10a–c aggregated Shapley values)
and T9 (Fig. 10d–f value distributions, read off T8's analyses).

For each dataset: detect groups with GLOBALBOUNDS at the paper's default
bounds and range of k over the first ``DEFAULTS.n_attrs`` attributes, pick
the detected group analogous to the paper's example (mother's education for
Student, the age bucket for COMPAS, account status for German Credit —
falling back to the largest detected group), train the CART-forest ranker
surrogate on all attributes, and aggregate Monte-Carlo Shapley values over
the group with the distributed mapInPandas + avg pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.global_bounds import global_bounds
from repro.core.bounds import paper_default_global
from repro.core.pattern import Pattern, pattern_to_str
from repro.core.store import StatsStore
from repro.datasets.base import RankedDataset
from repro.experiments.sweeps import DEFAULTS
from repro.shapley import (
    RegressionForest,
    encode_features,
    group_shapley_spark,
    top_attributes,
    value_distributions,
)
from repro.shapley.analysis import distribution_distance, group_mask

#: The attribute whose detected group we analyze, mirroring Fig. 10.
PREFERRED_ATTR = {
    "student": "Medu",
    "compas": "age_cat",
    "german_credit": "account_status",
}

#: Cap on tuples per group for the Shapley estimate (fixed-seed subsample;
#: the paper aggregates all tuples — at our sample counts the mean is
#: stable well below this cap).
MAX_GROUP_TUPLES = 600

#: The seed of the surrogate forest, the subsamples and the Shapley draws.
SEED = 0


@dataclass
class ShapleyAnalysis:
    dataset: str
    group: Pattern
    group_str: str
    group_size: int
    k: int
    model_r2: float
    shap: pd.Series
    top6: list[tuple[str, float]]
    distributions: pd.DataFrame
    tv_distance: float


def pick_group(
    store: StatsStore, res_k: frozenset, dataset: str
) -> Pattern:
    """The detected group to explain, in an order that does not depend on
    how ``res_k`` iterates: the smallest singleton over the paper's
    attribute, else the largest singleton, else the largest group; ties
    go to the pattern that sorts first. Sizes come from the detection's
    ``store``."""
    singles = [p for p in res_k if len(p) == 1]
    preferred = [
        p for p in singles
        if store.attr_names[p[0][0]] == PREFERRED_ATTR.get(dataset)
    ]
    if preferred:
        return min(preferred, key=lambda p: (store.size(p), p))
    return min(singles or res_k, key=lambda p: (-store.size(p), p))


def shapley_analysis(
    spark: SparkSession,
    ds: RankedDataset,
    tau: int = 50,
    n_samples: int = 32,
) -> ShapleyAnalysis:
    """Run detection + Shapley explanation for one dataset."""
    k = DEFAULTS.k_max
    view = ds.with_attrs(DEFAULTS.n_attrs)
    store = view.spark_store()
    spec = paper_default_global()
    res = global_bounds(store, spec, tau, DEFAULTS.k_min, k).res_at(k)
    if not res:
        raise RuntimeError(f"no detected groups on {ds.name} at k={k}")
    group = pick_group(store, res, ds.name)

    X, y, names = encode_features(ds)
    model = RegressionForest(n_trees=8, max_depth=9, seed=SEED).fit(X, y)
    mask = group_mask(ds, group).to_numpy()
    X_group = X[mask]
    rng = np.random.default_rng(SEED)
    if len(X_group) > MAX_GROUP_TUPLES:
        X_group = X_group[
            rng.choice(len(X_group), MAX_GROUP_TUPLES, replace=False)
        ]
    background = X[rng.choice(len(X), min(100, len(X)), replace=False)]
    shap = group_shapley_spark(
        spark, model, X_group, background, names, n_samples, SEED
    )
    top6 = top_attributes(shap, 6)
    dist = value_distributions(ds, group, top6[0][0], k)
    return ShapleyAnalysis(
        dataset=ds.name,
        group=group,
        group_str=pattern_to_str(group, view.pattern_attrs),
        group_size=int(mask.sum()),
        k=k,
        model_r2=model.r2(X, y),
        shap=shap,
        top6=top6,
        distributions=dist,
        tv_distance=distribution_distance(dist),
    )
