"""Monte-Carlo permutation Shapley values and the group aggregation of
Section V.

Per-tuple Shapley values use the sampling estimator of Štrumbelj &
Kononenko [35] (the paper's cited foundation): for each sample draw a
random feature permutation π and a random background row z, walk through π
replacing z's features by the explained tuple's one at a time, and credit
each feature with the prediction delta at its step. Summed over a
permutation the deltas telescope to ``f(x) − f(z)``, so the estimator
satisfies the Shapley efficiency axiom in expectation.

The group-level explanation aggregates per-tuple vectors by the paper's
formula ``s_i = (Σ_{t ⊨ p} s_i^t) / s_D(p)`` — implemented distributed:
``mapInPandas`` computes per-tuple vectors on the workers and a DataFrame
``avg`` aggregation produces the group vector.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

PredictFn = Callable[[np.ndarray], np.ndarray]


def mc_shapley(
    predict: PredictFn,
    x: np.ndarray,
    background: np.ndarray,
    n_samples: int = 64,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Shapley value estimate for one tuple ``x`` (1-D feature vector).

    Builds the ``n_samples · (m+1)`` composite rows for all permutations at
    once and calls ``predict`` a single time, so tree traversal stays
    vectorized.
    """
    rng = rng or np.random.default_rng(0)
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    phi = np.zeros(m, dtype=np.float64)
    bg_idx = rng.integers(0, len(background), n_samples)
    rows = np.empty((n_samples * (m + 1), m), dtype=np.float64)
    perms = np.empty((n_samples, m), dtype=np.int64)
    for s in range(n_samples):
        perm = rng.permutation(m)
        perms[s] = perm
        composite = background[bg_idx[s]].astype(np.float64).copy()
        base = s * (m + 1)
        rows[base] = composite
        for j, f in enumerate(perm):
            composite[f] = x[f]
            rows[base + j + 1] = composite
    preds = predict(rows)
    for s in range(n_samples):
        base = s * (m + 1)
        deltas = np.diff(preds[base : base + m + 1])
        phi[perms[s]] += deltas
    return phi / n_samples


def tuple_rng(seed: int, i: int) -> np.random.Generator:
    """The random stream of tuple ``i`` in a group estimate. The middle
    ``1`` keeps every tuple's stream apart from ``default_rng(seed)``:
    ``default_rng((seed, 0))`` is that same stream, so a caller that also
    draws from ``default_rng(seed)`` would see tuple 0 replay its draws."""
    return np.random.default_rng((seed, 1, i))


def group_shapley_spark(
    spark: SparkSession,
    model,
    X_group: np.ndarray,
    background: np.ndarray,
    feature_names: Sequence[str],
    n_samples: int = 64,
    seed: int = 0,
) -> pd.Series:
    """Distributed group aggregation: per-tuple Shapley vectors computed in
    parallel with ``mapInPandas`` (model + background shipped in the
    closure), reduced to the group vector with a DataFrame ``avg``.

    Tuple ``i`` draws from ``tuple_rng(seed, i)``, keyed by its stable
    index, so the result is independent of partitioning: it equals the mean
    of ``mc_shapley`` over the tuples, each with its own stream, up to the
    order of the floating-point sums (the driver-side reference the tests
    compare against).
    """
    names = list(feature_names)
    # Positional internal column names (f0..fm) keep the mapInPandas schema
    # and the avg aggregation immune to dots/spaces in feature names.
    fcols = [f"f{i}" for i in range(len(names))]
    pdf_in = pd.DataFrame(X_group, columns=fcols)
    pdf_in["_tuple_idx"] = np.arange(len(pdf_in))
    sdf = spark.createDataFrame(pdf_in).repartition(
        max(1, min(16, len(pdf_in)))
    )
    schema = ", ".join(["_tuple_idx long"] + [f"phi_{c} double" for c in fcols])

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for batch in batches:
            X = batch[fcols].to_numpy(dtype="float64")
            out = np.empty((len(batch), len(fcols)), dtype="float64")
            for i, (row, t_idx) in enumerate(zip(X, batch["_tuple_idx"])):
                rng = tuple_rng(seed, int(t_idx))
                out[i] = mc_shapley(
                    model.predict, row, background, n_samples, rng
                )
            res = pd.DataFrame(out, columns=[f"phi_{c}" for c in fcols])
            res.insert(0, "_tuple_idx", batch["_tuple_idx"].to_numpy())
            yield res

    from pyspark.sql import functions as F

    agg = (
        sdf.mapInPandas(compute, schema=schema)
        .agg(*[F.avg(f"phi_{c}").alias(f"phi_{c}") for c in fcols])
        .collect()[0]
    )
    return pd.Series(
        {name: float(agg[f"phi_{c}"]) for name, c in zip(names, fcols)}
    )
