"""From-scratch CART regression trees and a bagged forest (numpy only).

The paper trains a regression model ``M_R`` on ``D_R = {(t, rank(t))}`` to
simulate the black-box ranker and explains it with Shapley values. The
usual tooling (scikit-learn + SHAP) is not available offline, so this
module provides the substrate: vectorized variance-reduction CART trees,
flattened to arrays so fitted models pickle cheaply into Spark workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RegressionTree:
    """A fitted CART regression tree in flat-array form.

    ``feature[i] < 0`` marks node ``i`` as a leaf whose prediction is
    ``value[i]``; otherwise the sample goes left iff
    ``x[feature[i]] <= threshold[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized prediction for a 2-D sample matrix."""
        idx = np.zeros(len(X), dtype=np.int64)
        active = self.feature[idx] >= 0
        while active.any():
            node = idx[active]
            f = self.feature[node]
            go_left = X[active, f] <= self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])
            active = self.feature[idx] >= 0
        return self.value[idx]


def _best_split(
    X: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold) by weighted-variance reduction, or None.

    For each feature the samples are sorted once; prefix sums of y and y²
    give the left/right SSE at every split point in O(n).
    """
    n = len(y)
    total_sse = ((y - y.mean()) ** 2).sum()
    best = None
    best_gain = 1e-12
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys**2)
        # Split after position i (1-based left size); valid where the
        # feature value actually changes and both sides have >= min_leaf.
        sizes = np.arange(1, n)
        valid = xs[:-1] != xs[1:]
        valid &= (sizes >= min_leaf) & (n - sizes >= min_leaf)
        if not valid.any():
            continue
        left_sse = csum2[:-1] - csum[:-1] ** 2 / sizes
        rs = n - sizes
        rsum = csum[-1] - csum[:-1]
        rsum2 = csum2[-1] - csum2[:-1]
        right_sse = rsum2 - rsum**2 / rs
        gain = total_sse - (left_sse + right_sse)
        gain[~valid] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (f, float((xs[i] + xs[i + 1]) / 2.0), best_gain)
    return best


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int = 8,
    min_leaf: int = 5,
) -> RegressionTree:
    """Fit one CART regression tree by recursive variance reduction over
    every feature."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(idx: np.ndarray, depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[idx].mean()))
        if depth >= max_depth or len(idx) < 2 * min_leaf:
            return node
        split = _best_split(X[idx], y[idx], min_leaf)
        if split is None:
            return node
        f, thr, _ = split
        mask = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = build(idx[mask], depth + 1)
        right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(len(y)), 0)
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


@dataclass
class RegressionForest:
    """Bagged CART forest — the default ``M_R`` ranker surrogate."""

    n_trees: int = 10
    max_depth: int = 9
    min_leaf: int = 4
    seed: int = 0
    trees: list[RegressionTree] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionForest":
        rng = np.random.default_rng(self.seed)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        self.trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, n)  # bootstrap sample
            self.trees.append(
                fit_tree(X[idx], y[idx], self.max_depth, self.min_leaf)
            )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros(len(X), dtype=np.float64)
        for t in self.trees:
            out += t.predict(X)
        return out / len(self.trees)

    def r2(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination on a sample."""
        y = np.asarray(y, dtype=np.float64)
        resid = y - self.predict(X)
        return 1.0 - float((resid**2).sum() / ((y - y.mean()) ** 2).sum())
