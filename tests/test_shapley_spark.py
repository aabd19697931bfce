"""Distributed Shapley computation: the mapInPandas + DataFrame-avg path
must reproduce the driver-side ``group_shapley`` of ``tests/helpers.py``
(per-tuple RNG streams are keyed by tuple index, so partitioning cannot
change results)."""
import numpy as np
import pytest

from repro.shapley import group_shapley_spark
from repro.shapley.cart import RegressionForest
from tests.helpers import group_shapley


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(150, 3))
    y = 2 * X[:, 0] - X[:, 1] + rng.normal(0, 0.05, 150)
    model = RegressionForest(n_trees=3, max_depth=6, seed=0).fit(X, y)
    return X, model


def test_spark_matches_driver_reference(spark, fitted):
    X, model = fitted
    grp = X[:7]
    bg = X[:40]
    names = ["f0", "f1", "f2"]
    out = group_shapley_spark(
        spark, model, grp, bg, names, n_samples=16, seed=11
    )
    driver = group_shapley(model.predict, grp, bg, n_samples=16, seed=11)
    assert out.to_numpy() == pytest.approx(driver, rel=1e-9)
    assert list(out.index) == names


def test_spark_shapley_identifies_ranking_attribute(spark, student_ds):
    """End-to-end Section V: on Student the attribute with the largest
    aggregated Shapley value must be G3 — the only attribute the ranker
    uses (paper Fig. 10a)."""
    from repro.shapley import encode_features, top_attributes

    X, y, names = encode_features(student_ds)
    model = RegressionForest(n_trees=6, max_depth=9, seed=0).fit(X, y)
    medu = names.index("Medu")
    mask = X[:, medu] == 1.0  # mother's education = primary (4th grade)
    assert mask.sum() >= 30
    bg = X[np.random.default_rng(0).choice(len(X), 80, replace=False)]
    shap = group_shapley_spark(
        spark, model, X[mask], bg, names, n_samples=16, seed=0
    )
    top = top_attributes(shap, 6)
    assert top[0][0] == "G3"
    assert abs(top[0][1]) > 5 * abs(top[1][1])


def test_column_names_with_special_chars(spark, fitted):
    X, model = fitted
    names = ["a b", "c.d", "e-f"]
    out = group_shapley_spark(
        spark, model, X[:3], X[:20], names, n_samples=8, seed=0
    )
    assert list(out.index) == names
