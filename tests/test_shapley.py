"""Tests for Monte-Carlo Shapley values, the group aggregation and the
feature encoding (paper Section V)."""
import numpy as np
import pytest

from repro.shapley import encode_features, mc_shapley
from repro.shapley.shapley import tuple_rng
from repro.shapley.analysis import (
    distribution_distance,
    group_mask,
    top_attributes,
    value_distributions,
)
from tests.helpers import group_shapley


@pytest.fixture(scope="module")
def linear_setup():
    rng = np.random.default_rng(1)
    w = np.array([2.0, -1.0, 0.5, 0.0])
    X = rng.normal(size=(200, 4))

    def predict(M):
        return M @ w

    return w, X, predict


class TestMcShapley:
    def test_efficiency_axiom_exact(self, linear_setup):
        """Per permutation the deltas telescope, so Σφ equals the mean of
        f(x) − f(z) over the drawn backgrounds — exactly."""
        w, X, predict = linear_setup
        x = X[0]
        rng = np.random.default_rng(3)
        # Re-derive the background draw the estimator makes.
        phi = mc_shapley(predict, x, X, n_samples=20, rng=np.random.default_rng(3))
        bg_idx = rng.integers(0, len(X), 20)
        expected_sum = float(np.mean(predict(x[None]) - predict(X[bg_idx])))
        assert float(phi.sum()) == pytest.approx(expected_sum, abs=1e-9)

    def test_linear_model_recovers_weights(self, linear_setup):
        """For a linear model, φ_i ≈ w_i (x_i − E[z_i])."""
        w, X, predict = linear_setup
        x = X[5]
        phi = mc_shapley(
            predict, x, X, n_samples=400, rng=np.random.default_rng(0)
        )
        expected = w * (x - X.mean(axis=0))
        assert phi == pytest.approx(expected, abs=0.15)

    def test_irrelevant_feature_near_zero(self, linear_setup):
        w, X, predict = linear_setup
        phi = mc_shapley(
            predict, X[3], X, n_samples=400, rng=np.random.default_rng(2)
        )
        assert abs(phi[3]) < 0.05  # w_3 = 0

    def test_deterministic_given_rng(self, linear_setup):
        _, X, predict = linear_setup
        a = mc_shapley(predict, X[0], X, 16, np.random.default_rng(9))
        b = mc_shapley(predict, X[0], X, 16, np.random.default_rng(9))
        assert a == pytest.approx(b)


class TestGroupShapley:
    def test_group_mean_of_singletons(self, linear_setup):
        """A group's vector is the mean of its tuples' vectors (the
        paper's aggregation formula). Tuple ``i`` is estimated on its own
        stream ``tuple_rng(seed, i)``, whatever the other tuples; for a
        linear model each tuple's φ is ≈ w·(x − E[z]), so a group's is
        ≈ w·(mean x − E[z])."""
        w, X, predict = linear_setup
        first = group_shapley(predict, X[:1], X, n_samples=50, seed=4)
        pair = group_shapley(predict, X[:2], X, n_samples=50, seed=4)
        second = mc_shapley(predict, X[1], X, 50, tuple_rng(4, 1))
        assert 2 * pair - first == pytest.approx(second)
        grp = X[:5]
        agg = group_shapley(predict, grp, X, n_samples=400, seed=4)
        expected = w * (grp.mean(axis=0) - X.mean(axis=0))
        assert agg == pytest.approx(expected, abs=0.15)

    def test_first_tuple_does_not_replay_the_seed_stream(self, linear_setup):
        """``shapley_analysis`` draws its subsample and background from
        ``default_rng(seed)``; tuple 0's Shapley draws must come from
        another stream (``default_rng((seed, 0))`` is that same stream)."""
        _, X, predict = linear_setup
        first = group_shapley(predict, X[:1], X, n_samples=20, seed=4)
        replay = mc_shapley(predict, X[0], X, 20, np.random.default_rng(4))
        assert not np.allclose(first, replay)


class TestEncodeFeatures:
    def test_student_encoding(self, student_ds):
        X, y, names = encode_features(student_ds)
        assert X.shape == (395, 33)
        assert names == student_ds.pattern_attrs
        g3 = X[:, names.index("G3")]
        assert g3.max() <= 20 and g3.min() >= 0  # raw numeric, not bucket codes
        assert sorted(np.unique(X[:, names.index("sex")])) == [0.0, 1.0]
        assert y.tolist() == student_ds.pdf["rank"].tolist()

    def test_paper_example_encoding(self, paper_ds):
        X, y, names = encode_features(paper_ds)
        assert X.shape == (16, 4)
        # Grade attr absent from paper example pattern attrs → all ordinal.
        assert set(np.unique(X[:, 0])) == {0.0, 1.0}

    def test_nulls_are_one_category(self):
        """None, NaN and pd.NA are one value in the store, so one code."""
        import pandas as pd

        from repro.datasets.base import RankedDataset

        pdf = pd.DataFrame({
            "z": ["b", None, np.nan, "a", pd.NA, "b"],
            "rank": [4, 1, 6, 2, 5, 3],
        })
        X, _, _ = encode_features(RankedDataset("nulls", pdf, ["z"]))
        # Sorted domain 'None' < 'a' < 'b'.
        assert X[:, 0].tolist() == [2.0, 0.0, 0.0, 1.0, 0.0, 2.0]


class TestAnalysis:
    def test_top_attributes_by_magnitude(self):
        import pandas as pd

        shap = pd.Series({"a": 1.0, "b": -5.0, "c": 0.2})
        top = top_attributes(shap, 2)
        assert top == [("b", -5.0), ("a", 1.0)]

    def test_group_mask(self, paper_ds):
        mask = group_mask(paper_ds, ((1, "GP"),))
        assert mask.sum() == 8

    def test_nulls_keyed_as_in_the_store(self):
        """A null is the pattern value 'None' whether the table holds it as
        None, NaN or pd.NA: every group's mask has the store's size, and a
        null group's value distribution is a distribution."""
        import itertools

        import pandas as pd

        from repro.datasets.base import RankedDataset

        pdf = pd.DataFrame({
            "x": [1.0, np.nan, 2.0, np.nan, 1.0, 3.0],
            "y": pd.array(["a", pd.NA, "b", "a", pd.NA, None],
                          dtype="string"),
            "z": ["a", None, np.nan, "b", pd.NA, "a"],
            "rank": [4, 1, 6, 2, 5, 3],
        })
        ds = RankedDataset("nulls", pdf, ["x", "y", "z"])
        store = ds.pandas_store()
        assert all("None" in dom for dom in store.domains)
        pairs = [(i, v) for i, dom in enumerate(store.domains) for v in dom]
        patterns = [(pair,) for pair in pairs] + [
            (a, b) for a, b in itertools.combinations(pairs, 2) if a[0] < b[0]
        ]
        for p in patterns:
            assert group_mask(ds, p).sum() == store.size(p), p
        dist = value_distributions(ds, ((2, "None"),), "y", 3)
        assert list(dist["value"]) == ["None", "a", "b"]
        assert dist["group_frac"].sum() == pytest.approx(1.0)

    def test_value_distributions_sum_to_one(self, paper_ds):
        dist = value_distributions(paper_ds, ((1, "GP"),), "Gender", 5)
        assert dist["topk_frac"].sum() == pytest.approx(1.0)
        assert dist["group_frac"].sum() == pytest.approx(1.0)

    def test_distribution_distance_bounds(self, paper_ds):
        dist = value_distributions(paper_ds, ((1, "GP"),), "School", 5)
        d = distribution_distance(dist)
        assert 0.0 <= d <= 1.0
        # Top-5 is 4 MS + 1 GP; the group is all GP → TV = 0.8.
        assert d == pytest.approx(0.8)
