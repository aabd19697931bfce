"""Result analysis via Shapley values (paper Section V): a regression model
``M_R`` simulating the black-box ranker, Monte-Carlo permutation Shapley
values per tuple, aggregated per detected group, plus the value-distribution
comparison of Figures 10d–f."""

from repro.shapley.cart import RegressionForest, RegressionTree  # noqa: F401
from repro.shapley.encode import encode_features  # noqa: F401
from repro.shapley.shapley import (  # noqa: F401
    group_shapley_spark,
    mc_shapley,
)
from repro.shapley.analysis import (  # noqa: F401
    top_attributes,
    value_distributions,
)
