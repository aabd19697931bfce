"""Synthetic substitute for the ProPublica COMPAS dataset.

6,889 rows, 16 categorical pattern attributes (continuous ones bucketized
into 3–4 bins, as in the paper). The ranking follows the paper / [4]: a sum
of min-max-normalized ``c_days_from_compas``, ``juv_other_count``,
``days_b_screening_arrest``, ``start``, ``end``, ``priors_count`` and
``age`` — all contributing positively except age, which is negated. The
correlation structure (priors grow with age, juvenile counts shrink with
age, violent/general decile scores track the same latent risk) gives the
group searches realistic overlap between groups.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import RankedDataset, bucketize
from repro.ranking.rankers import normalized_score, rank_frame

PATTERN_ATTRS = [
    "sex", "race", "age_cat", "c_charge_degree", "score_text", "v_score_text",
    "decile_score", "two_year_recid", "priors_count", "juv_fel_count",
    "juv_misd_count", "juv_other_count", "days_b_screening_arrest",
    "c_days_from_compas", "start", "end",
]

_RACES = [
    "African-American", "Caucasian", "Hispanic", "Other", "Asian",
    "Native American",
]
_SCORE_TEXT = ["Low", "Medium", "High"]


def _score_text(decile: np.ndarray) -> np.ndarray:
    return np.where(decile <= 4, "Low", np.where(decile <= 7, "Medium", "High"))


def compas(
    spark: SparkSession, n: int = 6889, seed: int = 7
) -> RankedDataset:
    """Generate the synthetic COMPAS dataset and rank it on the driver."""
    g = np.random.default_rng(seed)
    sex = g.choice(["Male", "Female"], n, p=[0.81, 0.19])
    race = g.choice(_RACES, n, p=[0.514, 0.34, 0.082, 0.05, 0.0045, 0.0095])
    age = np.clip(np.round(g.gamma(6.0, 5.8, n)), 18, 83).astype(int)

    # Latent criminal-history intensity: grows with age span, skewed.
    intensity = g.gamma(1.1, 1.0, n)
    priors = np.clip(
        np.round(intensity * (age - 16) * 0.16 + g.normal(0, 1.2, n)), 0, 38
    ).astype(int)
    young = np.maximum(0.0, 30.0 - age) / 12.0
    juv_fel = g.poisson(0.06 * (1 + 2 * young * intensity), n).clip(0, 20)
    juv_misd = g.poisson(0.09 * (1 + 2 * young * intensity), n).clip(0, 13)
    juv_other = g.poisson(0.11 * (1 + 2 * young * intensity), n).clip(0, 17)

    days_b_screening = np.round(g.normal(0, 18, n)).clip(-30, 30).astype(int)
    c_days_from_compas = np.round(g.gamma(0.6, 45, n)).clip(0, 1057).astype(int)
    start = np.round(g.gamma(0.8, 20, n)).clip(0, 937).astype(int)
    # `end` is heavily zero-inflated in the real extract.
    end_raw = np.where(
        g.random(n) < 0.55, 0, np.round(g.gamma(0.9, 220, n))
    ).clip(0, 1186).astype(int)

    risk = (
        0.32 * (priors / 10.0)
        + 0.55 * young
        + 0.25 * intensity
        + g.normal(0, 0.55, n)
    )
    decile = np.clip(np.round(2.0 + 4.5 * risk), 1, 10).astype(int)
    v_decile = np.clip(decile + g.integers(-2, 3, n), 1, 10)
    recid = (g.random(n) < (0.2 + 0.05 * decile)).astype(int)

    pdf = pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "sex": sex,
            "race": race,
            "age_cat": bucketize(
                age, [25, 45], ["Less than 25", "25 - 45", "Greater than 45"]
            ),
            "c_charge_degree": g.choice(["F", "M"], n, p=[0.644, 0.356]),
            "score_text": _score_text(decile),
            "v_score_text": _score_text(v_decile),
            "decile_score": bucketize(decile, [4, 7], ["1-4", "5-7", "8-10"]),
            "two_year_recid": recid.astype(str),
            "priors_count": bucketize(priors, [0, 3, 10], ["0", "1-3", "4-10", "11+"]),
            "juv_fel_count": bucketize(juv_fel, [0, 1], ["0", "1", "2+"]),
            "juv_misd_count": bucketize(juv_misd, [0, 1], ["0", "1", "2+"]),
            "juv_other_count": bucketize(juv_other, [0, 1], ["0", "1", "2+"]),
            "days_b_screening_arrest": bucketize(
                days_b_screening, [-1, 1], ["<0", "0-1", ">1"]
            ),
            "c_days_from_compas": bucketize(
                c_days_from_compas, [1, 30], ["0-1", "2-30", ">30"]
            ),
            "start": bucketize(start, [0, 30], ["0", "1-30", ">30"]),
            "end": bucketize(end_raw, [0, 400], ["0", "1", "2"]),
            # Raw numerics for the ranker and the Shapley regression.
            "age_num": age,
            "priors_num": priors,
            "juv_fel_num": juv_fel,
            "juv_misd_num": juv_misd,
            "juv_other_num": juv_other,
            "days_b_screening_num": days_b_screening,
            "c_days_from_compas_num": c_days_from_compas,
            "start_num": start,
            "end_num": end_raw,
            "decile_num": decile,
            "recid_num": recid,
        }
    )
    scored = normalized_score(
        pdf,
        positive_cols=[
            "c_days_from_compas_num", "juv_other_num",
            "days_b_screening_num", "start_num", "end_num", "priors_num",
        ],
        negative_cols=["age_num"],
    )
    out = rank_frame(scored, "score")
    numeric = {
        "age_cat": "age_num",
        "priors_count": "priors_num",
        "juv_fel_count": "juv_fel_num",
        "juv_misd_count": "juv_misd_num",
        "juv_other_count": "juv_other_num",
        "days_b_screening_arrest": "days_b_screening_num",
        "c_days_from_compas": "c_days_from_compas_num",
        "start": "start_num",
        "end": "end_num",
        "decile_score": "decile_num",
        "two_year_recid": "recid_num",
    }
    return RankedDataset(
        name="compas",
        pdf=out,
        pattern_attrs=PATTERN_ATTRS,
        numeric_cols=numeric,
        df=spark.createDataFrame(out),
    )
