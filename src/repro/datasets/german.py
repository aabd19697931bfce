"""Synthetic substitute for the Statlog German Credit dataset.

1,000 rows, 20 pattern attributes. The paper ranks applicants by the
creditworthiness ranking of Yang & Stoyanovich [36] whose scorer is unknown;
we substitute a hidden linear creditworthiness score over account status,
duration, credit amount, installment rate and residence length — exactly the
attributes the paper's Shapley analysis identified as dominant (Fig. 10c),
so our explanation pipeline has the same ground truth to rediscover.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import RankedDataset, bucketize
from repro.ranking.rankers import rank_frame

PATTERN_ATTRS = [
    "account_status", "duration", "credit_history", "purpose",
    "credit_amount", "savings", "employment_since", "installment_rate",
    "personal_status_sex", "other_debtors", "residence_since", "property",
    "age", "other_installment", "housing", "existing_credits", "job",
    "num_maintenance", "telephone", "foreign_worker",
]

_PURPOSES = [
    "new_car", "used_car", "furniture", "radio_tv", "appliances", "repairs",
    "education", "retraining", "business", "other",
]


def german_credit(
    spark: SparkSession, n: int = 1000, seed: int = 11
) -> RankedDataset:
    """Generate the synthetic German Credit data and rank it on the driver."""
    g = np.random.default_rng(seed)
    # Account status A11..A14: < 0 DM, 0..200 DM, >= 200 DM, no account.
    acct = g.choice(["A11", "A12", "A13", "A14"], n, p=[0.274, 0.269, 0.063, 0.394])
    acct_ord = pd.Series(acct).map({"A11": 0, "A12": 1, "A13": 2, "A14": 3}).to_numpy()
    duration = np.clip(np.round(g.gamma(2.6, 8.1, n)), 4, 72).astype(int)
    amount = np.clip(
        np.round(duration * g.gamma(2.0, 80.0, n) + 250), 250, 18424
    ).astype(int)
    installment_rate = g.choice([1, 2, 3, 4], n, p=[0.136, 0.231, 0.157, 0.476])
    residence = g.choice([1, 2, 3, 4], n, p=[0.13, 0.308, 0.149, 0.413])
    age = np.clip(np.round(g.gamma(7.5, 4.75, n)), 19, 75).astype(int)

    # Hidden creditworthiness: the ranking ground truth (see module doc).
    score = (
        0.9 * acct_ord
        - 0.045 * duration
        - 0.00022 * amount
        - 0.45 * installment_rate
        + 0.55 * residence
        + g.normal(0, 0.6, n)
    )

    pdf = pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "account_status": acct,
            "duration": bucketize(duration, [12, 24, 36], ["<=12", "13-24", "25-36", ">36"]),
            "credit_history": g.choice(
                ["no_credits", "all_paid", "existing_paid", "delayed", "critical"],
                n, p=[0.04, 0.049, 0.53, 0.088, 0.293],
            ),
            "purpose": g.choice(
                _PURPOSES, n,
                p=[0.234, 0.103, 0.181, 0.28, 0.012, 0.022, 0.05, 0.009, 0.097, 0.012],
            ),
            "credit_amount": bucketize(
                amount, [1500, 3500, 7000], ["<=1500", "1501-3500", "3501-7000", ">7000"]
            ),
            "savings": g.choice(
                ["<100", "100-500", "500-1000", ">=1000", "unknown"],
                n, p=[0.603, 0.103, 0.063, 0.048, 0.183],
            ),
            "employment_since": g.choice(
                ["unemployed", "<1", "1-4", "4-7", ">=7"],
                n, p=[0.062, 0.172, 0.339, 0.174, 0.253],
            ),
            "installment_rate": installment_rate.astype(str),
            "personal_status_sex": g.choice(
                ["male_div", "female_div_mar", "male_single", "male_mar_wid"],
                n, p=[0.05, 0.31, 0.548, 0.092],
            ),
            "other_debtors": g.choice(
                ["none", "co-applicant", "guarantor"], n, p=[0.907, 0.041, 0.052]
            ),
            "residence_since": residence.astype(str),
            "property": g.choice(
                ["real_estate", "savings_ins", "car_other", "unknown"],
                n, p=[0.282, 0.232, 0.332, 0.154],
            ),
            "age": bucketize(age, [30, 45], ["19-30", "31-45", "46+"]),
            "other_installment": g.choice(
                ["bank", "stores", "none"], n, p=[0.139, 0.047, 0.814]
            ),
            "housing": g.choice(
                ["rent", "own", "free"], n, p=[0.179, 0.713, 0.108]
            ),
            "existing_credits": g.choice(
                [1, 2, 3, 4], n, p=[0.633, 0.333, 0.028, 0.006]
            ).astype(str),
            "job": g.choice(
                ["unskilled_nonres", "unskilled_res", "skilled", "management"],
                n, p=[0.022, 0.2, 0.63, 0.148],
            ),
            "num_maintenance": g.choice([1, 2], n, p=[0.845, 0.155]).astype(str),
            "telephone": g.choice(["none", "yes"], n, p=[0.596, 0.404]),
            "foreign_worker": g.choice(["yes", "no"], n, p=[0.963, 0.037]),
            # Raw numerics for the ranker and the Shapley regression.
            "acct_ord_num": acct_ord,
            "duration_num": duration,
            "amount_num": amount,
            "installment_rate_num": installment_rate,
            "residence_num": residence,
            "age_num": age,
            "creditworthiness": score,
        }
    )
    out = rank_frame(pdf, "creditworthiness")
    numeric = {
        "account_status": "acct_ord_num",
        "duration": "duration_num",
        "credit_amount": "amount_num",
        "installment_rate": "installment_rate_num",
        "residence_since": "residence_num",
        "age": "age_num",
        "existing_credits": "existing_credits",
        "num_maintenance": "num_maintenance",
    }
    return RankedDataset(
        name="german_credit",
        pdf=out,
        pattern_attrs=PATTERN_ATTRS,
        numeric_cols=numeric,
        df=spark.createDataFrame(out),
    )
