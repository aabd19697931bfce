"""Synthetic substitute for the UCI Student Performance (Math) dataset.

395 rows, 33 attributes with marginals matching the published dataset
(school GP/MS 349/46, sex F/M 208/187, address U/R 307/88, ...). Grades
G1/G2/G3 are driven by a latent performance variable influenced by mother's
education, study time and past failures — reproducing the correlations the
paper's Shapley analysis surfaces (Fig. 10a: G3 dominant, G1/G2 notable,
Medu visible). Ranking: by final grade G3 (as in the paper), ties broken by
row id. A mild male/urban performance shift makes {sex=F} and {address=R}
under-represented in the top-k, matching the Section VI-D case study.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import RankedDataset, bucketize
from repro.ranking.rankers import rank_frame

#: UCI attribute order — the case study uses the first four.
PATTERN_ATTRS = [
    "school", "sex", "age", "address", "famsize", "Pstatus", "Medu", "Fedu",
    "Mjob", "Fjob", "reason", "guardian", "traveltime", "studytime",
    "failures", "schoolsup", "famsup", "paid", "activities", "nursery",
    "higher", "internet", "romantic", "famrel", "freetime", "goout", "Dalc",
    "Walc", "health", "absences", "G1", "G2", "G3",
]

_JOBS = ["at_home", "health", "other", "services", "teacher"]
_REASONS = ["course", "home", "other", "reputation"]
_GUARDIANS = ["father", "mother", "other"]


def _yn(g: np.random.Generator, n: int, p_yes: float) -> np.ndarray:
    return np.where(g.random(n) < p_yes, "yes", "no")


def student(
    spark: SparkSession, n: int = 395, seed: int = 42
) -> RankedDataset:
    """Generate the synthetic Student dataset and rank it on the driver."""
    g = np.random.default_rng(seed)
    school = g.choice(["GP", "MS"], n, p=[0.883, 0.117])
    sex = g.choice(["F", "M"], n, p=[0.527, 0.473])
    age = np.clip(np.round(g.normal(16.7, 1.2, n)), 15, 22).astype(int)
    address = g.choice(["U", "R"], n, p=[0.777, 0.223])
    famsize = g.choice(["GT3", "LE3"], n, p=[0.711, 0.289])
    pstatus = g.choice(["T", "A"], n, p=[0.896, 0.104])
    medu = g.choice([0, 1, 2, 3, 4], n, p=[0.008, 0.149, 0.261, 0.251, 0.331])
    fedu = np.clip(
        medu + g.choice([-1, 0, 1], n, p=[0.3, 0.45, 0.25]), 0, 4
    )
    mjob = g.choice(_JOBS, n, p=[0.149, 0.086, 0.356, 0.261, 0.148])
    fjob = g.choice(_JOBS, n, p=[0.051, 0.046, 0.549, 0.281, 0.073])
    reason = g.choice(_REASONS, n, p=[0.367, 0.277, 0.091, 0.265])
    guardian = g.choice(_GUARDIANS, n, p=[0.229, 0.691, 0.08])
    traveltime = g.choice([1, 2, 3, 4], n, p=[0.65, 0.27, 0.058, 0.022])
    studytime = g.choice([1, 2, 3, 4], n, p=[0.266, 0.502, 0.164, 0.068])

    # Latent performance: education at home, study habits, demographics.
    perf = (
        0.30 * (medu - 2.7)
        + 0.22 * (studytime - 2.0)
        + 0.25 * (sex == "M").astype(float)
        + 0.35 * (address == "U").astype(float)
        + g.normal(0.0, 1.0, n)
    )
    failures = np.clip(
        np.round(g.normal(-perf * 0.55 - 0.65, 0.55, n)), 0, 3
    ).astype(int)
    perf = perf - 0.9 * failures

    g3 = np.clip(np.round(10.4 + 2.6 * perf + g.normal(0, 0.7, n)), 0, 20)
    g1 = np.clip(np.round(g3 + g.normal(0, 1.1, n)), 0, 20)
    g2 = np.clip(np.round(g3 + g.normal(0, 0.8, n)), 0, 20)
    absences = np.clip(
        np.round(g.gamma(1.2, 4.5, n) - perf), 0, 75
    ).astype(int)

    pdf = pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "school": school,
            "sex": sex,
            "age": bucketize(age, [16, 18], ["15-16", "17-18", "19+"]),
            "address": address,
            "famsize": famsize,
            "Pstatus": pstatus,
            "Medu": medu.astype(str),
            "Fedu": fedu.astype(str),
            "Mjob": mjob,
            "Fjob": fjob,
            "reason": reason,
            "guardian": guardian,
            "traveltime": traveltime.astype(str),
            "studytime": studytime.astype(str),
            "failures": failures.astype(str),
            "schoolsup": _yn(g, n, 0.129),
            "famsup": _yn(g, n, 0.613),
            "paid": _yn(g, n, 0.458),
            "activities": _yn(g, n, 0.509),
            "nursery": _yn(g, n, 0.795),
            "higher": _yn(g, n, 0.949),
            "internet": _yn(g, n, 0.833),
            "romantic": _yn(g, n, 0.334),
            "famrel": np.clip(np.round(g.normal(3.9, 0.9, n)), 1, 5)
            .astype(int).astype(str),
            "freetime": np.clip(np.round(g.normal(3.2, 1.0, n)), 1, 5)
            .astype(int).astype(str),
            "goout": np.clip(np.round(g.normal(3.1, 1.1, n)), 1, 5)
            .astype(int).astype(str),
            "Dalc": np.clip(np.round(g.gamma(2.2, 0.7, n)), 1, 5)
            .astype(int).astype(str),
            "Walc": np.clip(np.round(g.gamma(2.6, 0.9, n)), 1, 5)
            .astype(int).astype(str),
            "health": np.clip(np.round(g.normal(3.6, 1.2, n)), 1, 5)
            .astype(int).astype(str),
            "absences": bucketize(
                absences, [2, 8, 16], ["0-2", "3-8", "9-16", "17+"]
            ),
            "G1": bucketize(g1, [7, 11, 15], ["0-7", "8-11", "12-15", "16-20"]),
            "G2": bucketize(g2, [7, 11, 15], ["0-7", "8-11", "12-15", "16-20"]),
            "G3": bucketize(g3, [7, 11, 15], ["0-7", "8-11", "12-15", "16-20"]),
            # Raw numerics backing the regression features and the ranker.
            "age_num": age,
            "absences_num": absences,
            "G1_num": g1,
            "G2_num": g2,
            "G3_num": g3,
        }
    )
    out = rank_frame(pdf, "G3_num")
    numeric = {
        "age": "age_num", "absences": "absences_num",
        "G1": "G1_num", "G2": "G2_num", "G3": "G3_num",
        "Medu": "Medu", "Fedu": "Fedu", "traveltime": "traveltime",
        "studytime": "studytime", "failures": "failures",
        "famrel": "famrel", "freetime": "freetime", "goout": "goout",
        "Dalc": "Dalc", "Walc": "Walc", "health": "health",
    }
    return RankedDataset(
        name="student",
        pdf=out,
        pattern_attrs=PATTERN_ATTRS,
        numeric_cols=numeric,
        df=spark.createDataFrame(out),
    )
