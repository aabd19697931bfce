"""T8 (paper Fig. 10a–c): aggregated Shapley values of a detected group,
per dataset — the six attributes with the largest magnitudes. T9 is read
off the analyses this job returns.

Usage: spark-submit jobs/t8_shapley.py [--fast]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.experiments.shapley_exp import shapley_analysis


def main(spark=None, fast: bool = False) -> dict:
    """Returns ``{dataset: ShapleyAnalysis}``."""
    spark = spark or get_spark("t8_shapley")
    out = {}
    n_samples = 8 if fast else 32
    for name, ds in load_datasets(spark, fast).items():
        tau = 50 if not fast else max(5, ds.n // 10)
        a = shapley_analysis(spark, ds, tau=tau, n_samples=n_samples)
        out[name] = a
        lines = [
            f"group: {a.group_str} (size {a.group_size}), k={a.k}, "
            f"surrogate R²={a.model_r2:.3f}",
            "",
            "| attribute | aggregated Shapley |",
            "|---|---|",
        ]
        for attr, val in a.top6:
            lines.append(f"| {attr} | {val:+.3f} |")
        emit(f"T8 Shapley — {name}", "\n".join(lines))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__, timeout=False)
    main(fast=args.fast)
