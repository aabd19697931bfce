"""T5 (paper Fig. 8): runtime vs range of k, global bounds.

k_min is fixed at 10 and k_max varied: up to 1000 for COMPAS and 350 for
Student / German Credit, matching the paper's per-dataset ranges.

Usage: spark-submit jobs/t5_krange_global.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import figure_job, parse_args

K_GRIDS = {
    "student": [50, 150, 250, 350],
    "compas": [50, 200, 500, 1000],
    "german": [50, 150, 250, 350],
}
FAST_GRID = [20, 40]


def main(spark=None, fast: bool = False, timeout: float = 120.0, problem: str = "global") -> dict:
    return figure_job(
        spark, fast, timeout, problem, "k_max",
        f"{problem} bounds, k-range sweep", K_GRIDS, FAST_GRID,
    )


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout, problem="global")
