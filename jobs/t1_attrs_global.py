"""T1 (paper Fig. 4): runtime vs number of attributes, global bounds.
T2 is this driver with ``problem="prop"``.

Usage: spark-submit jobs/t1_attrs_global.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import figure_job, parse_args

ATTR_GRIDS = {
    "student": [3, 6, 9, 12, 15],
    "compas": [3, 6, 9, 12, 16],
    "german": [3, 6, 9, 12, 15, 20],
}
FAST_GRID = [3, 4]
TITLES = {"global": "T1 global bounds", "prop": "T2 proportional"}


def main(spark=None, fast: bool = False, timeout: float = 120.0, problem: str = "global") -> dict:
    return figure_job(
        spark, fast, timeout, problem, "n_attrs", TITLES[problem],
        ATTR_GRIDS, FAST_GRID,
    )


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout, problem="global")
