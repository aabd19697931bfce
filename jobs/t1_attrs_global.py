"""T1 (paper Fig. 4): runtime vs number of attributes, global bounds.
T2 is this driver with ``problem="prop"``.

Usage: spark-submit jobs/t1_attrs_global.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.datasets.base import RankedDataset
from repro.experiments import format_rows, sweep_num_attrs

ATTR_GRIDS = {
    "student": [3, 6, 9, 12, 15],
    "compas": [3, 6, 9, 12, 16],
    "german": [3, 6, 9, 12, 15, 20],
}
FAST_GRID = [3, 4]
TITLES = {"global": "T1 global bounds", "prop": "T2 proportional"}


def main(spark=None, fast: bool = False, timeout: float = 120.0, problem: str = "global") -> dict:
    spark = spark or get_spark(f"t_attrs_{problem}")
    out = {}
    for name, ds in load_datasets(spark, fast).items():
        grid = FAST_GRID if fast else ATTR_GRIDS[name]
        rows = sweep_num_attrs(
            ds, problem, grid, RankedDataset.spark_store, timeout_s=timeout
        )
        out[name] = rows
        emit(f"{TITLES[problem]} — {name}", format_rows(rows, "n_attrs"))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout, problem="global")
