"""T5 (paper Fig. 8): runtime vs range of k, global bounds.

k_min is fixed at 10 and k_max varied: up to 1000 for COMPAS and 350 for
Student / German Credit, matching the paper's per-dataset ranges.

Usage: spark-submit jobs/t5_krange_global.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.datasets.base import RankedDataset
from repro.experiments import format_rows, sweep_krange
from repro.experiments.sweeps import ATTR_CAP

K_GRIDS = {
    "student": [50, 150, 250, 350],
    "compas": [50, 200, 500, 1000],
    "german": [50, 150, 250, 350],
}
FAST_GRID = [20, 40]


def main(spark=None, fast: bool = False, timeout: float = 120.0, problem: str = "global") -> dict:
    spark = spark or get_spark(f"t_krange_{problem}")
    out = {}
    for name, ds in load_datasets(spark, fast).items():
        grid = FAST_GRID if fast else K_GRIDS[name]
        grid = [k for k in grid if k <= ds.n]
        rows = sweep_krange(
            ds.with_attrs(ATTR_CAP), problem, grid, RankedDataset.spark_store,
            timeout_s=timeout,
        )
        out[name] = rows
        emit(f"{problem} bounds, k-range sweep — {name}", format_rows(rows, "k_max"))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout, problem="global")
