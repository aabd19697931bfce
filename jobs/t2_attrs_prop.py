"""T2 (paper Fig. 5): runtime vs number of attributes, proportional
representation.

Usage: spark-submit jobs/t2_attrs_prop.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.datasets.base import RankedDataset
from repro.experiments import format_rows, sweep_num_attrs
from t1_attrs_global import ATTR_GRIDS, FAST_GRID


def main(spark=None, fast: bool = False, timeout: float = 120.0) -> dict:
    spark = spark or get_spark("t2_attrs_prop")
    out = {}
    for name, ds in load_datasets(spark, fast).items():
        grid = FAST_GRID if fast else ATTR_GRIDS[name]
        rows = sweep_num_attrs(
            ds, "prop", grid, RankedDataset.spark_store, timeout_s=timeout
        )
        out[name] = rows
        emit(f"T2 proportional — {name}", format_rows(rows, "n_attrs"))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout)
