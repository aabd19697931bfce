"""T3 (paper Fig. 6): runtime vs size threshold τ_s, global bounds.

Attribute counts are capped at ``ATTR_CAP`` (the paper likewise capped
them at what the baseline could handle within its timeout).

Usage: spark-submit jobs/t3_tau_global.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.datasets.base import RankedDataset
from repro.experiments import format_rows, sweep_tau
from repro.experiments.sweeps import ATTR_CAP

TAUS = [10, 25, 50, 75, 100]
FAST_TAUS = [20, 50]


def main(spark=None, fast: bool = False, timeout: float = 120.0, problem: str = "global") -> dict:
    spark = spark or get_spark(f"t_tau_{problem}")
    out = {}
    for name, ds in load_datasets(spark, fast).items():
        rows = sweep_tau(
            ds.with_attrs(ATTR_CAP), problem, FAST_TAUS if fast else TAUS,
            RankedDataset.spark_store, timeout_s=timeout,
        )
        out[name] = rows
        emit(f"{problem} bounds, τ_s sweep — {name}", format_rows(rows, "tau"))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout, problem="global")
