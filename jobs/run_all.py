"""Orchestrator: run every table job once (T1–T11) and print all tables.

T7 and T11 are read off the sweep rows T3–T6 return, and T9 off the
Shapley analyses T8 returns; they compute nothing of their own. Output
(stdout) is the source for EXPERIMENTS.md.

Usage: spark-submit jobs/run_all.py [--fast] [--timeout S]
"""
from __future__ import annotations

import time

from _common import get_spark, parse_args

import t1_attrs_global
import t2_attrs_prop
import t3_tau_global
import t4_tau_prop
import t5_krange_global
import t6_krange_prop
import t7_patterns_examined
import t8_shapley
import t9_distributions
import t10_case_study
import t11_result_sizes


def main(spark=None, fast: bool = False, timeout: float = 120.0) -> None:
    spark = spark or get_spark("run_all")
    t0 = time.time()

    def stamp(label):
        print(f"\n[{time.time() - t0:7.1f}s] {label}", flush=True)

    stamp("T1")
    t1_attrs_global.main(spark, fast, timeout)
    stamp("T2")
    t2_attrs_prop.main(spark, fast, timeout)
    stamp("T3")
    t3 = t3_tau_global.main(spark, fast, timeout)
    stamp("T4")
    t4 = t4_tau_prop.main(spark, fast, timeout)
    stamp("T5")
    t5 = t5_krange_global.main(spark, fast, timeout)
    stamp("T6")
    t6 = t6_krange_prop.main(spark, fast, timeout)
    stamp("T7")
    t7_patterns_examined.main(t3, t4, t5, t6)
    stamp("T8")
    t8 = t8_shapley.main(spark, fast)
    stamp("T9")
    t9_distributions.main(t8)
    stamp("T10")
    t10_case_study.main(spark, fast)
    stamp("T11")
    t11_result_sizes.main(t3, t4, t5, t6)
    stamp("done")


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout)
