"""T2 (paper Fig. 5): runtime vs number of attributes, proportional
representation.

Usage: spark-submit jobs/t2_attrs_prop.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import parse_args
from t1_attrs_global import main as _main


def main(spark=None, fast: bool = False, timeout: float = 120.0) -> dict:
    return _main(spark, fast, timeout, problem="prop")


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout)
