"""T3 (paper Fig. 6): runtime vs size threshold τ_s, global bounds.

Attribute counts are capped at ``DEFAULTS.n_attrs`` (the paper likewise
capped them at what the baseline could handle within its timeout).

Usage: spark-submit jobs/t3_tau_global.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import figure_job, parse_args

TAUS = dict.fromkeys(("student", "compas", "german"), [10, 25, 50, 75, 100])
FAST_TAUS = [20, 50]


def main(spark=None, fast: bool = False, timeout: float = 120.0, problem: str = "global") -> dict:
    return figure_job(
        spark, fast, timeout, problem, "tau", f"{problem} bounds, τ_s sweep",
        TAUS, FAST_TAUS,
    )


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout, problem="global")
