"""T11 (paper §III in-text): fraction of result sets with fewer than 100
reported groups — the paper observed 97.58% across its runs. We census
every (run, k) result set of the τ_s and k-range sweeps (T3–T6) at default
parameters, read off their rows.

Usage: spark-submit jobs/t11_result_sizes.py [--fast] [--timeout S]
(runs T3–T6 first)
"""
from __future__ import annotations

import t3_tau_global
import t4_tau_prop
import t5_krange_global
import t6_krange_prop
from _common import emit, get_spark, parse_args
from repro.experiments import result_size_census


def main(t3: dict, t4: dict, t5: dict, t6: dict) -> dict:
    """Census over the outputs of the T3–T6 jobs (dataset → sweep rows)."""
    census = result_size_census([
        row for out in (t3, t4, t5, t6) for rows in out.values() for row in rows
    ])
    emit(
        "T11 result-set sizes",
        f"result sets: {census['result_sets']}; "
        f"with < 100 groups: {census['below_threshold']} "
        f"({100 * census['fraction']:.2f}%; paper: 97.58%)",
    )
    return census


if __name__ == "__main__":
    args = parse_args(__doc__)
    run = (get_spark("t11_result_sizes"), args.fast, args.timeout)
    main(
        t3_tau_global.main(*run), t4_tau_prop.main(*run),
        t5_krange_global.main(*run), t6_krange_prop.main(*run),
    )
