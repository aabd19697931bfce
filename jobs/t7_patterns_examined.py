"""T7 (paper §VI-B in-text): patterns-examined gain of the optimized
algorithms over ITERTD, per dataset and problem.

Paper values — global: COMPAS 39.35%, Student 56.87%, German 29.27%;
proportional: 39.60%, 20.49%, 56.83%. The paper computed the gain over its
widest k-range sweep; we report both the default range [10,49] and the wide
range of T5/T6.

Both ranges are points the figure sweeps already run, so the table is read
off their rows: the default range is the T3/T4 row at the default τ_s, the
wide range the last T5/T6 row.

Usage: spark-submit jobs/t7_patterns_examined.py [--fast] [--timeout S]
(runs T3–T6 first)
"""
from __future__ import annotations

import t3_tau_global
import t4_tau_prop
import t5_krange_global
import t6_krange_prop
from _common import emit, get_spark, parse_args
from repro.experiments import DEFAULTS
from repro.experiments.sweeps import examined_gain


def main(t3: dict, t4: dict, t5: dict, t6: dict) -> dict:
    """Gains from the outputs of the T3–T6 jobs (dataset → sweep rows);
    returns ``{(dataset, problem, k_max): gain or None}``."""
    out = {}
    lines = [
        "| dataset | problem | k range | baseline examined | "
        "optimized examined | gain | paper gain |",
        "|---|---|---|---|---|---|---|",
    ]
    paper = {
        ("compas", "global"): "39.35%", ("student", "global"): "56.87%",
        ("german", "global"): "29.27%", ("compas", "prop"): "39.60%",
        ("student", "prop"): "20.49%", ("german", "prop"): "56.83%",
    }
    for name in t3:
        for problem, tau_rows, krange_rows in (
            ("global", t3[name], t5[name]),
            ("prop", t4[name], t6[name]),
        ):
            default = next(r for r in tau_rows if r["tau"] == DEFAULTS.tau)
            wide = krange_rows[-1]
            for k_max, row in ((DEFAULTS.k_max, default), (wide["k_max"], wide)):
                gain = examined_gain(row)
                out[(name, problem, k_max)] = gain
                base, opt = (
                    "TO" if run.timed_out else run.result.stats.examined
                    for run in (row["baseline"], row["optimized"])
                )
                gain_s = f"{100 * gain:.2f}%" if gain is not None else "TO"
                lines.append(
                    f"| {name} | {problem} | [10,{k_max}] | "
                    f"{base} | {opt} | {gain_s} | "
                    f"{paper[(name, problem)]} |"
                )
    emit("T7 patterns-examined gains", "\n".join(lines))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__)
    run = (get_spark("t7_gains"), args.fast, args.timeout)
    main(
        t3_tau_global.main(*run), t4_tau_prop.main(*run),
        t5_krange_global.main(*run), t6_krange_prop.main(*run),
    )
