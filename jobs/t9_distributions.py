"""T9 (paper Fig. 10d–f): value distribution of the attribute with the
largest aggregated Shapley value — top-k tuples vs the detected group —
plus the total-variation distance between the two distributions.

Fig. 10a–c and 10d–f are two views of one Shapley analysis, so the table
is read off the analyses T8 returns; it runs no analysis of its own.

Usage: spark-submit jobs/t9_distributions.py [--fast]
(runs T8 first)
"""
from __future__ import annotations

import t8_shapley
from _common import emit, get_spark, parse_args


def main(t8: dict) -> dict:
    """Prints from the output of the T8 job (dataset → ShapleyAnalysis)
    and returns it."""
    for name, a in t8.items():
        attr = a.top6[0][0]
        lines = [
            f"group: {a.group_str}; attribute with largest Shapley: {attr}",
            "",
            "| value | top-k fraction | group fraction |",
            "|---|---|---|",
        ]
        for r in a.distributions.itertuples():
            lines.append(f"| {r.value} | {r.topk_frac:.3f} | {r.group_frac:.3f} |")
        lines.append("")
        lines.append(f"total-variation distance: {a.tv_distance:.3f}")
        emit(f"T9 distributions — {name}", "\n".join(lines))
    return t8


if __name__ == "__main__":
    args = parse_args(__doc__, timeout=False)
    main(t8_shapley.main(get_spark("t9_distributions"), args.fast))
