"""Markdown table rendering for sweep outputs (jobs print these; the
numbers are pasted into EXPERIMENTS.md next to the paper's values)."""
from __future__ import annotations

from repro.experiments.runner import RunOutcome
from repro.experiments.sweeps import examined_gain


def _fmt(out: RunOutcome) -> tuple[str, str, str]:
    if out.timed_out:
        return "TO", "TO", "TO"
    examined = out.result.stats.examined
    return f"{out.time_s:.2f}", f"{out.search_s:.3f}", str(examined)


#: Search times below this are not divided: two identical runs whose
#: searches took 1–10 ms printed speedups of 0.72x and 1.45x.
SPEEDUP_RESOLUTION_S = 0.1


def format_rows(rows: list[dict], x_key: str) -> str:
    """One markdown table per sweep.

    "search s" excludes the shared counting substrate (store construction:
    the collected rows and their value bitmaps, ``agg_s``) — it is the
    algorithmic cost the paper's figures compare; "total s" is end to end.
    The search-time speedup and the patterns-examined gain are the
    reproduction targets. The speedup reads ``-`` when either search took
    less than ``SPEEDUP_RESOLUTION_S`` (0.1 s): a ratio of shorter times is
    timer and scheduling noise. The examined gain is a count and has no
    such floor.
    """
    header = (
        f"| {x_key} | baseline total s | optimized total s | "
        "baseline search s | optimized search s | search speedup | "
        "baseline examined | optimized examined | examined gain |\n"
        "|---|---|---|---|---|---|---|---|---|"
    )
    lines = [header]
    for row in rows:
        base, opt = row["baseline"], row["optimized"]
        btot, bs, be = _fmt(base)
        otot, os_, oe = _fmt(opt)
        if base.timed_out or opt.timed_out:
            speedup, gain = "-", "-"
        else:
            speedup = (
                f"{base.search_s / opt.search_s:.2f}x"
                if min(base.search_s, opt.search_s) >= SPEEDUP_RESOLUTION_S
                else "-"
            )
            g = examined_gain(row)
            gain = f"{100 * g:.2f}%" if g is not None else "-"
        lines.append(
            f"| {row[x_key]} | {btot} | {otot} | {bs} | {os_} | {speedup} | "
            f"{be} | {oe} | {gain} |"
        )
    return "\n".join(lines)
