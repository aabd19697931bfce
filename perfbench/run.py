"""Detection benchmark: one workload, one process, a pinned ``local[4]``
Spark master.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--data-seed N]

Run from the repository root. A run sets up (session start, dataset
generation with its Spark ranking, input build), runs an untimed warm-up
detection and sets up four more times in the same session; ``setup_s`` is
the median of the five set-ups. It then measures detections while the next one is expected
to end within ``--seconds`` (at least three). Last, it checks every
detection's result sets against a reference computed outside the timed
region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced detection and reports the per-layer metrics of the
traced ones, the tracing overhead among them; it writes the span totals
and the per-k trace to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every detection finished within its deadline and matched the
reference. See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spans import Tracer, layer_metrics, traced  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    build_input,
    detect,
    pin_environment,
    reference,
    start_session,
    stop_spark,
)

#: Set-ups per run, the first before the warm-up; ``setup_s`` is their
#: median.
SETUPS = 5
#: Untimed detections before the measured ones: the first detection in a
#: fresh JVM runs up to 2x slower, while JIT compilation catches up.
WARM_UPS = 1
#: Measured detections per untraced run, at the least.
MIN_MEASURED = 3
#: Wall-clock budget of one detection, store construction included.
DEADLINE_S = 120.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="order of the input rows")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int, default=None,
                    help="dataset generator seed (default: the workload's)")
    return ap.parse_args(argv)


def set_up(w, data_seed: int, seed: int):
    """One set-up: start a session, or get the running one, and build the
    inputs. Returns ``(spark, program view, benchmark view, (session
    seconds, dataset seconds))``."""
    t0 = time.perf_counter()
    spark = start_session()
    t1 = time.perf_counter()
    program_view, bench_view = build_input(spark, w, data_seed, seed)
    t2 = time.perf_counter()
    return spark, program_view, bench_view, (t1 - t0, t2 - t1)


def warm_up_and_set_up(w, data_seed: int, seed: int):
    """The first set-up, which launches the JVM and starts the session,
    then ``WARM_UPS`` warm-up detections, then ``SETUPS - 1`` more set-ups
    in the same session; the inputs of the last are kept. The later
    set-ups are not slowed by the JIT compilation of a fresh JVM, and the
    measured detections run in the session the warm-up ran in."""
    spark, program_view, view, first = set_up(w, data_seed, seed)
    warm_ups = [
        detect(spark, view, w, DEADLINE_S, f"perfbench-warm-up-{i}")
        for i in range(WARM_UPS)
    ]
    setups = [first]
    for _ in range(SETUPS - 1):
        spark, program_view, view, sample = set_up(w, data_seed, seed)
        setups.append(sample)
    return spark, program_view, view, setups, warm_ups


def run_detections(spark, view, w, seconds: float, step: float, tracer):
    """Detections while the next is expected to end within ``seconds``, at
    least ``MIN_MEASURED``, or with a tracer, at least two pairs of an
    untraced and a traced one; ``step`` is the expected length of the
    first. Returns ``(untraced, traced, per-layer figures of each traced
    detection)``."""
    untraced, traced_runs, layers = [], [], []
    minimum = 2 if tracer is not None else MIN_MEASURED
    end = time.monotonic() + seconds
    while len(untraced) < minimum or time.monotonic() + step <= end:
        start = time.monotonic()
        group = f"perfbench-{len(untraced)}"
        # Pairs alternate which half runs first: detections still speed up
        # as the JVM warms, which would otherwise bias the overhead.
        order = (False, True) if len(untraced) % 2 == 0 else (True, False)
        for with_spans in order if tracer is not None else (False,):
            if not with_spans:
                untraced.append(detect(spark, view, w, DEADLINE_S, group))
                continue
            tracer.begin(w.algorithm, w.tau, w.k_min)
            with traced(tracer):
                d = detect(spark, view, w, DEADLINE_S, f"{group}-traced")
            traced_runs.append(d)
            layers.append(layer_metrics(tracer, d))
        step = time.monotonic() - start
    return untraced, traced_runs, layers


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    w = WORKLOADS[args.workload]
    data_seed = w.data_seed if args.data_seed is None else args.data_seed
    workdir = ROOT / ".perfbench"
    env = pin_environment(workdir)

    import pyspark

    env.update(
        python=platform.python_version(),
        pyspark=pyspark.__version__,
        nproc=str(len(os.sched_getaffinity(0))),
    )
    print(f"perfbench workload={w.name} seed={args.seed} "
          f"data_seed={data_seed} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    tracer = Tracer() if args.trace else None
    try:
        spark, program_view, bench_view, setups, warm_ups = warm_up_and_set_up(
            w, data_seed, args.seed
        )
        untraced, traced_runs, layers = run_detections(
            spark, bench_view, w, args.seconds, warm_ups[-1].seconds, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref_start = time.perf_counter()
        expected = reference(program_view, w)
        ref_s = time.perf_counter() - ref_start
    finally:
        stop_spark()

    detections = warm_ups + untraced + traced_runs
    correct = True
    failed = 0
    for d in detections:
        if d.error is None and d.res != expected:
            d.error = "result sets differ from the reference"
            correct = False
        if d.error is None and d.examined != warm_ups[0].examined:
            d.error = "patterns examined differ from the first detection's"
            correct = False
        if d.error is not None:
            failed += 1
            print(f"FAILED detection: {d.error}", file=sys.stderr)

    ok = [d.seconds for d in untraced if d.error is None]
    setup_total = [sum(s) for s in setups]
    print("setups_s     " + " ".join(f"{t:.3f}" for t in setup_total))
    print("warm_ups_s   " + " ".join(f"{d.seconds:.3f}" for d in warm_ups))
    print("detections_s " + " ".join(f"{d.seconds:.3f}" for d in untraced))
    print(f"detect_s     {median(ok):.4f} s  (median of {len(ok)} detections)")
    print(f"setup_s      {median(setup_total):.4f} s  (median of {len(setups)} set-ups; "
          f"first {setup_total[0]:.4f} s)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"reference    {ref_s:.4f} s  ({w.reference} over PandasStatsStore)")
    print(f"failed_frac  {failed / len(detections):.4f}  "
          f"({failed} of {len(detections)})")

    if tracer is None:
        metrics = {
            "detect_s": (median(ok), "s"),
            "setup_s": (median(setup_total), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {
            name: (median([m[name][0] for m in layers]), layers[0][name][1])
            for name in layers[0]
        }
        metrics["setup.session_s"] = (setups[0][0], "s")
        metrics["setup.dataset_s"] = (median([s[1] for s in setups]), "s")
        metrics["setup.cold_s"] = (setup_total[0], "s")
        metrics["setup.warm_up_s"] = (sum(d.seconds for d in warm_ups), "s")
        traced_s = median([d.seconds for d in traced_runs if d.error is None])
        metrics["trace.detect_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - median(ok), "s")
        path = workdir / f"trace-{w.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": w.name,
            "seed": args.seed,
            "data_seed": data_seed,
            "env": env,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "span_totals": tracer.summary(),
            "per_k": {str(k): v for k, v in sorted(tracer.per_k.items())},
        }, indent=1))
        for name, (value, unit) in metrics.items():
            print(f"{name:24s} {value:.6g} {unit}")
        print(f"trace written to {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": len(detections),
        "failed": failed,
        "metrics": {
            k: {"value": None if v != v else v, "unit": u}  # NaN: no sample
            for k, (v, u) in metrics.items()
        },
    }), flush=True)
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
