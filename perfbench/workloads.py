"""Workloads of the detection benchmark and the steps of one run: pinning
the Spark environment, building the ranked input, one detection and its
reference result.

A workload fixes a dataset (generator and dataset seed), the attribute
count, the problem and algorithm, ``τ_s`` and the k range. The benchmark
seed fixes the order of the ranked table's rows as the store receives
them; the ranking, and so every result set, is the same for every seed.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

MASTER = "local[4]"
#: As in ``jobs/_common.get_spark``.
SHUFFLE_PARTITIONS = "64"
ALPHA = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # generator in ``repro.datasets``
    score_col: str  # the column the generator ranks by
    data_seed: int
    n_attrs: int
    problem: str  # "global" (paper-default bounds) or "prop" (α = 0.8)
    algorithm: str  # "iter_td", "global_bounds" or "prop_bounds"
    tau: int
    k_min: int
    k_max: int
    reference: str  # "brute_force" or "iter_td", over PandasStatsStore


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "german-prop-tau10",
            "german_credit", "creditworthiness", 11, 6, "prop", "prop_bounds",
            10, 10, 1000, "brute_force",
        ),
        Workload(
            "student-prop-tau10",
            "student", "G3_num", 42, 9, "prop", "prop_bounds", 10, 10, 49,
            "brute_force",
        ),
        Workload(
            "german-itertd-k1000",
            "german_credit", "creditworthiness", 11, 6, "global", "iter_td",
            50, 10, 1000, "brute_force",
        ),
        Workload(
            "compas16-global",
            "compas", "score", 7, 16, "global", "global_bounds", 50, 10, 49,
            "iter_td",
        ),
    )
}

_ALGORITHM_MODULES = {
    "iter_td": "repro.core.itertd",
    "global_bounds": "repro.core.global_bounds",
    "prop_bounds": "repro.core.prop_bounds",
    "brute_force": "repro.core.brute_force",
}


def algorithm(name: str):
    """The algorithm function, looked up at call time so that a traced run
    calls the wrapped binding."""
    return getattr(sys.modules[_ALGORITHM_MODULES[name]], name)


def spec(w: Workload):
    from repro.core.bounds import PropSpec, paper_default_global

    return paper_default_global() if w.problem == "global" else PropSpec(ALPHA)


# -- environment -----------------------------------------------------------
def driver_memory() -> str:
    """Half the machine's memory in GiB, clamped to 2..8, as the tier-1
    test command sizes it."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    gib = int(line.split()[1]) // 2097152
                    return f"{min(max(gib, 2), 8)}g"
    except (OSError, ValueError, IndexError):
        pass
    return "2g"


def pin_environment(workdir: Path) -> dict[str, str]:
    """Point every temporary file of this process and of the Spark JVM into
    ``workdir`` and fix the Spark launch arguments. Call before the first
    SparkSession of the process is created."""
    tmp = workdir / "tmp"
    local = workdir / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    tempfile.tempdir = None  # re-read TMPDIR
    # Read by every JVM started from here: spark-submit's launcher too.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    memory = driver_memory()
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", MASTER,
        "--driver-memory", memory,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "pyspark-shell",
    ])
    return {
        "master": MASTER,
        "driver_memory": memory,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
    }


def start_session():
    """A SparkSession on the master and JVM that ``pin_environment`` set."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark() -> None:
    """Stop the SparkSession, if one was created, then the JVM, and wait
    for the JVM to exit."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    if SparkSession._instantiatedSession is not None:
        SparkSession._instantiatedSession.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- inputs ------------------------------------------------------------------
def build_input(spark, w: Workload, data_seed: int, seed: int):
    """The generator's ranked dataset, restricted to the workload's
    attributes, and the benchmark's input: the same table with its rows in
    the order ``seed`` draws, ranked again by ``add_rank`` in Spark.

    Returns ``(program_view, bench_view)``; the reference runs on the first,
    the detections on the second.
    """
    import numpy as np

    import repro.datasets as datasets
    from repro.datasets.base import RankedDataset
    from repro.ranking.rankers import add_rank

    ds = getattr(datasets, w.dataset)(spark, seed=data_seed)
    view = ds.with_attrs(w.n_attrs)
    order = np.random.default_rng(seed).permutation(ds.n)
    shuffled = ds.pdf.iloc[order].reset_index(drop=True)
    df = add_rank(
        spark.createDataFrame(shuffled.drop(columns=[ds.rank_col])),
        w.score_col,
        tiebreak_cols=["id"],
        rank_col=ds.rank_col,
    )
    bench = RankedDataset(
        name=f"{view.name}[order seed {seed}]",
        pdf=shuffled,
        pattern_attrs=view.pattern_attrs,
        numeric_cols=view.numeric_cols,
        df=df,
        rank_col=ds.rank_col,
    )
    return view, bench


# -- one detection -------------------------------------------------------------
@dataclass
class Detection:
    seconds: float
    res: dict | None = None
    examined: int = -1
    spark_jobs: int = 0
    error: str | None = None


def detect(spark, view, w: Workload, deadline_s: float, group: str) -> Detection:
    """One detection, timed from ``spark_store()`` to the last k's result.

    The deadline covers the whole detection, store construction included.
    The search checks it as it runs; an overrun found afterwards is a
    failure too. The store is released after the detection.
    """
    from repro.core.result import SearchTimeout

    sc = spark.sparkContext
    sc.setJobGroup(group, w.name)
    fn = algorithm(w.algorithm)
    start = time.monotonic()
    deadline = start + deadline_s
    store = None
    try:
        store = view.spark_store()
        result = fn(store, spec(w), w.tau, w.k_min, w.k_max, deadline=deadline)
        out = Detection(time.monotonic() - start, result.res, result.stats.examined)
        if out.seconds > deadline_s:
            out.error = f"overran the {deadline_s:.0f} s deadline"
    except SearchTimeout:
        out = Detection(time.monotonic() - start)
        out.error = f"overran the {deadline_s:.0f} s deadline"
    except Exception:
        out = Detection(time.monotonic() - start)
        out.error = traceback.format_exc()
    finally:
        if store is not None:
            store.unpersist()
    out.spark_jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    return out


def reference(view, w: Workload) -> dict:
    """Result sets per k from a different algorithm or store: brute force
    (or ITERTD, where brute force is too slow) over ``PandasStatsStore``."""
    result = algorithm(w.reference)(
        view.pandas_store(), spec(w), w.tau, w.k_min, w.k_max
    )
    return result.res
