import os
import sys

from perfbench.workloads import driver_memory

# Heap for the Spark driver JVM: ``SPARK_DRIVER_MEM`` if set, else the
# benchmark's rule (half the machine's memory, clamped to 2–8 GiB).
# spark.driver.memory is read at JVM launch, not from SparkConf, so it must
# be in PYSPARK_SUBMIT_ARGS before pyspark is imported anywhere — this runs
# at conftest import, which pytest loads before any test module.
os.environ.setdefault("SPARK_DRIVER_MEM", driver_memory())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow) are set here.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    # One line in the test log recording the Spark set-up.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
