"""Shared fixtures: paper datasets at test scale (session-scoped — each
generator attaches a Spark DataFrame) and the Figure-1 running example."""
from __future__ import annotations

import pytest

from repro.datasets import (
    compas,
    german_credit,
    paper_example,
    student,
)


@pytest.fixture(scope="session")
def paper_ds():
    """Figure-1 running example, driver-only (no Spark needed)."""
    return paper_example()


@pytest.fixture(scope="session")
def paper_ds_spark(spark):
    """Figure-1 running example with the Spark mirror attached (the sweep
    tests build their stores from it)."""
    return paper_example(spark)


@pytest.fixture(scope="session")
def student_ds(spark):
    """Synthetic Student dataset at full paper size (395 rows)."""
    return student(spark, n=395, seed=42)


@pytest.fixture(scope="session")
def compas_ds(spark):
    """Synthetic COMPAS dataset at reduced test scale (2,000 rows);
    the jobs use the full 6,889."""
    return compas(spark, n=2000, seed=7)


@pytest.fixture(scope="session")
def compas_full(spark):
    """Synthetic COMPAS dataset at full paper size (6,889 rows)."""
    return compas(spark, n=6889, seed=7)


@pytest.fixture(scope="session")
def german_ds(spark):
    """Synthetic German Credit dataset at full paper size (1,000 rows)."""
    return german_credit(spark, n=1000, seed=11)
