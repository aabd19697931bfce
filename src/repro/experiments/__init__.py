"""Experiment harness: parameter sweeps with deadlines, patterns-examined
accounting and markdown tables for EXPERIMENTS.md."""

from repro.experiments.runner import RunOutcome, run_algorithm  # noqa: F401
from repro.experiments.sweeps import (  # noqa: F401
    DEFAULTS,
    result_size_census,
    sweep,
)
from repro.experiments.tables import format_rows  # noqa: F401
