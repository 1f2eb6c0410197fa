"""Benchmark configuration.

Every paper table/figure has one benchmark here; each runs its experiment
harness at ``BENCH_SCALE`` (a reduced workload size so the whole suite
finishes in minutes) and attaches the rendered paper-style table to the
benchmark's ``extra_info``.  Regenerate any artefact at full size with
``python -m repro <name> --scale 1.0``.
"""

import pytest

from repro.workloads import get_workload

BENCH_SCALE = 0.05
TIMING_SCALE = 0.02   # the cycle-level figures are ~50x more expensive
SUBSET_INT = ["go", "com", "li", "per"]
SUBSET_FP = ["swm", "mgd", "aps", "fp*"]
SUBSET = SUBSET_INT + SUBSET_FP


@pytest.fixture(scope="session")
def li_trace_bench():
    """A materialized trace for the component micro-benchmarks."""
    return list(get_workload("li").trace(scale=1.0, max_instructions=20_000))
