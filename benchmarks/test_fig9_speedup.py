"""Benchmark: regenerate Figure 9 (speedup with naive memory dependence
speculation) on a representative subset of the suite.

The full-suite, full-size version is ``python -m repro fig9``.
"""

from benchmarks.conftest import SUBSET, TIMING_SCALE
from repro.experiments import fig9
from repro.util.stats import harmonic_mean_speedup


def test_fig9_speedup(benchmark):
    rows = benchmark.pedantic(
        lambda: fig9.run(scale=TIMING_SCALE, workloads=SUBSET),
        rounds=1, iterations=1)
    assert len(rows) == len(SUBSET)
    benchmark.extra_info["table"] = fig9.render(rows)

    # shape (i): selective invalidation beats squash invalidation overall
    selective = harmonic_mean_speedup(
        [r.speedups["selective/RAW+RAR"] for r in rows])
    squash = harmonic_mean_speedup(
        [r.speedups["squash/RAW+RAR"] for r in rows])
    assert selective > squash

    # shape (ii): with selective recovery the mechanism does not lose
    # performance in aggregate
    assert selective > 0.995
