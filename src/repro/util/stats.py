"""Small statistics helpers used throughout the evaluation harness."""

from __future__ import annotations

from typing import Sequence


def harmonic_mean_speedup(speedups: Sequence[float]) -> float:
    """Harmonic mean of per-program speedups (the paper's "HM" summary).

    Speedups are expressed as ratios (1.05 = 5% faster).  The harmonic mean
    weights each program by its base execution time, the convention the
    paper's Figure 9 summary uses.
    """
    if not speedups:
        raise ValueError("harmonic_mean_speedup of empty sequence")
    if any(s <= 0 for s in speedups):
        raise ValueError("speedups must be positive ratios")
    return len(speedups) / sum(1.0 / s for s in speedups)
