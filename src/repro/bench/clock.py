"""The benchmark's clock reads.

Every duration the benchmark reports is host time, a wall-clock quantity
by definition, so the package is allowed what the experiment modules are
not (staticcheck DT301) — but through exactly these two call sites, so
the exemption stays auditable.  Nothing read here ever reaches a
simulated result: the bench only compares outputs against recorded
digests and ground truth.
"""

from __future__ import annotations

import time


def now() -> float:
    """Seconds on a monotonic, high-resolution clock."""
    # staticcheck: ignore[DT301] benchmark timing: host seconds are the
    # measurement itself and never feed rows, digests or cache keys
    return time.perf_counter()


def cpu_now() -> float:
    """CPU seconds this process has used (user + system)."""
    return time.process_time()
