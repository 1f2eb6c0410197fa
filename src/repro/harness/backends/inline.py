"""The inline execution path: every job runs in the calling process.

No subprocesses, no timeouts — identical bookkeeping to the queue path,
which is why the plain serial ``python -m repro summary`` path (which
routes through here with ``workers=0``) agrees with it by construction.

Cells whose module observes a trace (``observe``; the accuracy
artefacts) are grouped by (workload, scale), and each group of two or
more is computed from one trace pass, which drives one instance of each
model and configuration its cells read.  Every cell still gets its own
store object under its own key.  If the shared pass raises, its cells
run one at a time like every other cell: a failed job is retried on the
spot, after the key-derived backoff, so only the faulty cell fails.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Optional

from repro.harness.jobs import (
    JobPolicy,
    JobSpec,
    SettleFn,
    execute_job,
    execute_shared,
    job_observer,
    retry_backoff_delay,
)
from repro.harness.store import ResultStore


def run_inline(jobs: Dict[JobSpec, str], store: Optional[ResultStore],
               policy: JobPolicy, settle: SettleFn) -> None:
    """Run ``jobs`` in-process, one pass at a time in order of first
    appearance, settling each job as it finishes."""
    for group in _passes(jobs):
        if len(group) > 1 and _run_shared(group, jobs, store, settle):
            continue
        for spec in group:
            _run_alone(spec, jobs[spec], store, policy, settle)


def _passes(jobs: Dict[JobSpec, str]) -> List[List[JobSpec]]:
    """One group per (workload, scale) of the cells that can share a
    trace pass, and one per other cell."""
    groups: Dict[object, List[JobSpec]] = {}
    for spec in jobs:
        try:
            shares = job_observer(spec) is not None
        except Exception:
            shares = False  # its own attempts report the error
        key = (spec.workload, spec.scale) if shares else spec
        groups.setdefault(key, []).append(spec)
    return list(groups.values())


def _run_shared(group: List[JobSpec], jobs: Dict[JobSpec, str],
                store: Optional[ResultStore], settle: SettleFn) -> bool:
    """Compute ``group`` from one trace pass; False if the pass raised.

    Every cell records the whole pass's wall time.
    """
    start = time.monotonic()
    try:
        results = execute_shared(group)
    except Exception:
        return False
    elapsed = time.monotonic() - start
    for spec, rows in zip(group, results):
        if store is not None:
            store.put(jobs[spec], spec, rows, elapsed)
        settle(spec, rows, elapsed, attempts=1)
    return True


def _run_alone(spec: JobSpec, key: str, store: Optional[ResultStore],
               policy: JobPolicy, settle: SettleFn) -> None:
    for attempt in range(1, policy.attempts + 1):
        if attempt > 1:
            time.sleep(retry_backoff_delay(spec, attempt - 1,
                                           policy.retry_backoff))
        start = time.monotonic()
        try:
            rows = execute_job(spec)
        except Exception:
            error = traceback.format_exc()
            continue
        elapsed = time.monotonic() - start
        if store is not None:
            store.put(key, spec, rows, elapsed)
        settle(spec, rows, elapsed, attempts=attempt)
        return
    settle(spec, None, time.monotonic() - start,
           attempts=policy.attempts, error=error)
