"""The inline execution path: every job runs in the calling process.

No subprocesses, no timeouts — identical bookkeeping to the queue path,
which is why the plain serial ``python -m repro summary`` path (which
routes through here with ``workers=0``) agrees with it by construction.
A failed job is retried on the spot, after the key-derived backoff.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, Optional

from repro.harness.jobs import (
    JobPolicy,
    JobSpec,
    SettleFn,
    execute_job,
    retry_backoff_delay,
)
from repro.harness.store import ResultStore


def run_inline(jobs: Dict[JobSpec, str], store: Optional[ResultStore],
               policy: JobPolicy, settle: SettleFn) -> None:
    """Run ``jobs`` one at a time, in-process, in order, settling each
    as it finishes."""
    for spec, key in jobs.items():
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
            break
        else:
            settle(spec, None, time.monotonic() - start,
                   attempts=policy.attempts, error=error)
