"""The inline backend: every job runs in the calling process.

No subprocesses, no timeouts — identical bookkeeping to the parallel
backends, which is why the plain serial ``python -m repro summary`` path
(which routes through here with ``workers=0``) agrees with them by
construction.  A failed job is retried on the spot, after the shared
key-derived backoff.
"""

from __future__ import annotations

import time
import traceback

from repro.harness.backends.base import (
    ExecutionBackend,
    RunState,
    retry_backoff_delay,
)
from repro.harness.jobs import JobSpec, execute_job
from repro.harness.manifest import STATUS_COMPUTED, STATUS_FAILED


class InlineBackend(ExecutionBackend):
    """Run jobs one at a time, in-process, in queue order."""

    def execute(self, state: RunState) -> None:
        for spec in state.pending:
            self._run(state, spec)

    def _run(self, state: RunState, spec: JobSpec) -> None:
        key = state.keys[spec]
        attempts = self.config.retries + 1
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                time.sleep(retry_backoff_delay(spec, attempt - 1,
                                               self.config.retry_backoff))
            start = time.monotonic()
            try:
                rows = execute_job(spec)
            except Exception:
                error = traceback.format_exc()
                continue
            elapsed = time.monotonic() - start
            if state.store is not None:
                state.store.put(key, spec, rows, elapsed)
            state.results[spec] = rows
            state.records[spec] = state.record(
                spec, key, STATUS_COMPUTED, wall_time=elapsed,
                attempts=attempt)
            return
        state.records[spec] = state.record(
            spec, key, STATUS_FAILED, wall_time=time.monotonic() - start,
            attempts=attempts, error=error)
