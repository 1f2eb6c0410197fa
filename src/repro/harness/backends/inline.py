"""The inline backend: every job runs in the calling process.

No subprocesses, no timeouts — identical bookkeeping to the parallel
backends, which is why the plain serial ``python -m repro summary`` path
(which routes through here with ``workers=0``) agrees with them by
construction.
"""

from __future__ import annotations

import time
import traceback

from repro.harness.backends.base import ExecutionBackend, RunState
from repro.harness.jobs import execute_job
from repro.harness.manifest import STATUS_COMPUTED


class InlineBackend(ExecutionBackend):
    """Run jobs one at a time, in-process, in queue order."""

    name = "inline"

    def execute(self, state: RunState) -> None:
        pending = state.pending
        while pending:
            spec, attempts, not_before = pending.popleft()
            delay = not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            key = state.keys[spec]
            start = time.monotonic()
            try:
                rows = execute_job(spec)
            except Exception:
                self.fail(state, spec, key, attempts,
                          traceback.format_exc(), time.monotonic() - start)
                continue
            elapsed = time.monotonic() - start
            if state.store is not None:
                state.store.put(key, spec, rows, elapsed)
            state.results[spec] = rows
            state.records[spec] = state.record(
                spec, key, STATUS_COMPUTED, wall_time=elapsed,
                attempts=attempts)
