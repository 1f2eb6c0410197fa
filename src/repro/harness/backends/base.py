"""The execution-backend contract shared by inline, fork and worker.

A backend is handed the cache-miss jobs of one scheduler run (the
:class:`RunState`) and must resolve every one of them: either a row list
lands in ``state.results`` plus a ``computed`` record, or a ``failed``
record explains why.  *Where* the job executes — the calling process, a
forked child, a leased queue worker on another host — is the backend's
business; the job decomposition, the store key and the aggregation order
are fixed by the scheduler, which is why every backend produces
byte-identical reports for the same grid.

Retry pacing lives here too: :func:`retry_backoff_delay` derives the
jitter from the *job's own identity* (artefact, workload, scale, params),
not from any worker-local state, so the retry schedule of a given cell is
reproducible across backends, processes and hosts.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.harness.jobs import JobSpec
from repro.harness.manifest import STATUS_FAILED, JobRecord
from repro.harness.store import ResultStore
from repro.util.hashing import stable_hash

#: one pending entry: (spec, attempt number, earliest start time on the
#: ``time.monotonic`` clock; pending entries never leave this process)
PendingEntry = Tuple[JobSpec, int, float]

#: signature of the scheduler's record factory (spec, key, status, ...)
RecordFn = Callable[..., JobRecord]


def retry_backoff_delay(spec: JobSpec, attempts: int, base: float) -> float:
    """Delay before retry ``attempts + 1`` of ``spec``.

    Exponential in the attempt count with deterministic jitter hashed
    from the job's serialized identity — *all* of it, params included, so
    two cells differing only in params do not retry in lockstep, and the
    same cell backs off identically no matter which backend, process or
    host is retrying it.
    """
    if base <= 0:
        return 0.0
    scale = base * (2 ** (attempts - 1))
    frac = int(stable_hash((spec.to_json(), attempts), length=8), 16)
    return scale * (0.5 + 0.5 * frac / 0xFFFFFFFF)


@dataclass(frozen=True)
class BackendConfig:
    """The execution policy a backend must honour."""

    workers: int = 1
    timeout: Optional[float] = None
    retries: int = 1
    term_grace: float = 5.0
    retry_backoff: float = 0.1


@dataclass
class RunState:
    """The mutable bookkeeping of one scheduler run.

    Backends drain ``pending`` and fill ``results``/``records``; the
    ``record`` factory (owned by the scheduler) builds manifest entries
    and fires the progress callback.
    """

    pending: Deque[PendingEntry]
    keys: Dict[JobSpec, str]
    store: Optional[ResultStore]
    results: Dict[JobSpec, list]
    records: Dict[JobSpec, JobRecord]
    record: RecordFn


class ExecutionBackend(ABC):
    """Resolve every pending job of a run, somewhere."""

    #: registry name (``--exec-backend`` value); subclasses override
    name = "abstract"

    def __init__(self, config: BackendConfig) -> None:
        self.config = config

    @abstractmethod
    def execute(self, state: RunState) -> None:
        """Drain ``state.pending``, filling results and records."""

    # -- shared failure/retry policy ------------------------------------

    def fail(self, state: RunState, spec: JobSpec, key: str, attempts: int,
             error: str, wall_time: float, worker=None) -> None:
        """Requeue a failed attempt, or record it as terminally failed."""
        if attempts <= self.config.retries:
            not_before = time.monotonic() + retry_backoff_delay(
                spec, attempts, self.config.retry_backoff)
            state.pending.append((spec, attempts + 1, not_before))
            return
        state.records[spec] = state.record(
            spec, key, STATUS_FAILED, wall_time=wall_time, worker=worker,
            attempts=attempts, error=error)
