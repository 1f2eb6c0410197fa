"""The scheduler: a thin orchestrator over execution backends.

The scheduler owns everything that must be identical no matter where
jobs execute — deduplication, store-key computation, cache lookups,
manifest records and aggregation bookkeeping — and delegates the actual
running to an :mod:`execution backend <repro.harness.backends>`:
``inline`` in this process (``workers=0``), or queue workers on a queue
the run owns (``fork``, the default otherwise) or on a persistent one
that workers on other hosts can join (``worker``).  Because rows always
travel through the same store serialization and are recomposed in the
same paper order, all backends produce byte-identical reports for the
same grid.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

from repro.harness.backends import (
    BACKEND_NAMES,
    BackendConfig,
    RunState,
    make_backend,
)
from repro.harness.jobs import JobSpec
from repro.harness.manifest import (
    STATUS_HIT,
    JobRecord,
    ProgressFn,
    RunManifest,
)
from repro.harness.store import ResultStore, code_fingerprint


class HarnessError(RuntimeError):
    """Raised when a sweep finishes with failed cells and the caller
    asked for all-or-nothing results."""


class Scheduler:
    """Fan a job list out over an execution backend, through the store."""

    #: seconds a terminated worker gets to exit before SIGKILL
    DEFAULT_TERM_GRACE = 5.0
    #: base retry delay (seconds); attempt N waits ~ backoff * 2**(N-1)
    DEFAULT_RETRY_BACKOFF = 0.1

    def __init__(self, workers: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 progress: Optional[ProgressFn] = None,
                 term_grace: float = DEFAULT_TERM_GRACE,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 backend: Optional[str] = None,
                 queue_dir: Optional[os.PathLike] = None,
                 lease_ttl: Optional[float] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if term_grace < 0:
            raise ValueError("term_grace must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if backend is not None and backend not in BACKEND_NAMES:
            raise ValueError(f"unknown execution backend {backend!r}; "
                             f"known: {', '.join(BACKEND_NAMES)}")
        if backend == "fork" and workers == 0:
            raise ValueError("the fork backend needs workers >= 1: "
                             "nothing else can reach the queue it owns")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.term_grace = term_grace
        self.retry_backoff = retry_backoff
        #: chosen lazily from ``workers`` unless pinned explicitly
        self.backend_name = backend or ("inline" if workers == 0
                                        else "fork")
        self.queue_dir = queue_dir
        self.lease_ttl = lease_ttl

    # -- public API ------------------------------------------------------

    def run(self, jobs: List[JobSpec], store: Optional[ResultStore] = None,
            use_cache: bool = True) -> "SchedulerRun":
        """Execute ``jobs``; returns rows per job plus the manifest."""
        started = time.monotonic()
        manifest = RunManifest(workers=self.workers,
                               fingerprint=code_fingerprint(),
                               backend=self.backend_name)
        unique: List[JobSpec] = []
        seen = set()
        for spec in jobs:
            if spec not in seen:
                seen.add(spec)
                unique.append(spec)

        keys = {spec: (store.key_for(spec) if store
                       else ResultStore().key_for(spec)) for spec in unique}
        results: Dict[JobSpec, list] = {}
        records: Dict[JobSpec, JobRecord] = {}

        pending: List[JobSpec] = []
        for spec in unique:
            cached = store.get(keys[spec]) if (store and use_cache) else None
            if cached is not None:
                results[spec] = cached
                records[spec] = self._record(spec, keys[spec], STATUS_HIT)
            else:
                pending.append(spec)

        if pending:
            backend = make_backend(
                self.backend_name,
                BackendConfig(workers=self.workers, timeout=self.timeout,
                              retries=self.retries,
                              term_grace=self.term_grace,
                              retry_backoff=self.retry_backoff),
                queue_dir=self.queue_dir, lease_ttl=self.lease_ttl)
            backend.execute(RunState(pending=pending, keys=keys,
                                     store=store, results=results,
                                     records=records, record=self._record))

        manifest.jobs = [records[spec] for spec in unique]
        manifest.wall_time = time.monotonic() - started
        return SchedulerRun(results=results, manifest=manifest)

    # -- record helpers --------------------------------------------------

    def _record(self, spec: JobSpec, key: str, status: str,
                wall_time: float = 0.0, worker: Optional[str] = None,
                attempts: int = 1, error: Optional[str] = None) -> JobRecord:
        record = JobRecord(
            artefact=spec.artefact, workload=spec.workload, scale=spec.scale,
            params={k: list(v) if isinstance(v, tuple) else v
                    for k, v in spec.params},
            key=key, status=status, wall_time=round(wall_time, 4),
            worker=worker, attempts=attempts, error=error)
        if self.progress is not None:
            self.progress(record)
        return record


class SchedulerRun:
    """The outcome of one :meth:`Scheduler.run` call."""

    def __init__(self, results: Dict[JobSpec, list],
                 manifest: RunManifest) -> None:
        self.results = results
        self.manifest = manifest

    def rows_for_jobs(self, jobs: List[JobSpec],
                      allow_failures: bool = False) -> list:
        """Concatenate per-job rows in the given (paper) order."""
        missing = [spec for spec in jobs if spec not in self.results]
        if missing and not allow_failures:
            labels = ", ".join(spec.label for spec in missing)
            raise HarnessError(f"jobs failed: {labels}")
        rows: list = []
        for spec in jobs:
            rows.extend(self.results.get(spec, []))
        return rows
