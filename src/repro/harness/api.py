"""The one function that runs a grid: ``run_artefacts``, behind the
``run`` path of ``python -m repro`` and ``python -m repro.harness`` and
behind ``report_card.run``.

It pools the jobs of *several* artefact requests into one pass — so with
``--workers 8`` the slow Figure 9 cells overlap with the cheap Table 5.1
cells instead of each artefact forming its own barrier — serves what it
can from the store, hands the cache misses to one of two execution paths
(:func:`~repro.harness.backends.inline.run_inline` in this process, or
:func:`~repro.harness.backends.worker.run_queued` on queue workers),
builds the manifest, then recomposes each request's rows in paper
workload order.  Because rows always travel through the same store
serialization and are recomposed in the same order, every execution
backend produces byte-identical reports for the same grid.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.backends import BACKEND_NAMES
from repro.harness.jobs import JobPolicy, JobSpec, expand_jobs
from repro.harness.manifest import (
    STATUS_COMPUTED,
    STATUS_FAILED,
    STATUS_HIT,
    JobRecord,
    ProgressFn,
    RunManifest,
)
from repro.harness.store import ResultStore, code_fingerprint


class HarnessError(RuntimeError):
    """Raised when a sweep finishes with failed cells and the caller
    asked for all-or-nothing results."""


@dataclass(frozen=True)
class ArtefactRequest:
    """One artefact at one scale (with optional job params)."""

    name: str
    scale: float
    params: tuple = field(default_factory=tuple)


@dataclass
class ArtefactRun:
    """Aggregated rows for one request, plus its failed cells."""

    request: ArtefactRequest
    rows: list
    failed: List[str]  # workload abbreviations that never produced rows

    @property
    def name(self) -> str:
        return self.request.name


@dataclass
class SweepOutcome:
    runs: List[ArtefactRun]
    manifest: RunManifest

    def rows(self, name: str) -> list:
        for run in self.runs:
            if run.name == name:
                return run.rows
        raise KeyError(name)


def _normalize_params(params: Optional[dict]) -> tuple:
    items = []
    for key, value in sorted((params or {}).items()):
        if isinstance(value, list):
            value = tuple(value)
        items.append((key, value))
    return tuple(items)


def run_artefacts(requests: Sequence[tuple],
                  workloads: Optional[Sequence[str]] = None, *,
                  workers: Optional[int] = 0,
                  store: Optional[ResultStore] = None,
                  use_cache: bool = True,
                  timeout: Optional[float] = JobPolicy.timeout,
                  retries: int = JobPolicy.retries,
                  term_grace: float = JobPolicy.term_grace,
                  retry_backoff: float = JobPolicy.retry_backoff,
                  allow_failures: bool = False,
                  manifest_path: Optional[os.PathLike] = None,
                  progress: Optional[ProgressFn] = None,
                  backend: Optional[str] = None,
                  queue_dir: Optional[os.PathLike] = None,
                  lease_ttl: Optional[float] = None) -> SweepOutcome:
    """Run a batch of ``(name, scale[, params])`` artefact requests.

    All requests' jobs execute in one pooled pass, each distinct cell
    once.  With ``allow_failures`` a failed cell drops its workload's
    rows from the aggregate (and is listed in ``ArtefactRun.failed`` /
    the manifest); otherwise any failure raises :class:`HarnessError`
    after the sweep completes, so one bad cell never cancels in-flight
    work.  ``timeout``, ``retries``, ``term_grace`` and
    ``retry_backoff`` form the jobs' :class:`~repro.harness.jobs.JobPolicy`.

    ``workers=None`` means one per cpu.  ``backend`` picks the execution
    backend (``inline``/``fork``/``worker``); the default follows
    ``workers`` — inline when 0, fork otherwise.  ``fork`` drains a
    queue the run owns with ``workers`` local queue workers; ``worker``
    a persistent one (``queue_dir``, default ``<store>/queue``) that
    external ``python -m repro.harness worker`` processes can join.
    SIGTERM to the calling process then stops the local workers and
    exits with status 143.
    """
    policy = JobPolicy(timeout=timeout, retries=retries,
                       term_grace=term_grace, retry_backoff=retry_backoff)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError("workers must be >= 0")
    backend = backend or ("inline" if workers == 0 else "fork")
    if backend not in BACKEND_NAMES:
        raise ValueError(f"unknown execution backend {backend!r}; "
                         f"known: {', '.join(BACKEND_NAMES)}")
    if backend == "fork" and workers == 0:
        raise ValueError("the fork backend needs workers >= 1: "
                         "nothing else can reach the queue it owns")
    if backend == "worker" and store is None:
        raise ValueError("the worker backend requires a result store: "
                         "completed jobs hand their rows over through it")

    expanded: List[Tuple[ArtefactRequest, List[JobSpec]]] = []
    for request in requests:
        params = request[2] if len(request) > 2 else None
        normalized = ArtefactRequest(request[0], float(request[1]),
                                     _normalize_params(params))
        expanded.append((normalized, expand_jobs(
            normalized.name, normalized.scale, workloads,
            dict(normalized.params))))

    started = time.monotonic()
    manifest = RunManifest(workers=workers, fingerprint=code_fingerprint(),
                           backend=backend)
    keyer = store if store is not None else ResultStore()
    keys: Dict[JobSpec, str] = {}  # every distinct cell, in request order
    for _, jobs in expanded:
        for spec in jobs:
            if spec not in keys:
                keys[spec] = keyer.key_for(spec)
    results: Dict[JobSpec, list] = {}
    records: Dict[JobSpec, JobRecord] = {}

    def settle(spec: JobSpec, rows: Optional[list], wall_time: float = 0.0,
               worker: Optional[str] = None, attempts: int = 1,
               error: Optional[str] = None, status: str = "") -> None:
        if rows is not None:
            results[spec] = rows
        record = JobRecord(
            artefact=spec.artefact, workload=spec.workload, scale=spec.scale,
            params={k: list(v) if isinstance(v, tuple) else v
                    for k, v in spec.params},
            key=keys[spec],
            status=status or (STATUS_FAILED if rows is None
                              else STATUS_COMPUTED),
            wall_time=round(wall_time, 4), worker=worker,
            attempts=attempts, error=error)
        records[spec] = record
        if progress is not None:
            progress(record)

    pending: Dict[JobSpec, str] = {}
    for spec, key in keys.items():
        cached = store.get(key) if (store and use_cache) else None
        if cached is not None:
            settle(spec, cached, status=STATUS_HIT)
        else:
            pending[spec] = key
    if pending and backend == "inline":
        from repro.harness.backends.inline import run_inline

        run_inline(pending, store, policy, settle)
    elif pending:
        from repro.harness.backends.worker import run_queued

        run_queued(pending, store, policy, settle, workers=workers,
                   queue_dir=queue_dir, lease_ttl=lease_ttl,
                   private=backend == "fork")

    manifest.jobs = [records[spec] for spec in keys]
    manifest.wall_time = time.monotonic() - started
    if manifest_path is None and store is not None:
        manifest_path = store.manifest_dir() / f"run-{manifest.run_id}.json"
    if manifest_path is not None:
        manifest.write(manifest_path)

    runs: List[ArtefactRun] = []
    failures: List[str] = []
    for request, jobs in expanded:
        failed = [spec.workload for spec in jobs if spec not in results]
        rows = [row for spec in jobs for row in results.get(spec, [])]
        runs.append(ArtefactRun(request=request, rows=rows, failed=failed))
        failures.extend(f"{request.name}/{abbrev}" for abbrev in failed)
    if failures and not allow_failures:
        raise HarnessError("jobs failed: " + ", ".join(failures))
    return SweepOutcome(runs=runs, manifest=manifest)


__all__ = [
    "ArtefactRequest",
    "ArtefactRun",
    "HarnessError",
    "SweepOutcome",
    "run_artefacts",
]
