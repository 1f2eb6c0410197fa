"""The high-level entry point behind the ``run`` path of ``python -m
repro`` and ``python -m repro.harness``, and behind ``report_card.run``.

``run_artefacts`` pools the jobs of *several* artefact requests into one
scheduler pass — so with ``--workers 8`` the slow Figure 9 cells overlap
with the cheap Table 5.1 cells instead of each artefact forming its own
barrier — then recomposes each request's rows in paper workload order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.harness.jobs import JobSpec, expand_jobs
from repro.harness.manifest import RunManifest
from repro.harness.scheduler import HarnessError, ProgressFn, Scheduler
from repro.harness.store import ResultStore


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
                  timeout: Optional[float] = None,
                  retries: int = 1,
                  term_grace: float = Scheduler.DEFAULT_TERM_GRACE,
                  retry_backoff: float = Scheduler.DEFAULT_RETRY_BACKOFF,
                  allow_failures: bool = False,
                  manifest_path: Optional[os.PathLike] = None,
                  progress: Optional[ProgressFn] = None,
                  backend: Optional[str] = None,
                  queue_dir: Optional[os.PathLike] = None,
                  lease_ttl: Optional[float] = None) -> SweepOutcome:
    """Run a batch of ``(name, scale[, params])`` artefact requests.

    All requests' jobs execute in one pooled scheduler pass.  With
    ``allow_failures`` a failed cell drops its workload's rows from the
    aggregate (and is listed in ``ArtefactRun.failed`` / the manifest);
    otherwise any failure raises :class:`HarnessError` after the sweep
    completes, so one bad cell never cancels in-flight work.

    ``workers=None`` means one per cpu.  ``backend`` picks the execution
    backend (``inline``/``fork``/``worker``); the default follows
    ``workers`` — inline when 0, fork otherwise.  ``fork`` drains a
    queue the run owns with ``workers`` local queue workers; ``worker``
    a persistent one (``queue_dir``, default ``<store>/queue``) that
    external ``python -m repro.harness worker`` processes can join.
    SIGTERM to the calling process then stops the local workers and
    exits with status 143.
    """
    normalized: List[ArtefactRequest] = []
    for request in requests:
        name, scale = request[0], request[1]
        params = request[2] if len(request) > 2 else None
        normalized.append(ArtefactRequest(name, float(scale),
                                          _normalize_params(params)))

    jobs_by_request: Dict[ArtefactRequest, List[JobSpec]] = {}
    all_jobs: List[JobSpec] = []
    for request in normalized:
        jobs = expand_jobs(request.name, request.scale, workloads,
                           dict(request.params))
        jobs_by_request[request] = jobs
        all_jobs.extend(jobs)

    scheduler = Scheduler(workers=workers, timeout=timeout, retries=retries,
                          progress=progress, term_grace=term_grace,
                          retry_backoff=retry_backoff, backend=backend,
                          queue_dir=queue_dir, lease_ttl=lease_ttl)
    outcome = scheduler.run(all_jobs, store=store, use_cache=use_cache)

    if manifest_path is None and store is not None:
        manifest_path = (store.manifest_dir()
                         / f"run-{outcome.manifest.run_id}.json")
    if manifest_path is not None:
        outcome.manifest.write(manifest_path)

    runs: List[ArtefactRun] = []
    failures: List[str] = []
    for request in normalized:
        jobs = jobs_by_request[request]
        failed = [spec.workload for spec in jobs
                  if spec not in outcome.results]
        rows = outcome.rows_for_jobs(jobs, allow_failures=True)
        runs.append(ArtefactRun(request=request, rows=rows, failed=failed))
        failures.extend(f"{request.name}/{abbrev}" for abbrev in failed)
    if failures and not allow_failures:
        raise HarnessError("jobs failed: " + ", ".join(failures))
    return SweepOutcome(runs=runs, manifest=outcome.manifest)


__all__ = [
    "ArtefactRequest",
    "ArtefactRun",
    "HarnessError",
    "SweepOutcome",
    "run_artefacts",
]
