"""Parallel experiment orchestration with a content-addressed result store.

The evaluation is a grid of artefacts x workloads.  This package
decomposes each experiment into per-(artefact, workload, scale) jobs
(:mod:`repro.harness.jobs`), runs them through a pluggable execution
backend — inline in-process, a crash-isolated ``fork`` pool, or a
leased persistent work queue drained by workers on any host sharing the
store (:mod:`repro.harness.backends`, :mod:`repro.harness.queue`,
:mod:`repro.harness.worker`) — caches every cell's rows on disk keyed
by a stable hash of the cell's identity (artefact, workload, scale,
params) plus a code fingerprint (:mod:`repro.harness.store`), and
records what happened in a run manifest (:mod:`repro.harness.manifest`).

``python -m repro.harness run summary --workers 8`` runs the whole
evaluation in parallel; a second invocation is almost entirely cache
hits; ``run --exec-backend worker --workers 3`` drains the same grid
through the work queue with byte-identical output.  See docs/harness.md
for the job model, backend architecture, hash key and manifest schema.
"""

from repro.harness.backends import (
    BACKEND_NAMES,
    BackendConfig,
    ExecutionBackend,
    retry_backoff_delay,
)
from repro.harness.jobs import JobSpec, expand_jobs, execute_job
from repro.harness.manifest import JobRecord, RunManifest
from repro.harness.queue import JobQueue
from repro.harness.registry import (
    ARTEFACTS,
    ArtefactSpec,
    artefact_names,
    register,
)
from repro.harness.scheduler import HarnessError, Scheduler
from repro.harness.store import ResultStore, code_fingerprint, rows_to_payload
from repro.harness.worker import WorkerStats, worker_loop

from repro.harness.api import run_artefacts

__all__ = [
    "ARTEFACTS",
    "ArtefactSpec",
    "BACKEND_NAMES",
    "BackendConfig",
    "ExecutionBackend",
    "HarnessError",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "ResultStore",
    "RunManifest",
    "Scheduler",
    "WorkerStats",
    "artefact_names",
    "code_fingerprint",
    "execute_job",
    "expand_jobs",
    "register",
    "retry_backoff_delay",
    "rows_to_payload",
    "run_artefacts",
    "worker_loop",
]
