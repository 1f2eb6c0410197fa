"""Parallel experiment orchestration with a content-addressed result store.

The evaluation is a grid of artefacts x workloads.  This package
decomposes each experiment into per-(artefact, workload, scale) jobs
(:mod:`repro.harness.jobs`) and runs a grid with one function,
:func:`~repro.harness.api.run_artefacts`, over one of two execution
paths (:mod:`repro.harness.backends`): inline in-process, or queue
workers (:mod:`repro.harness.worker`) that run each job in a
crash-isolated child with a timeout and a lease heartbeat, on a queue
the run owns (``fork``) or on a persistent one (``worker``,
:mod:`repro.harness.queue`) that workers on any host sharing the store
can join.  Every queued job carries its :class:`JobPolicy` (timeout and
retry budget), so any worker that claims it applies the run's
settings.  It caches every cell's rows on disk keyed by a stable hash of
the cell's identity (artefact, workload, scale, params) plus a code
fingerprint (:mod:`repro.harness.store`), and records what happened in
a run manifest (:mod:`repro.harness.manifest`).

``python -m repro.harness run summary --workers 8`` runs the whole
evaluation in parallel; a second invocation is almost entirely cache
hits; ``run --exec-backend worker --workers 3`` drains the same grid
through the work queue with byte-identical output.  See docs/harness.md
for the job model, execution paths, hash key and manifest schema.
"""

from repro.harness.backends import BACKEND_NAMES
from repro.harness.jobs import (
    JobPolicy,
    JobSpec,
    execute_job,
    expand_jobs,
    retry_backoff_delay,
)
from repro.harness.manifest import JobRecord, RunManifest
from repro.harness.queue import JobQueue
from repro.harness.registry import (
    ARTEFACTS,
    ArtefactSpec,
    artefact_names,
    register,
)
from repro.harness.store import ResultStore, code_fingerprint, rows_to_payload
from repro.harness.worker import WorkerStats, worker_loop

from repro.harness.api import HarnessError, run_artefacts

__all__ = [
    "ARTEFACTS",
    "ArtefactSpec",
    "BACKEND_NAMES",
    "HarnessError",
    "JobPolicy",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "ResultStore",
    "RunManifest",
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
