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

The package itself imports nothing: import from the submodules, so a
caller that needs only :mod:`repro.harness.jobs` does not load the
queue, the workers and the store.
"""
