"""The two execution paths of :func:`~repro.harness.api.run_artefacts`,
plain functions with one signature, ``(jobs, store, policy, settle)``:
``jobs`` maps each cache-miss :class:`~repro.harness.jobs.JobSpec` to its
store key, ``policy`` is the run's :class:`~repro.harness.jobs.JobPolicy`,
and each job ends in one ``settle`` call with its rows (``None`` and an
error when it failed).

* ``inline`` (:func:`~repro.harness.backends.inline.run_inline`) — jobs
  run serially in the calling process (``workers=0``).
* ``fork`` and ``worker``
  (:func:`~repro.harness.backends.worker.run_queued`) — ``workers``
  local queue workers (:mod:`repro.harness.worker`) drain a queue the
  run owns, or a persistent one that workers on any host sharing the
  store directory can join.
"""

#: the names ``--exec-backend`` accepts
BACKEND_NAMES = ("inline", "fork", "worker")
