"""The worker backend: queue-drain execution over the shared store.

``execute`` serializes every pending job into a persistent
:class:`~repro.harness.queue.JobQueue` (default ``<store>/queue``),
spawns ``workers`` local worker-loop processes, and waits for the queue
to drain.  Because the queue and store are plain directories, *external*
workers — ``python -m repro.harness worker`` on this host or any other
host sharing the filesystem — can join the drain at any point; with
``workers=0`` the backend spawns nothing and relies on them entirely.

Results are collected back through the store (the same content-addressed
objects any backend writes), so the recomposed report is byte-identical
to inline and fork execution of the same grid.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Optional

from repro.harness.backends.base import ExecutionBackend, RunState
from repro.harness.jobs import JobSpec
from repro.harness.manifest import STATUS_COMPUTED, STATUS_FAILED
from repro.harness.queue import DEFAULT_LEASE_TTL, JobQueue

#: seconds between drain-progress polls in the orchestrating process
_DRAIN_POLL = 0.05


def _spawn_worker_main(queue_root, store_root, lease_ttl, retries,
                       retry_backoff) -> None:
    """Entry point of one spawned worker process (fork start method)."""
    from repro.harness.store import ResultStore
    from repro.harness.worker import worker_loop

    worker_loop(JobQueue(queue_root, lease_ttl=lease_ttl),
                ResultStore(store_root), retries=retries,
                retry_backoff=retry_backoff, keep_alive=False)


class WorkerBackend(ExecutionBackend):
    """Drain jobs through a leased work queue shared with N workers."""

    name = "worker"

    def __init__(self, config, queue_dir=None,
                 lease_ttl: Optional[float] = None) -> None:
        super().__init__(config)
        self.queue_dir = queue_dir
        self.lease_ttl = lease_ttl if lease_ttl is not None else (
            DEFAULT_LEASE_TTL)

    def execute(self, state: RunState) -> None:
        if state.store is None:
            raise ValueError(
                "the worker backend requires a result store: completed "
                "jobs hand their rows over through it")
        queue_root = (self.queue_dir if self.queue_dir is not None
                      else state.store.root / "queue")
        queue = JobQueue(queue_root, lease_ttl=self.lease_ttl)

        ordered: List[JobSpec] = []
        while state.pending:
            spec, _attempts, _not_before = state.pending.popleft()
            queue.enqueue(spec, state.keys[spec])
            ordered.append(spec)
        if not ordered:
            return

        procs = self._spawn_workers(state.store.root, queue_root)
        try:
            self._await_drain(queue, [state.keys[spec] for spec in ordered],
                              procs)
        finally:
            self._stop_workers(procs)
        self._collect(state, queue, ordered)

    # -- worker fleet ----------------------------------------------------

    def _spawn_workers(self, store_root, queue_root) -> list:
        ctx = multiprocessing.get_context("fork")
        procs = []
        for _ in range(self.config.workers):
            proc = ctx.Process(
                target=_spawn_worker_main,
                args=(queue_root, store_root, self.lease_ttl,
                      self.config.retries, self.config.retry_backoff))
            proc.start()
            procs.append(proc)
        return procs

    def _await_drain(self, queue: JobQueue, keys: List[str],
                     procs: list) -> None:
        """Poll until every job has an outcome (or no worker remains).

        Every round polls every local worker, and ``is_alive`` reaps one
        that has exited: an unreaped zombie would pass the queue's
        ``os.kill(pid, 0)`` owner check and hold its lease for the TTL.

        With zero spawned workers the drain is expected to come from
        external ``python -m repro.harness worker`` processes, so the
        wait has no liveness cut-off — interrupt it if they never come.
        """
        while queue.remaining(keys):
            alive = [proc.is_alive() for proc in procs]
            if procs and not any(alive):
                return  # every local worker died; collect what exists
            time.sleep(_DRAIN_POLL)

    def _stop_workers(self, procs: list) -> None:
        """Join drained workers, escalating exactly like the fork pool."""
        for proc in procs:
            proc.join(self.config.term_grace)
            if proc.is_alive():
                proc.terminate()
                proc.join(self.config.term_grace)
            if proc.is_alive():
                proc.kill()
                proc.join()

    # -- result collection ----------------------------------------------

    def _collect(self, state: RunState, queue: JobQueue,
                 ordered: List[JobSpec]) -> None:
        for spec in ordered:
            key = state.keys[spec]
            outcome = queue.outcome(key)
            if outcome is None:
                state.records[spec] = state.record(
                    spec, key, STATUS_FAILED,
                    attempts=0,
                    error="queue drain incomplete: no worker produced a "
                          "terminal outcome (all local workers exited)")
                continue
            attempts = int(outcome.get("attempts", 1))
            worker = outcome.get("worker")
            if outcome.get("status") != "ok":
                state.records[spec] = state.record(
                    spec, key, STATUS_FAILED,
                    wall_time=float(outcome.get("elapsed", 0.0)),
                    worker=worker, attempts=attempts,
                    error=outcome.get("error") or "failed on a worker")
                continue
            rows = state.store.get(key)
            if rows is None:
                state.records[spec] = state.record(
                    spec, key, STATUS_FAILED, worker=worker,
                    attempts=attempts,
                    error="queue marked the job done but its object is "
                          "missing from the store (quarantined or "
                          "deleted)")
                continue
            state.results[spec] = rows
            state.records[spec] = state.record(
                spec, key, STATUS_COMPUTED,
                wall_time=float(outcome.get("elapsed", 0.0)),
                worker=worker, attempts=attempts)
