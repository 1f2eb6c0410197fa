"""The queue backends, ``fork`` and ``worker``: a parallel run drains a
leased job queue with local :func:`~repro.harness.worker.worker_loop`
processes and collects the rows back through the store, so the report
is byte-identical to inline execution of the grid.  ``fork`` keeps its
queue (and, without a store, a store) in a temporary directory that it
removes; ``worker``'s queue persists (default ``<store>/queue``) and
external workers can join it — with ``workers=0`` the run relies on them
entirely.  SIGTERM raises :class:`SystemExit` while the run drains, so
it stops its workers and removes what it owns on the way out.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.harness.backends.base import (
    BackendConfig,
    ExecutionBackend,
    RunState,
)
from repro.harness.manifest import STATUS_COMPUTED, STATUS_FAILED
from repro.harness.queue import DEFAULT_LEASE_TTL, JobQueue
from repro.harness.store import ResultStore
from repro.harness.worker import sigterm_exits, stop_process, worker_loop

#: seconds between drain-progress polls in the orchestrating process
_DRAIN_POLL = 0.05


def _spawn_worker_main(queue: JobQueue, store: ResultStore,
                       config: BackendConfig) -> None:
    """Entry point of one spawned worker process (fork start method)."""
    worker_loop(queue, store, retries=config.retries,
                retry_backoff=config.retry_backoff, timeout=config.timeout,
                term_grace=config.term_grace, keep_alive=False)


class WorkerBackend(ExecutionBackend):
    """Drain jobs through a leased work queue shared with N workers;
    ``private`` selects ``fork``'s run-owned temporary directory."""

    def __init__(self, config: BackendConfig, queue_dir=None,
                 lease_ttl: Optional[float] = None,
                 private: bool = False) -> None:
        super().__init__(config)
        self.queue_dir = queue_dir
        self.lease_ttl = (DEFAULT_LEASE_TTL if lease_ttl is None
                          else lease_ttl)
        self.private = private

    def execute(self, state: RunState) -> None:
        if state.store is None and not self.private:
            raise ValueError(
                "the worker backend requires a result store: completed "
                "jobs hand their rows over through it")
        keys = [state.keys[spec] for spec in state.pending]
        with sigterm_exits(), self._placement(state.store) as (queue,
                                                                store):
            for spec, key in zip(state.pending, keys):
                queue.enqueue(spec, key)
            ctx = multiprocessing.get_context("fork")
            procs: list = []
            try:
                for _ in range(self.config.workers):
                    proc = ctx.Process(target=_spawn_worker_main,
                                       args=(queue, store, self.config))
                    proc.start()
                    procs.append(proc)
                self._await_drain(queue, keys, procs)
                for proc in procs:  # drained workers exit by themselves
                    proc.join(self.config.term_grace)
            finally:
                for proc in procs:
                    stop_process(proc, self.config.term_grace)
            self._collect(state, queue, store)

    @contextmanager
    def _placement(self, store: Optional[ResultStore]
                   ) -> Iterator[Tuple[JobQueue, ResultStore]]:
        """The run's queue and store."""
        if not self.private:
            yield JobQueue(self.queue_dir if self.queue_dir is not None
                           else store.root / "queue",
                           lease_ttl=self.lease_ttl), store
            return
        with tempfile.TemporaryDirectory(prefix="repro-run-") as owned:
            yield (JobQueue(Path(owned) / "queue", lease_ttl=self.lease_ttl),
                   store if store is not None
                   else ResultStore(Path(owned) / "store"))

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
            alive = [proc.sentinel for proc in procs if proc.is_alive()]
            if procs and not alive:
                return  # every local worker died; collect what exists
            # a worker exits as soon as the queue is drained: wake then
            multiprocessing.connection.wait(alive, _DRAIN_POLL)

    # -- result collection ----------------------------------------------

    def _collect(self, state: RunState, queue: JobQueue,
                 store: ResultStore) -> None:
        for spec in state.pending:
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
            rows = store.get(key)
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
