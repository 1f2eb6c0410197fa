"""The queue execution path, ``fork`` and ``worker``: a parallel run
drains a leased job queue with local
:func:`~repro.harness.worker.worker_loop` processes and collects the rows
back through the store, so the report is byte-identical to inline
execution of the grid.  ``fork`` keeps its queue (and, without a store,
a store) in a temporary directory that it removes; ``worker``'s queue
persists (default ``<store>/queue``) and external workers can join it —
with ``workers=0`` the run relies on them entirely.  Every job is queued
with the run's :class:`~repro.harness.jobs.JobPolicy`, so each worker
that claims it, spawned here or started by hand, applies the run's
timeout and retry budget.  SIGTERM raises :class:`SystemExit` while the
run drains, so it stops its workers and removes what it owns on the way
out.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.harness.jobs import JobPolicy, JobSpec, SettleFn
from repro.harness.queue import DEFAULT_LEASE_TTL, JobQueue
from repro.harness.store import ResultStore
from repro.harness.worker import sigterm_exits, stop_process, worker_loop

#: seconds between drain-progress polls in the orchestrating process
_DRAIN_POLL = 0.05


def run_queued(jobs: Dict[JobSpec, str], store: Optional[ResultStore],
               policy: JobPolicy, settle: SettleFn, *, workers: int,
               queue_dir=None, lease_ttl: Optional[float] = None,
               private: bool = False) -> None:
    """Drain ``jobs`` through a leased work queue with ``workers`` local
    workers; ``private`` selects ``fork``'s run-owned temporary
    directory, else the queue is ``queue_dir`` (default
    ``<store>/queue``)."""
    keys = list(jobs.values())
    ttl = DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl
    with sigterm_exits(), _placement(store, queue_dir, ttl,
                                     private) as (queue, store):
        for spec, key in jobs.items():
            queue.enqueue(spec, key, policy)
        ctx = multiprocessing.get_context("fork")
        procs: list = []
        try:
            for _ in range(workers):
                proc = ctx.Process(target=worker_loop, args=(queue, store))
                proc.start()
                procs.append(proc)
            await_drain(queue, keys, procs)
            for proc in procs:  # drained workers exit by themselves
                proc.join(policy.term_grace)
        finally:
            for proc in procs:
                stop_process(proc, policy.term_grace)
        _collect(jobs, queue, store, settle)


@contextmanager
def _placement(store: Optional[ResultStore], queue_dir, lease_ttl: float,
               private: bool) -> Iterator[Tuple[JobQueue, ResultStore]]:
    """The run's queue and store."""
    if not private:
        yield JobQueue(queue_dir if queue_dir is not None
                       else store.root / "queue", lease_ttl=lease_ttl), store
        return
    with tempfile.TemporaryDirectory(prefix="repro-run-") as owned:
        yield (JobQueue(Path(owned) / "queue", lease_ttl=lease_ttl),
               store if store is not None
               else ResultStore(Path(owned) / "store"))


def await_drain(queue: JobQueue, keys: List[str], procs: list) -> None:
    """Poll until every job has an outcome (or no worker remains).

    Every round polls every local worker, and ``is_alive`` reaps one
    that has exited: an unreaped zombie would pass the queue's
    ``os.kill(pid, 0)`` owner check and hold its lease for the TTL.

    With zero spawned workers the drain is expected to come from
    external ``python -m repro.harness worker`` processes, so the wait
    has no liveness cut-off — interrupt it if they never come.
    """
    while queue.remaining(keys):
        alive = [proc.sentinel for proc in procs if proc.is_alive()]
        if procs and not alive:
            return  # every local worker died; collect what exists
        # a worker exits as soon as the queue is drained: wake then
        multiprocessing.connection.wait(alive, _DRAIN_POLL)


def _collect(jobs: Dict[JobSpec, str], queue: JobQueue, store: ResultStore,
             settle: SettleFn) -> None:
    """Settle every job from its queue outcome and stored rows."""
    for spec, key in jobs.items():
        outcome = queue.outcome(key)
        if outcome is None:
            settle(spec, None, attempts=0,
                   error="queue drain incomplete: no worker produced a "
                         "terminal outcome (all local workers exited)")
            continue
        elapsed = float(outcome.get("elapsed", 0.0))
        attempts = int(outcome.get("attempts", 1))
        worker = outcome.get("worker")
        if outcome.get("status") != "ok":
            settle(spec, None, elapsed, worker=worker, attempts=attempts,
                   error=outcome.get("error") or "failed on a worker")
            continue
        rows = store.get(key)
        if rows is None:
            settle(spec, None, worker=worker, attempts=attempts,
                   error="queue marked the job done but its object is "
                         "missing from the store (quarantined or deleted)")
            continue
        settle(spec, rows, elapsed, worker=worker, attempts=attempts)
