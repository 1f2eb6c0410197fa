"""The queue worker: lease, run in a child, store, repeat.

``python -m repro.harness worker --queue DIR --store DIR`` runs this loop
on any host that can see the two directories, and every parallel ``run``
spawns it locally: it is the only code that runs a job outside the
calling process.  Several workers drain one queue cooperatively through
the lease protocol (:mod:`repro.harness.queue`), writing results to the
content-addressed store under the keys inline execution would use.

Each claim runs in a forked per-claim child, so a job that raises, dies
or hangs fails its own attempt and never the worker.  The claim carries
the job's :class:`~repro.harness.jobs.JobPolicy`, written into the queue
by whoever enqueued it: while the child runs, the worker renews the
claim's lease every ``lease_ttl / 3`` (the heartbeat) and, past the
policy's ``timeout`` on the monotonic clock, stops the child with
SIGTERM, then SIGKILL after ``term_grace`` seconds.  A failed attempt is
retried until the policy's budget is spent.

A worker exits once every queued job has a terminal outcome; with
``keep_alive`` it keeps polling for new work (the long-running fleet).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from repro.harness.jobs import (
    JobPolicy,
    JobSpec,
    execute_job,
    retry_backoff_delay,
)
from repro.harness.queue import Claim, JobQueue, default_worker_id
from repro.harness.store import ResultStore

#: seconds between queue polls when nothing is claimable
DEFAULT_POLL = 0.05

#: seconds between a per-claim child's checks that its worker lives
_ORPHAN_POLL = 0.1


def poll_delay(worker_id: str, poll: float = DEFAULT_POLL) -> float:
    """This worker's deterministic poll interval, in ``[poll/2, poll)``.

    A fleet started simultaneously (the CI job, a cluster launcher)
    would otherwise poll the queue in lockstep forever — every worker
    sleeps the same ``poll``, wakes at the same instant, and hammers
    the shared directory together.  Hashing the worker id through the
    spec-keyed backoff helper de-phases the fleet while staying fully
    reproducible: the same worker id always polls on the same cadence.
    """
    spec = JobSpec(artefact="harness.worker-poll", workload=worker_id,
                   scale=1.0)
    return retry_backoff_delay(spec, 1, poll)


@contextmanager
def sigterm_exits() -> Iterator[None]:
    """Turn SIGTERM into ``SystemExit(143)`` while the block runs, so
    ``finally`` clauses stop children, release leases and remove
    directories on the way out (off the main thread: a no-op)."""
    def _exit(signum, frame):
        raise SystemExit(128 + signal.SIGTERM)

    try:
        previous = signal.signal(signal.SIGTERM, _exit)
    except ValueError:
        previous = None  # not the main thread
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def stop_process(proc, grace: float) -> None:
    """SIGTERM ``proc``, then SIGKILL it if it ignores that for
    ``grace`` seconds; a process that already exited is only reaped."""
    proc.terminate()
    proc.join(grace)
    if proc.is_alive():
        proc.kill()
        proc.join()


@dataclass
class WorkerStats:
    """What one worker-loop invocation did."""

    worker_id: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0        # failed attempts (retryable or terminal)
    finalized: int = 0     # jobs this worker marked terminally failed


def worker_loop(queue: JobQueue, store: ResultStore, *,
                worker_id: Optional[str] = None,
                poll: float = DEFAULT_POLL,
                max_jobs: Optional[int] = None,
                keep_alive: bool = False,
                progress: Optional[Callable[[str], None]] = None
                ) -> WorkerStats:
    """Drain ``queue`` into ``store``; returns this worker's tally.

    Each job runs under the policy it was queued with: it is tried at
    most ``retries + 1`` times *in total, across all workers* (the
    attempt count travels in the queue's state sidecar, so a retry on
    another worker still counts), each attempt bounded by ``timeout``.
    Retry backoff uses the shared key-derived jitter, so the schedule is
    reproducible no matter which worker retries.  A worker stopped by
    SIGTERM mid-job stops its child and *releases its held lease* on the
    way out.
    """
    worker_id = worker_id or default_worker_id()
    stats = WorkerStats(worker_id=worker_id)
    say = progress or (lambda message: None)
    delay = poll_delay(worker_id, poll)
    with sigterm_exits():
        while True:
            claim = queue.claim(worker_id)
            if claim is None:
                if not keep_alive and not queue.remaining():
                    break  # every queued job has a terminal outcome
                time.sleep(delay)
                continue
            _run_claim(queue, store, claim, stats, say)
            if max_jobs is not None and stats.claimed >= max_jobs:
                break
    return stats


def _run_claim(queue: JobQueue, store: ResultStore, claim: Claim,
               stats: WorkerStats, say: Callable[[str], None]) -> None:
    """Run one leased job in a per-claim child and settle its lease.

    A failure in the worker itself (fork, pipe, heartbeat write) charges
    the attempt like one in the child: it never strands the lease.
    """
    try:
        stats.claimed += 1
        error, elapsed = _attempt(queue, store, claim.spec, claim.key,
                                  claim.worker, claim.policy)
    except (KeyboardInterrupt, SystemExit):
        # Interrupted mid-job: the child is already stopped; hand the
        # lease back (the claim already counted the attempt) and stop.
        queue.release(claim.key, error="worker interrupted mid-attempt")
        raise
    except Exception:
        _settle(queue, claim, stats, traceback.format_exc(), 0.0, say)
        return
    _settle(queue, claim, stats, error, elapsed, say)


def _settle(queue: JobQueue, claim: Claim, stats: WorkerStats,
            error: Optional[str], elapsed: float,
            say: Callable[[str], None]) -> None:
    """Complete the claim, or release it for a retry, or finalize it.

    The terminal queue op is the first call in each branch, so nothing
    that raises before it can strand the lease.
    """
    label = claim.spec.label
    if error is None:
        queue.complete(claim.key, worker=claim.worker, elapsed=elapsed,
                       attempts=claim.attempt)
        stats.completed += 1
        say(f"{label}: computed ({elapsed:.2f}s)")
        return
    stats.failed += 1
    if claim.attempt >= claim.policy.attempts:
        queue.finish_failed(claim.key, error=error, attempts=claim.attempt,
                            worker=claim.worker, elapsed=elapsed)
        stats.finalized += 1
        say(f"{label}: failed terminally "
            f"(attempt {claim.attempt}/{claim.policy.attempts})")
        return
    # wall clock: the queue's not_before crosses processes and hosts
    queue.release(claim.key, error=error,
                  not_before=time.time() + retry_backoff_delay(
                      claim.spec, claim.attempt, claim.policy.retry_backoff))
    # deterministic, so recomputing for the log line is exact
    delay = retry_backoff_delay(claim.spec, claim.attempt,
                                claim.policy.retry_backoff)
    say(f"{label}: attempt {claim.attempt} failed, retry in {delay:.2f}s")


def _attempt(queue: JobQueue, store: ResultStore, spec: JobSpec, key: str,
             worker: str, policy: JobPolicy
             ) -> Tuple[Optional[str], float]:
    """Run one attempt in a forked child: ``(error or None, seconds)``.

    Whatever ends the wait — a report, the child's death, the timeout or
    an exception here — the child is stopped and reaped before return.
    """
    import multiprocessing  # lazily: inline runs never need it

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    with recv, send:
        child = ctx.Process(target=_claim_main,
                            args=(spec, key, store, os.getpid(), send))
        child.start()
        send.close()
        try:
            return _await_child(queue, key, worker, child, recv, policy)
        finally:
            stop_process(child, policy.term_grace)


def _await_child(queue: JobQueue, key: str, worker: str, child, recv,
                 policy: JobPolicy) -> Tuple[Optional[str], float]:
    """Renew the lease every ``lease_ttl / 3`` until the child reports,
    dies or times out."""
    started = time.monotonic()
    beat = queue.lease_ttl / 3
    while True:
        wait = beat
        if policy.timeout is not None:
            wait = min(beat, started + policy.timeout - time.monotonic())
            if wait <= 0:  # the caller stops the child
                return (f"timed out after {policy.timeout:g}s",
                        time.monotonic() - started)
        if recv.poll(wait):
            break
        queue.renew(key, worker)
    try:
        status, detail = recv.recv()
    except EOFError:  # the child exited without writing its report
        status, detail = "died", None
    child.join()
    if status == "ok":
        return None, detail
    return (detail or f"worker died without reporting a result "
                      f"(exit code {child.exitcode})",
            time.monotonic() - started)


def _claim_main(spec: JobSpec, key: str, store: ResultStore,
                worker_pid: int, conn) -> None:
    """Per-claim child: run one job, store its rows and report
    ``("ok", seconds)`` or ``("err", traceback)`` on ``conn``."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the worker's
    threading.Thread(target=_exit_when_orphaned, args=(worker_pid,),
                     daemon=True).start()
    start = time.monotonic()
    try:
        rows = execute_job(spec)
        elapsed = time.monotonic() - start
        store.put(key, spec, rows, elapsed)
        conn.send(("ok", elapsed))
    except Exception:  # an interrupted child reports nothing: "died"
        conn.send(("err", traceback.format_exc()))
    finally:
        conn.close()


def _exit_when_orphaned(worker_pid: int) -> None:
    """Exit within ``_ORPHAN_POLL`` seconds of the worker's death: a
    SIGKILLed worker cannot stop its child, and another worker may
    already own the job."""
    while os.getppid() == worker_pid:
        time.sleep(_ORPHAN_POLL)
    os._exit(1)
