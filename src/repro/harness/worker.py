"""The standalone queue worker: lease, execute, store, repeat.

``python -m repro.harness worker --queue DIR --store DIR`` runs this loop
in any process on any host that can see the two directories.  Several
workers drain one queue cooperatively: the lease protocol (see
:mod:`repro.harness.queue`) guarantees a job is executed by one worker at
a time, crashed workers' jobs are reclaimed, and results land in the
content-addressed store under the same keys — and with byte-identical
payloads — that inline or fork execution would produce.

By default a worker exits once every queued job has a terminal outcome
(``drain`` mode, what the worker execution backend uses); with
``keep_alive`` it idles and keeps polling for new work, which is the
long-running-fleet mode: start workers first, ``enqueue`` from anywhere,
watch ``status``.
"""

from __future__ import annotations

import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.harness.backends.base import retry_backoff_delay
from repro.harness.jobs import JobSpec, execute_job
from repro.harness.queue import Claim, JobQueue, default_worker_id
from repro.harness.store import ResultStore

#: seconds between queue polls when nothing is claimable
DEFAULT_POLL = 0.05


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


@dataclass
class WorkerStats:
    """What one worker-loop invocation did."""

    worker_id: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0        # failed attempts (retryable or terminal)
    finalized: int = 0     # jobs this worker marked terminally failed
    labels: List[str] = field(default_factory=list)


def worker_loop(queue: JobQueue, store: ResultStore, *,
                worker_id: Optional[str] = None,
                retries: int = 1,
                retry_backoff: float = 0.1,
                poll: float = DEFAULT_POLL,
                max_jobs: Optional[int] = None,
                keep_alive: bool = False,
                progress: Optional[Callable[[str], None]] = None
                ) -> WorkerStats:
    """Drain ``queue`` into ``store``; returns this worker's tally.

    ``retries`` bounds attempts per job exactly like the scheduler's
    ``--retries``: a job is tried at most ``retries + 1`` times *in
    total, across all workers* (the attempt count travels in the queue's
    state sidecar, so a retry on another worker still counts).  Retry
    backoff uses the shared key-derived jitter, so the schedule is
    reproducible no matter which worker retries.

    SIGTERM — the fleet drain signal — is converted to :class:`SystemExit`
    for the duration of the loop, so a worker killed mid-job travels the
    interrupt path in :func:`_run_claim` and *releases its held lease*
    on the way out instead of stranding the job until lease expiry.
    """
    worker_id = worker_id or default_worker_id()
    stats = WorkerStats(worker_id=worker_id)
    say = progress or (lambda message: None)
    delay = poll_delay(worker_id, poll)

    def _drain(signum, frame):
        raise SystemExit(128 + signal.SIGTERM)

    try:
        previous = signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        previous = None  # not the main thread: rely on the caller's handler
    try:
        while True:
            claim = queue.claim(worker_id, max_attempts=retries + 1)
            if claim is None:
                if not keep_alive and not queue.remaining():
                    break  # every queued job has a terminal outcome
                time.sleep(delay)
                continue
            _run_claim(queue, store, claim, stats, retries, retry_backoff,
                       say)
            if max_jobs is not None and stats.claimed >= max_jobs:
                break
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return stats


def _run_claim(queue: JobQueue, store: ResultStore, claim: Claim,
               stats: WorkerStats, retries: int, retry_backoff: float,
               say: Callable[[str], None]) -> None:
    """Execute one leased job and record its outcome in the queue.

    Every statement that can raise while the lease is held sits inside
    the try: a ``store.put`` failure used to escape *between*
    ``execute_job`` and ``complete`` and strand the lease until TTL
    expiry (RS302's bug class) — now it charges the attempt and
    releases like any other failure.
    """
    spec = claim.spec
    try:
        stats.claimed += 1
        stats.labels.append(spec.label)
        start = time.monotonic()
        rows = execute_job(spec)
        elapsed = time.monotonic() - start
        store.put(claim.key, spec, rows, elapsed)
    except (KeyboardInterrupt, SystemExit):
        # Interrupted mid-job: hand the lease back uncharged-looking
        # (the claim already counted the attempt) and stop the loop.
        queue.release(claim.key, error="worker interrupted mid-attempt")
        raise
    except Exception:
        # The terminal queue op is the first statement in each branch
        # that can raise: formatting the error or deriving the backoff
        # *before* it would strand the lease until TTL expiry if those
        # helpers themselves failed, so they ride inside the call.
        stats.failed += 1
        if claim.attempt >= retries + 1:
            queue.finish_failed(claim.key, error=traceback.format_exc(),
                                attempts=claim.attempt, worker=claim.worker)
            stats.finalized += 1
            say(f"{spec.label}: failed terminally "
                f"(attempt {claim.attempt}/{retries + 1})")
        else:
            # wall clock: the queue's not_before crosses processes and hosts
            queue.release(claim.key, error=traceback.format_exc(),
                          not_before=time.time() + retry_backoff_delay(
                              spec, claim.attempt, retry_backoff))
            # deterministic, so recomputing for the log line is exact
            delay = retry_backoff_delay(spec, claim.attempt, retry_backoff)
            say(f"{spec.label}: attempt {claim.attempt} failed, "
                f"retry in {delay:.2f}s")
        return
    queue.complete(claim.key, worker=claim.worker, elapsed=elapsed,
                   attempts=claim.attempt)
    stats.completed += 1
    say(f"{spec.label}: computed ({elapsed:.2f}s)")
