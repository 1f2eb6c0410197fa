"""The persistent work queue: leased JobSpecs over a shared directory.

One queue is one directory (typically ``<store>/queue``) that any number
of worker processes — on one host or many hosts sharing the filesystem —
drain cooperatively:

    queue/
      jobs/<key>.json     the serialized JobSpec and JobPolicy (key =
                          store key)
      leases/<key>.json   owner + deadline sidecar of the executing worker
      state/<key>.json    retry bookkeeping (attempts, backoff, last error)
      done/<key>.json     terminal outcome (ok -> rows are in the store)

The protocol is lock-free and crash-tolerant:

* **Claiming** a job stages its lease sidecar — owner id (``host:pid``)
  and wall-clock deadline — and hard-links it into place: ``os.link`` is
  an atomic test-and-set on POSIX filesystems, and no reader ever sees a
  half-written lease.  A job with a live lease is never claimed twice.
* **Renewing** is the heartbeat: while its job runs, the owner pushes
  the deadline ``lease_ttl`` seconds out every ``lease_ttl / 3``.
* **Reclaiming**: a lease whose deadline has passed, or whose owner pid
  is gone (same-host crash detection via ``kill(pid, 0)``), is *stolen*
  by renaming it to a per-claimant tombstone — exactly one of several
  racing claimants moves the stale lease it judged — before the winner
  re-creates it.
* **Completion** writes rows to the content-addressed
  :class:`~repro.harness.store.ResultStore` (atomic, last-writer-wins,
  byte-identical payloads) and then the ``done`` marker, so a result is
  visible in the store no later than the queue says it is.
* **Retry accounting** lives in the ``state`` sidecar and is only ever
  written by the lease holder: each claim increments ``attempts``, so an
  attempt that died with its worker is still counted, and a claimant
  that finds the budget of the job's own policy exhausted finalizes the
  job as failed instead of re-running it forever.

Every sidecar write is write-to-temp + fsync + atomic ``os.replace`` —
a killed writer leaves at worst a stale temp file, never a truncated
sidecar.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.harness.jobs import JobPolicy, JobSpec

#: default seconds before an unrenewed lease may be reclaimed; a live
#: worker renews it every third of that, so only a dead (or stalled)
#: worker's lease runs out
DEFAULT_LEASE_TTL = 30.0


def default_worker_id() -> str:
    """The ``host:pid`` identity queue workers lease under."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` exists on this host (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True  # unknown -> assume alive, the deadline still applies
    return True


@dataclass(frozen=True)
class Claim:
    """A successfully leased job: run it, then complete or release."""

    spec: JobSpec
    key: str
    attempt: int        # 1-based: this claim is attempt number ``attempt``
    worker: str         # the owner id the lease was taken under
    policy: JobPolicy   # how to run it, as the job was enqueued


class JobQueue:
    """A directory of leasable jobs shared by cooperating workers."""

    def __init__(self, root: os.PathLike,
                 lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        self.root = Path(root)
        self.lease_ttl = lease_ttl
        self._host = socket.gethostname()

    # -- paths -----------------------------------------------------------

    def _job_path(self, key: str) -> Path:
        return self.root / "jobs" / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.root / "leases" / f"{key}.json"

    def _state_path(self, key: str) -> Path:
        return self.root / "state" / f"{key}.json"

    def _done_path(self, key: str) -> Path:
        return self.root / "done" / f"{key}.json"

    # -- atomic sidecar IO ----------------------------------------------

    def _write_json(self, path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # staticcheck: ignore[RS303] a tmp stranded by a crash mid-write
        # is deliberate debris: it is per-pid so never collides, is never
        # read as a sidecar, and cleanup-on-exception would race the
        # crash cases this pattern exists to survive.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @staticmethod
    def _read_json(path: Path) -> Optional[dict]:
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None  # missing, racing rename, or torn write -> absent

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    # -- producing -------------------------------------------------------

    def enqueue(self, spec: JobSpec, key: str,
                policy: JobPolicy = JobPolicy()) -> bool:
        """Add one job, to be run under ``policy`` by whichever worker
        claims it; returns False when it was already queued.

        Re-enqueueing a key whose previous run finished resets its
        outcome and retry state, so a fresh sweep over the same grid
        recomputes instead of trusting a marker from another run.
        """
        fresh = not self._job_path(key).exists()
        self._remove(self._done_path(key))
        self._remove(self._state_path(key))
        self._write_json(self._job_path(key),
                         {"key": key, "spec": spec.to_json(),
                          "policy": policy.to_json()})
        return fresh

    # -- consuming -------------------------------------------------------

    def claim(self, worker_id: Optional[str] = None) -> Optional[Claim]:
        """Lease the first claimable job, or None when nothing is ready.

        A job is claimable when it has no terminal outcome, is not
        backing off, and carries no live lease.  A claimable job whose
        policy's attempt budget is already spent is finalized as failed
        (with the last recorded error) instead of being returned — this
        is how a job whose final attempt died with its worker still
        reaches a terminal state.  A job file without a policy (written
        before jobs carried one) runs under the defaults.
        """
        worker_id = worker_id or default_worker_id()
        done = set(self._keys_in("done"))
        for key in self.job_keys():
            if key in done:
                continue
            state = self._read_json(self._state_path(key)) or {}
            if state.get("not_before", 0.0) > time.time():
                continue
            if not self._acquire_lease(key, worker_id):
                continue
            # Holding the lease now — re-read bookkeeping under it.
            state = self._read_json(self._state_path(key)) or {}
            attempts = int(state.get("attempts", 0))
            job = self._read_json(self._job_path(key))
            if (job is None or self._done_path(key).exists()
                    or state.get("not_before", 0.0) > time.time()):
                self._remove(self._lease_path(key))
                continue
            try:
                policy = JobPolicy.from_json(job.get("policy"))
            except (TypeError, ValueError) as exc:  # never crash claimants
                self.finish_failed(key, error=f"malformed job policy: {exc}",
                                   attempts=attempts, worker=worker_id)
                continue
            if attempts >= policy.attempts:
                self.finish_failed(
                    key,
                    error=state.get("error")
                    or "retry budget exhausted by attempts that died "
                       "with their workers",
                    attempts=attempts, worker=worker_id)
                continue
            self._write_json(self._state_path(key),
                             {"attempts": attempts + 1,
                              "not_before": 0.0,
                              "error": state.get("error")})
            return Claim(spec=JobSpec.from_json(job["spec"]), key=key,
                         attempt=attempts + 1, worker=worker_id,
                         policy=policy)
        return None

    def release(self, key: str, error: Optional[str] = None,
                not_before: float = 0.0) -> None:
        """Give a leased job back (retryable failure or clean handoff)."""
        state = self._read_json(self._state_path(key)) or {}
        self._write_json(self._state_path(key),
                         {"attempts": int(state.get("attempts", 0)),
                          "not_before": not_before,
                          "error": error if error is not None
                          else state.get("error")})
        self._remove(self._lease_path(key))

    def renew(self, key: str, worker: str) -> bool:
        """Push the lease's deadline ``lease_ttl`` seconds out; False,
        writing nothing, when ``worker`` no longer owns the lease."""
        path = self._lease_path(key)
        lease = self._read_json(path)
        if lease is None or lease.get("owner") != worker:
            return False
        lease["deadline"] = time.time() + self.lease_ttl
        self._write_json(path, lease)
        return True

    def complete(self, key: str, worker: str, elapsed: float = 0.0,
                 attempts: int = 1) -> None:
        """Mark a leased job done (its rows are already in the store)."""
        self._write_json(self._done_path(key),
                         {"status": "ok", "worker": worker,
                          "elapsed": round(elapsed, 6),
                          "attempts": attempts, "error": None})
        self._remove(self._state_path(key))
        self._remove(self._lease_path(key))

    def finish_failed(self, key: str, error: str, attempts: int,
                      worker: Optional[str] = None,
                      elapsed: float = 0.0) -> None:
        """Record a terminal failure (retry budget exhausted)."""
        self._write_json(self._done_path(key),
                         {"status": "failed", "worker": worker,
                          "elapsed": round(elapsed, 6), "attempts": attempts,
                          "error": error})
        self._remove(self._state_path(key))
        self._remove(self._lease_path(key))

    # -- the lease protocol ---------------------------------------------

    def _lease_live(self, lease: dict, now: float) -> bool:
        if float(lease.get("deadline", 0.0)) <= now:
            return False  # expired, whoever held it
        if lease.get("host") == self._host:
            pid = lease.get("pid")
            if isinstance(pid, int) and not _pid_alive(pid):
                return False  # same-host owner is gone
        return True

    def _acquire_lease(self, key: str, worker_id: str) -> bool:
        """Lease ``key`` to ``worker_id``, stealing a stale lease.  It is
        staged in full and linked into place, so none is ever read
        half-written (and taken for a torn one)."""
        path = self._lease_path(key)
        now = time.time()
        existing = self._read_json(path)
        if existing is not None and self._lease_live(existing, now):
            return False  # the common case: skip without writing
        staged = path.with_name(f".{path.name}.{os.getpid()}.lease")
        self._write_json(staged, {"owner": worker_id, "host": self._host,
                                  "pid": os.getpid(), "acquired": now,
                                  "deadline": now + self.lease_ttl})
        try:
            if self._link(staged, path):
                return True
            existing = self._read_json(path)
            if existing is not None and self._lease_live(existing, now):
                return False
            # Stale (expired, dead owner, or unreadable): move it aside
            # so exactly one of several racing claimants proceeds.
            tomb = path.with_name(f".steal.{key}.{os.getpid()}")
            try:
                os.replace(path, tomb)
            except FileNotFoundError:
                return False  # a racing claimant already stole it
            if self._read_json(tomb) != existing:
                # A racer stole the stale lease and re-leased the job
                # between our read and our move: put its lease back.
                self._link(tomb, path)
                self._remove(tomb)
                return False
            self._remove(tomb)
            return self._link(staged, path)
        finally:
            self._remove(staged)

    @staticmethod
    def _link(source: Path, target: Path) -> bool:
        """Create ``target`` as a hard link to ``source`` unless it exists."""
        try:
            os.link(source, target)
        except FileExistsError:
            return False
        return True

    # -- introspection ---------------------------------------------------

    def _keys_in(self, sub: str) -> List[str]:
        """The keys with a sidecar in ``sub`` (one directory listing)."""
        try:
            names = os.listdir(self.root / sub)
        except FileNotFoundError:
            return []
        return sorted(name[:-5] for name in names if name.endswith(".json"))

    def job_keys(self) -> List[str]:
        return self._keys_in("jobs")

    def outcome(self, key: str) -> Optional[dict]:
        """The terminal outcome of ``key`` (None while still pending)."""
        return self._read_json(self._done_path(key))

    def lease_info(self, key: str) -> Optional[dict]:
        return self._read_json(self._lease_path(key))

    def remaining(self, keys: Optional[Sequence[str]] = None) -> List[str]:
        """Keys without a terminal outcome yet (subset of ``keys``)."""
        candidates = sorted(keys) if keys is not None else self.job_keys()
        done = set(self._keys_in("done"))
        return [key for key in candidates if key not in done]

    def stats(self) -> dict:
        """Queue census: jobs / done / failed / leased / ready counts."""
        now = time.time()
        keys = self.job_keys()
        done = failed = leased = ready = backing_off = 0
        for key in keys:
            outcome = self.outcome(key)
            if outcome is not None:
                done += 1
                if outcome.get("status") == "failed":
                    failed += 1
                continue
            lease = self.lease_info(key)
            if lease is not None and self._lease_live(lease, now):
                leased += 1
                continue
            state = self._read_json(self._state_path(key)) or {}
            if state.get("not_before", 0.0) > now:
                backing_off += 1
            else:
                ready += 1
        return {"jobs": len(keys), "done": done, "failed": failed,
                "leased": leased, "backing_off": backing_off,
                "ready": ready}

    def clean(self) -> int:
        """Delete every queue file; returns the number removed."""
        removed = 0
        for sub in ("jobs", "leases", "state", "done"):
            directory = self.root / sub
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*")):
                self._remove(path)
                removed += 1
        return removed
