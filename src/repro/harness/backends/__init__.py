"""Execution backends: *where* the scheduler's jobs run.

The scheduler owns job decomposition, cache lookups, aggregation order
and the manifest; a backend owns execution placement:

* ``inline`` — jobs run serially in the calling process (``workers=0``).
* ``fork``   — ``workers`` local queue workers drain a queue in a
  temporary directory that the run owns and removes (``workers>=1``).
* ``worker`` — the same workers on a persistent queue (default
  ``<store>/queue``) that workers on any host sharing the store
  directory can join.

Outside ``inline`` there is one failure model, the queue worker's
(:mod:`repro.harness.worker`): each claim runs in a forked child with a
per-job timeout, SIGTERM→SIGKILL escalation and a lease heartbeat, and
retries are charged in the queue.  All three produce byte-identical
reports for the same grid — the rows travel through the same store
serialization and are recomposed in the same paper order.
"""

from __future__ import annotations

from typing import Optional

from repro.harness.backends.base import (
    BackendConfig,
    ExecutionBackend,
    RunState,
    retry_backoff_delay,
)

#: the names ``make_backend`` (and ``--exec-backend``) accepts
BACKEND_NAMES = ("inline", "fork", "worker")


def make_backend(name: str, config: BackendConfig, *,
                 queue_dir=None,
                 lease_ttl: Optional[float] = None) -> ExecutionBackend:
    """Instantiate the named backend (lazy imports keep startup light)."""
    if name == "inline":
        from repro.harness.backends.inline import InlineBackend

        return InlineBackend(config)
    if name in ("fork", "worker"):
        from repro.harness.backends.worker import WorkerBackend

        return WorkerBackend(config, queue_dir=queue_dir,
                             lease_ttl=lease_ttl, private=name == "fork")
    raise ValueError(f"unknown execution backend {name!r}; "
                     f"known: {', '.join(BACKEND_NAMES)}")


__all__ = [
    "BACKEND_NAMES",
    "BackendConfig",
    "ExecutionBackend",
    "RunState",
    "make_backend",
    "retry_backoff_delay",
]
