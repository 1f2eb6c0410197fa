"""Execution backends: *where* the scheduler's jobs run.

The scheduler owns job decomposition, cache lookups, aggregation order
and the manifest; a backend owns execution placement:

* ``inline`` — jobs run serially in the calling process (``workers=0``).
* ``fork``   — one crash-isolated forked child per job, with timeout,
  SIGTERM→SIGKILL escalation and bounded retry (``workers>=1``).
* ``worker`` — jobs are serialized into a persistent leased work queue
  and drained by N worker processes, on this host or any host sharing
  the store directory.

All three produce byte-identical reports for the same grid — the rows
travel through the same store serialization and are recomposed in the
same paper order.
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
    if name == "fork":
        from repro.harness.backends.fork import ForkBackend

        return ForkBackend(config)
    if name == "worker":
        from repro.harness.backends.worker import WorkerBackend

        return WorkerBackend(config, queue_dir=queue_dir,
                             lease_ttl=lease_ttl)
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
