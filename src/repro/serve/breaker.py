"""A circuit breaker around the per-session simulation backend.

Closed → open after ``fail_threshold`` consecutive backend failures;
while open, records are answered ``degraded: breaker-open`` without
touching the backend.  After a cooldown the breaker goes half-open and
admits one trial record: success closes it, failure re-opens it with a
longer cooldown.

Cooldowns reuse :func:`repro.harness.jobs.retry_backoff_delay` —
exponential in the number of times this breaker has opened, with
deterministic jitter hashed from a per-session :class:`JobSpec` identity.
Two sessions tripping together therefore *de-synchronize* their retry
probes (no thundering herd on a struggling backend), yet any given
session's backoff schedule is exactly reproducible from its name.
"""

from __future__ import annotations

from repro.harness.jobs import JobSpec, retry_backoff_delay

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with deterministic backoff.

    Time is passed in by the caller (the session worker reads the
    package clock once per record), which keeps the breaker a pure state
    machine — trivially testable with a fake clock.
    """

    def __init__(self, name: str, *, fail_threshold: int = 3,
                 base_delay: float = 0.05, max_delay: float = 2.0) -> None:
        if fail_threshold < 1:
            raise ValueError(f"fail_threshold must be >= 1, "
                             f"got {fail_threshold}")
        if base_delay <= 0 or max_delay < base_delay:
            raise ValueError(f"need 0 < base_delay <= max_delay, "
                             f"got {base_delay} / {max_delay}")
        # the breaker is not a grid job; the spec exists purely so the
        # backoff jitter is hashed from the same serialized identity the
        # harness uses, making per-session schedules stable and distinct
        self._spec = JobSpec(artefact="serve.breaker", workload=name,
                             scale=1.0)
        self.fail_threshold = fail_threshold
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.state = STATE_CLOSED
        self.failures = 0       # consecutive failures while closed
        self.opens = 0          # times tripped (drives the backoff exponent)
        self.open_until = 0.0

    def allow(self, now: float) -> bool:
        """May the next record hit the backend at time ``now``?"""
        if self.state == STATE_CLOSED:
            return True
        if now >= self.open_until:
            self.state = STATE_HALF_OPEN  # admit one trial record
            return True
        return False

    def record_success(self) -> None:
        """The backend served a record; close (and reset the streak)."""
        self.failures = 0
        self.opens = 0
        self.state = STATE_CLOSED

    def record_failure(self, now: float) -> float:
        """The backend failed a record; returns the new cooldown (0 if
        the breaker stayed closed)."""
        if self.state == STATE_HALF_OPEN:
            return self._trip(now)  # the trial failed: straight back open
        self.failures += 1
        if self.failures >= self.fail_threshold:
            return self._trip(now)
        return 0.0

    def _trip(self, now: float) -> float:
        self.opens += 1
        delay = min(self.max_delay,
                    retry_backoff_delay(self._spec, self.opens,
                                        self.base_delay))
        self.state = STATE_OPEN
        self.open_until = now + delay
        self.failures = 0
        return delay
