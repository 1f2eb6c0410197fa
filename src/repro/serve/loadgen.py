"""The load generator: realistic traffic shapes plus a verifying client.

Traffic shapes (constant / burst / wave / random-walk) are compiled into
a deterministic *send plan* — a list of (time offset, phase label)
slots — from a seed, so a load run is exactly reproducible.  The client
is also an oracle: every record it streams carries its ground-truth
value (the trace comes from the functional interpreter), so for every
non-degraded load response it checks the server's committed value-token
against truth.  Any mismatch is a committed-state violation — the wire
form of the differential oracle in :mod:`repro.chaos.oracle`.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.clock import now
from repro.serve.protocol import (
    DEGRADED_REASONS,
    MSG_BUSY,
    MSG_CHAOS_ACK,
    MSG_ERROR,
    MSG_GOODBYE,
    MSG_PRED,
    MSG_WELCOME,
    PROTO_VERSION,
)
from repro.trace.serialize import encode_value, format_record
from repro.workloads import get_workload

TRAFFIC_SHAPES = ("constant", "burst", "wave", "random-walk")

#: seconds per rate slot when compiling shapes into send plans
SLOT = 0.02


@dataclass(frozen=True)
class SendSlot:
    """One planned send: offset from session start, phase label."""

    offset: float
    phase: str


def plan_from_phases(phases: Sequence[Tuple[str, float, float]],
                     slot: float = SLOT) -> List[SendSlot]:
    """Compile explicit ``(phase, rate, duration)`` windows into sends.

    Records are spaced evenly inside each slot with fractional-rate
    carry, so a rate of 150/s at a 20 ms slot emits exactly 3 records per
    slot — no aliasing, no randomness.
    """
    sends: List[SendSlot] = []
    start = 0.0
    for phase, rate, duration in phases:
        if rate < 0 or duration < 0:
            raise ValueError(f"negative rate/duration in phase {phase!r}")
        carry = 0.0
        slots = max(1, int(round(duration / slot)))
        for k in range(slots):
            carry += rate * slot
            emit = int(carry)
            carry -= emit
            for j in range(emit):
                sends.append(SendSlot(start + k * slot + j * slot / emit,
                                      phase))
        start += slots * slot
    return sends


def shape_phases(shape: str, *, base_rate: float, peak_rate: float,
                 duration: float, seed: int = 0,
                 slot: float = SLOT) -> List[Tuple[str, float, float]]:
    """One named traffic shape → explicit phase windows.

    ``burst`` is the canonical soak shape: a baseline third, a burst
    third at ``peak_rate``, and a recovery third back at ``base_rate`` —
    the three windows the p99-recovery criterion compares.  ``wave``
    modulates sinusoidally between base and peak; ``random-walk`` walks
    the rate between them under a seeded :class:`random.Random`.
    """
    if shape == "constant":
        return [("steady", base_rate, duration)]
    if shape == "burst":
        third = duration / 3.0
        return [("baseline", base_rate, third),
                ("burst", peak_rate, third),
                ("recovery", base_rate, third)]
    if shape == "wave":
        mid = (base_rate + peak_rate) / 2.0
        amplitude = (peak_rate - base_rate) / 2.0
        slots = max(1, int(round(duration / slot)))
        return [("wave",
                 mid + amplitude * math.sin(2.0 * math.pi * k / slots),
                 slot)
                for k in range(slots)]
    if shape == "random-walk":
        rng = random.Random(seed)
        step = (peak_rate - base_rate) / 4.0
        rate = base_rate
        phases = []
        slots = max(1, int(round(duration / slot)))
        for _ in range(slots):
            rate = min(peak_rate, max(base_rate,
                                      rate + rng.uniform(-step, step)))
            phases.append(("walk", rate, slot))
        return phases
    raise ValueError(f"unknown traffic shape {shape!r}; "
                     f"known: {', '.join(TRAFFIC_SHAPES)}")


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by rank; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(q * len(ordered))) - 1))
    return ordered[rank]


def kernel_records(workload: str, scale: float,
                   count: int, cycle: int = 2000) -> List[Tuple[str, bool,
                                                                Optional[str]]]:
    """``count`` wire-ready records of a kernel, with ground truth.

    Returns ``(record line, is_load, true value-token)`` triples.  The
    trace is replayed cyclically when shorter than ``count`` — the
    functional interpreter is deterministic, so every replay carries
    identical (and therefore still true) values.
    """
    spec = get_workload(workload)
    records = []
    while len(records) < count:
        produced = len(records)
        for inst in itertools.islice(spec.trace(scale), cycle):
            token = encode_value(inst.value) if inst.is_load else None
            records.append((format_record(inst), inst.is_load, token))
            if len(records) >= count:
                break
        if len(records) == produced:
            raise ValueError(f"workload {workload!r} produced no records")
    return records


@dataclass
class SessionReport:
    """What one client session sent, received and verified."""

    name: str
    sent: int = 0
    responded: int = 0
    predicted: int = 0
    degraded: Dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in DEGRADED_REASONS})
    protocol_errors: int = 0
    violations: List[str] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    chaos_sent: int = 0
    chaos_acked: int = 0
    chaos_armed: int = 0
    rejected: Optional[str] = None   # busy reason, if admission refused
    goodbye: Optional[dict] = None

    @property
    def degraded_total(self) -> int:
        return sum(self.degraded.values())


async def run_session(host: str, port: int, name: str,
                      records: Sequence[Tuple[str, bool, Optional[str]]],
                      plan: Sequence[SendSlot], *,
                      deadline_ms: Optional[float] = None,
                      chaos_plan: Sequence[Tuple[int, str, int]] = (),
                      ) -> SessionReport:
    """Drive one session: paced sends, verified receives.

    ``chaos_plan`` is ``(send index, model, seed)`` triples — each fault
    message goes out immediately before the record with that index, i.e.
    mid-stream into the live session.  The report's ``violations`` list
    is the differential-oracle verdict: a non-degraded load response
    whose committed token differs from the ground-truth token.
    """
    report = SessionReport(name=name)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        hello = {"t": protocol.MSG_HELLO, "proto": PROTO_VERSION,
                 "session": name}
        if deadline_ms is not None:
            hello["deadline_ms"] = deadline_ms
        await protocol.send(writer, hello)
        first = await protocol.recv(reader)
        if first is None or first.get("t") != MSG_WELCOME:
            if first is not None and first.get("t") == MSG_BUSY:
                report.rejected = str(first.get("reason"))
            else:
                report.protocol_errors += 1
            return report
        pending: Dict[int, Tuple[float, Optional[str], str]] = {}
        receiver = asyncio.create_task(
            _receive(reader, report, pending))
        await _send_all(writer, records, plan, chaos_plan, report, pending)
        await protocol.send(writer, {"t": protocol.MSG_BYE})
        await receiver
        report.protocol_errors += len(pending)  # unanswered records
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
    return report


async def _send_all(writer, records, plan, chaos_plan, report, pending):
    chaos_at: Dict[int, List[Tuple[str, int]]] = {}
    for index, model, seed in chaos_plan:
        chaos_at.setdefault(index, []).append((model, seed))
    start = now()
    for index, slot in enumerate(plan):
        if index >= len(records):
            break
        wait = start + slot.offset - now()
        if wait > 0:
            await asyncio.sleep(wait)
        for model, seed in chaos_at.get(index, ()):
            await protocol.send(writer, {
                "t": protocol.MSG_CHAOS, "model": model, "seed": seed,
                "count": 0x10, "i": -1 - report.chaos_sent})
            report.chaos_sent += 1
        line, _, token = records[index]
        pending[index] = (now(), token, slot.phase)
        report.sent += 1
        await protocol.send(writer, {"t": protocol.MSG_RECORD, "i": index,
                                     "r": line})


async def _receive(reader, report: SessionReport,
                   pending: Dict[int, Tuple[float, Optional[str], str]]
                   ) -> None:
    while True:
        try:
            message = await protocol.recv(reader)
        except (protocol.ProtocolError, ConnectionError):
            report.protocol_errors += 1
            return
        if message is None:
            return
        kind = message["t"]
        if kind == MSG_PRED:
            _check_prediction(message, report, pending)
        elif kind == MSG_CHAOS_ACK:
            report.chaos_acked += 1
            if "no eligible" not in str(message.get("target")):
                report.chaos_armed += 1
        elif kind == MSG_GOODBYE:
            report.goodbye = message
            return
        elif kind == MSG_ERROR:
            report.protocol_errors += 1
        elif kind != protocol.MSG_STATS_REPLY:
            report.protocol_errors += 1


def _check_prediction(message: dict, report: SessionReport,
                      pending: Dict[int, Tuple[float, Optional[str], str]]
                      ) -> None:
    entry = pending.pop(message.get("i"), None)
    if entry is None:
        report.protocol_errors += 1  # unknown or duplicate response id
        return
    sent_at, truth_token, phase = entry
    report.responded += 1
    report.latencies.setdefault(phase, []).append(now() - sent_at)
    if message.get("degraded"):
        reason = message.get("reason")
        if reason not in DEGRADED_REASONS:
            report.protocol_errors += 1
            return
        report.degraded[reason] += 1
        return  # predictor bypassed: nothing to verify, by design
    report.predicted += 1
    if truth_token is not None:
        committed = message.get("committed")
        if committed != truth_token:
            report.violations.append(
                f"{report.name}#{message['i']}: committed {committed!r} "
                f"!= true {truth_token!r}")


@dataclass
class LoadReport:
    """Aggregate over all sessions of one load-generation run."""

    sessions: int = 0
    rejected: int = 0
    sent: int = 0
    responded: int = 0
    predicted: int = 0
    degraded: Dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in DEGRADED_REASONS})
    protocol_errors: int = 0
    violations: List[str] = field(default_factory=list)
    chaos_sent: int = 0
    chaos_acked: int = 0
    chaos_armed: int = 0
    duration: float = 0.0
    phase_p50_ms: Dict[str, float] = field(default_factory=dict)
    phase_p99_ms: Dict[str, float] = field(default_factory=dict)
    p50_ms: float = 0.0
    p99_ms: float = 0.0

    @property
    def degraded_total(self) -> int:
        return sum(self.degraded.values())

    @property
    def records_per_sec(self) -> float:
        return self.responded / self.duration if self.duration > 0 else 0.0

    @property
    def sessions_per_sec(self) -> float:
        return self.sessions / self.duration if self.duration > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "sessions": self.sessions, "rejected": self.rejected,
            "sent": self.sent, "responded": self.responded,
            "predicted": self.predicted, "degraded": dict(self.degraded),
            "degraded_total": self.degraded_total,
            "protocol_errors": self.protocol_errors,
            "violations": list(self.violations),
            "chaos_sent": self.chaos_sent, "chaos_acked": self.chaos_acked,
            "chaos_armed": self.chaos_armed,
            "duration_s": self.duration,
            "records_per_sec": self.records_per_sec,
            "sessions_per_sec": self.sessions_per_sec,
            "p50_ms": self.p50_ms, "p99_ms": self.p99_ms,
            "phase_p50_ms": dict(self.phase_p50_ms),
            "phase_p99_ms": dict(self.phase_p99_ms),
        }


def aggregate(reports: Sequence[SessionReport],
              duration: float) -> LoadReport:
    """Fold per-session reports into one :class:`LoadReport`."""
    out = LoadReport(duration=duration)
    phase_samples: Dict[str, List[float]] = {}
    all_samples: List[float] = []
    for report in reports:
        if report.rejected is not None:
            out.rejected += 1
            continue
        out.sessions += 1
        out.sent += report.sent
        out.responded += report.responded
        out.predicted += report.predicted
        for reason, count in report.degraded.items():
            out.degraded[reason] += count
        out.protocol_errors += report.protocol_errors
        out.violations.extend(report.violations)
        out.chaos_sent += report.chaos_sent
        out.chaos_acked += report.chaos_acked
        out.chaos_armed += report.chaos_armed
        for phase in sorted(report.latencies):
            phase_samples.setdefault(phase, []).extend(
                report.latencies[phase])
            all_samples.extend(report.latencies[phase])
    out.p50_ms = percentile(all_samples, 0.50) * 1000.0
    out.p99_ms = percentile(all_samples, 0.99) * 1000.0
    out.phase_p50_ms = {phase: percentile(samples, 0.50) * 1000.0
                        for phase, samples in sorted(phase_samples.items())}
    out.phase_p99_ms = {phase: percentile(samples, 0.99) * 1000.0
                        for phase, samples in sorted(phase_samples.items())}
    return out


async def run_loadgen_async(host: str, port: int, *, sessions: int,
                            shape: str, base_rate: float, peak_rate: float,
                            duration: float, workload: str, scale: float,
                            seed: int,
                            deadline_ms: Optional[float] = None,
                            chaos_models: Sequence[str] = (),
                            ) -> LoadReport:
    """Drive ``sessions`` concurrent clients with one traffic shape."""
    started = now()
    jobs = []
    for k in range(sessions):
        phases = shape_phases(shape, base_rate=base_rate,
                              peak_rate=peak_rate, duration=duration,
                              seed=seed + k)
        plan = plan_from_phases(phases)
        records = kernel_records(workload, scale, len(plan))
        chaos_plan = plan_chaos(plan, chaos_models, seed=seed + k)
        jobs.append(run_session(host, port, f"{workload}-{k}", records,
                                plan, deadline_ms=deadline_ms,
                                chaos_plan=chaos_plan))
    reports = await asyncio.gather(*jobs)
    return aggregate(reports, now() - started)


def plan_chaos(plan: Sequence[SendSlot], models: Sequence[str],
               seed: int) -> List[Tuple[int, str, int]]:
    """Seeded mid-stream fault sites: each model lands once, inside the
    highest-rate stretch of the plan (the burst, for the burst shape),
    where predictor state is warm and the service is under pressure."""
    if not models or not plan:
        return []
    rng = random.Random(seed)
    burst = [k for k, slot in enumerate(plan) if slot.phase == "burst"]
    eligible = burst or list(range(len(plan) // 2, len(plan)))
    sites = sorted(rng.choice(eligible) for _ in models)
    return [(site, model, rng.randrange(1 << 30))
            for site, model in zip(sites, models)]


def run_loadgen(host: str, port: int, **kwargs) -> LoadReport:
    """Synchronous wrapper: one event loop per load-generation run."""
    return asyncio.run(run_loadgen_async(host, port, **kwargs))
