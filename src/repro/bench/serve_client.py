"""The benchmark's own client for the prediction service.

It is built so the client costs as little as possible while it sends:
request lines are encoded before the clock starts, responses are kept as
raw chunks with their arrival times, and decoding and verification happen
only after the load has finished.  Every non-degraded load response is
checked against interpreter ground truth — the value the functional
interpreter committed.

Two load shapes:

* :func:`replay` — closed loop: each session keeps ``window`` records in
  flight and sends the next as responses arrive, so the pass takes as
  long as the server needs to answer a fixed record set.
* :func:`open_loop` — open loop: seeded Poisson due times at a fixed
  rate; latency is timed from each record's *due* time, so a stalled
  generator shows up as latency instead of silently sending later
  (coordinated omission), and the generator's own lateness is reported.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.clock import cpu_now, now
from repro.serve import protocol
from repro.serve.protocol import MSG_GOODBYE, MSG_PRED, MSG_WELCOME
from repro.trace.records import DynInst
from repro.trace.serialize import encode_value, format_record

HOST = "127.0.0.1"
_BYE = protocol.encode({"t": protocol.MSG_BYE})
_CHUNK = 1 << 16


@dataclass
class SessionLoad:
    """One session's pre-encoded requests and their ground truth."""

    lines: List[bytes]
    truth: List[Optional[str]]   # committed value-token of each load


def session_load(records: Sequence[DynInst]) -> SessionLoad:
    lines, truth = [], []
    for index, inst in enumerate(records):
        lines.append(protocol.encode({"t": protocol.MSG_RECORD, "i": index,
                                      "r": format_record(inst)}))
        truth.append(encode_value(inst.value) if inst.is_load else None)
    return SessionLoad(lines, truth)


@dataclass
class SessionRun:
    """What one session sent and received, undecoded."""

    name: str
    sends: List[Tuple[int, float]] = field(default_factory=list)
    chunks: List[Tuple[float, bytes]] = field(default_factory=list)


@dataclass
class Verdict:
    """The verified outcome of one or more sessions."""

    sent: int = 0
    degraded: Dict[str, int] = field(default_factory=dict)
    errors: int = 0           # protocol errors and unexpected messages
    unanswered: int = 0
    violations: int = 0       # committed value differs from ground truth

    @property
    def failed(self) -> int:
        return (sum(self.degraded.values()) + self.errors + self.unanswered
                + self.violations)

    @property
    def correct(self) -> bool:
        return self.violations == 0 and self.errors == 0 \
            and self.unanswered == 0

    def __str__(self) -> str:
        return (f"{self.violations} violations, {self.errors} protocol "
                f"errors, {self.unanswered} unanswered of {self.sent}")


def verify(load: SessionLoad, run: SessionRun, verdict: Verdict
           ) -> List[float]:
    """Decode ``run``'s responses into ``verdict``; returns each record's
    arrival time (0.0 unless it was answered through the predictor)."""
    arrivals = [0.0] * len(load.lines)
    answered = [False] * len(load.lines)
    verdict.sent += len(load.lines)
    goodbye = False
    tail = b""
    for arrived, chunk in run.chunks:
        lines = (tail + chunk).split(b"\n")
        tail = lines.pop()
        for line in lines:
            try:
                message = protocol.decode(line)
            except protocol.ProtocolError:
                verdict.errors += 1
                continue
            kind = message["t"]
            index = message.get("i")
            if kind == MSG_GOODBYE:
                goodbye = True
            elif (kind != MSG_PRED or not isinstance(index, int)
                  or not 0 <= index < len(answered) or answered[index]):
                verdict.errors += 1
            else:
                answered[index] = True
                if message.get("degraded"):
                    reason = str(message.get("reason"))
                    verdict.degraded[reason] = \
                        verdict.degraded.get(reason, 0) + 1
                    continue
                arrivals[index] = arrived
                expected = load.truth[index]
                if expected is not None and message.get("committed") \
                        != expected:
                    verdict.violations += 1
    verdict.unanswered += answered.count(False)
    if tail or not goodbye:
        verdict.errors += 1
    return arrivals


def send_times(run: SessionRun, count: int) -> List[float]:
    """When each record was written: expands ``run.sends`` batches."""
    times = [0.0] * count
    bounds = run.sends + [(count, 0.0)]
    for (first, sent), (stop, _) in zip(bounds, bounds[1:]):
        times[first:stop] = [sent] * (stop - first)
    return times


async def _open(port: int, name: str):
    reader, writer = await asyncio.open_connection(HOST, port,
                                                   limit=protocol.MAX_LINE)
    writer.write(protocol.encode({"t": protocol.MSG_HELLO,
                                  "proto": protocol.PROTO_VERSION,
                                  "session": name}))
    welcome = await protocol.recv(reader)
    if welcome is None or welcome.get("t") != MSG_WELCOME:
        writer.close()
        raise ConnectionError(f"session {name!r} refused: {welcome!r}")
    return reader, writer


async def _finish(reader, writer, run: SessionRun) -> None:
    """Say bye and keep every byte until the server closes."""
    try:
        writer.write(_BYE)
        while True:
            chunk = await reader.read(_CHUNK)
            if not chunk:
                return
            run.chunks.append((now(), chunk))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _receive(reader, run: SessionRun, total: int) -> None:
    """Keep raw chunks until ``total`` response lines have arrived."""
    answered = 0
    while answered < total:
        chunk = await reader.read(_CHUNK)
        if not chunk:
            return
        run.chunks.append((now(), chunk))
        answered += chunk.count(b"\n")


async def _closed_session(reader, writer, run: SessionRun,
                          load: SessionLoad, window: int) -> None:
    total = len(load.lines)
    sent = min(window, total)
    run.sends.append((0, now()))
    writer.write(b"".join(load.lines[:sent]))
    answered = 0
    while answered < total:
        chunk = await reader.read(_CHUNK)
        if not chunk:
            break
        arrived = now()
        run.chunks.append((arrived, chunk))
        answered += chunk.count(b"\n")
        top = min(total, answered + window)
        if top > sent:
            run.sends.append((sent, arrived))
            writer.write(b"".join(load.lines[sent:top]))
            sent = top
    await _finish(reader, writer, run)


async def _scheduled_session(reader, writer, run: SessionRun,
                             load: SessionLoad, due: List[float]) -> None:
    async def send() -> None:
        index, total = 0, len(due)
        while index < total:
            moment = now()
            if due[index] > moment:
                await asyncio.sleep(due[index] - moment)
                moment = now()
            stop = index + 1
            while stop < total and due[stop] <= moment:
                stop += 1
            run.sends.append((index, moment))
            writer.write(b"".join(load.lines[index:stop]))
            index = stop

    await asyncio.gather(send(), _receive(reader, run, len(due)))
    await _finish(reader, writer, run)


async def _connect_all(port: int, names: Sequence[str]) -> list:
    return [await _open(port, name) for name in names]


async def _replay(port: int, loads: Sequence[Tuple[str, SessionLoad]],
                  window: int) -> Tuple[float, List[SessionRun]]:
    conns = await _connect_all(port, [name for name, _ in loads])
    runs = [SessionRun(name) for name, _ in loads]
    start = now()
    await asyncio.gather(*(
        _closed_session(reader, writer, run, load, window)
        for (reader, writer), run, (_, load) in zip(conns, runs, loads)))
    return now() - start, runs


def replay(port: int, loads: Sequence[Tuple[str, SessionLoad]],
           window: int) -> Tuple[float, List[SessionRun]]:
    """Closed-loop pass: seconds from the first send until every session
    is answered and closed, plus the raw session runs for
    :func:`verify`.  Connections open before the clock starts."""
    return asyncio.run(_replay(port, loads, window))


@dataclass
class OpenLoopResult:
    latencies_ms: List[float]     # answered, non-degraded records
    late_ms: List[float]          # send time minus due time, every record
    cpu_frac: float               # client CPU seconds per wall second
    verdict: Verdict


async def _open_loop(port: int, loads: Sequence[Tuple[str, SessionLoad]],
                     rate: float, seconds: float, rng: random.Random
                     ) -> OpenLoopResult:
    per_session = rate / len(loads)
    count = int(per_session * seconds)
    steps = [SessionLoad(load.lines[:count], load.truth[:count])
             for _, load in loads]
    if any(len(step.lines) < count for step in steps):
        raise ValueError(f"open loop needs {count} records per session")
    gaps = [[rng.expovariate(per_session) for _ in range(count)]
            for _ in steps]
    conns = await _connect_all(port, [name for name, _ in loads])
    runs = [SessionRun(name) for name, _ in loads]
    begin = now() + 0.01    # leaves time to build the schedule below
    dues = [list(itertools.accumulate(gap, initial=begin))[1:]
            for gap in gaps]
    cpu_start, start = cpu_now(), now()
    await asyncio.gather(*(
        _scheduled_session(reader, writer, run, step, due)
        for (reader, writer), run, step, due
        in zip(conns, runs, steps, dues)))
    cpu_frac = (cpu_now() - cpu_start) / (now() - start)

    verdict = Verdict()
    latencies, late = [], []
    for run, step, due in zip(runs, steps, dues):
        arrivals = verify(step, run, verdict)
        late.extend((sent - when) * 1000.0
                    for sent, when in zip(send_times(run, count), due))
        latencies.extend((arrived - when) * 1000.0
                         for arrived, when in zip(arrivals, due)
                         if arrived > 0.0)
    return OpenLoopResult(latencies, late, cpu_frac, verdict)


def open_loop(port: int, loads: Sequence[Tuple[str, SessionLoad]],
              rate: float, seconds: float, seed: int) -> OpenLoopResult:
    """Open-loop step: ``rate`` records/s in total, split evenly over the
    sessions, for ``seconds``, with Poisson arrivals drawn from ``seed``."""
    return asyncio.run(_open_loop(port, loads, rate, seconds,
                                  random.Random(seed)))
