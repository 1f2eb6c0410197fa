"""The asyncio prediction server: admission, shedding, breaker, drain.

Connection anatomy — two tasks per session, one bounded queue between:

* the **reader** parses wire messages and *admits* records.  Admission
  is where overload is absorbed: a record that finds the session queue
  full is answered ``degraded: queue-full`` immediately (a synchronous
  write, so shedding itself can never block on a slow backend), and
  while the server drains every new record is answered
  ``degraded: draining``.
* the **worker** consumes the queue in order: checks the record's
  deadline against its arrival time, consults the circuit breaker, runs
  the record through the session's private engine, and responds.  Worker
  writes ``await drain()``, so response delivery is part of service time
  and a slow socket applies backpressure to processing, not to shedding.

A client that stops reading its responses is cut off once the socket
write buffer passes :data:`MAX_WRITE_BUFFER` — bounded memory per
session, by construction.

Graceful drain (``SIGTERM``): stop accepting connections, answer new
records ``degraded: draining``, let every session worker flush its
queued backlog, send ``goodbye``, and only then exit — bounded by
``drain_grace`` seconds, after which stragglers are cancelled.
"""

from __future__ import annotations

import asyncio
import logging
import signal
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.chaos.oracle import CommitRule
from repro.core.cloaking import CloakingConfig
from repro.serve import protocol
from repro.serve.clock import now
from repro.serve.protocol import (
    MSG_BYE,
    MSG_CHAOS,
    MSG_CHAOS_ACK,
    MSG_GOODBYE,
    MSG_HELLO,
    MSG_RECORD,
    MSG_STATS,
    MSG_STATS_REPLY,
    PROTO_VERSION,
    REASON_BACKEND,
    REASON_BREAKER,
    REASON_DEADLINE,
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    DEGRADED_REASONS,
    ProtocolError,
    degraded_response,
    error_response,
    prediction_response,
)
from repro.serve.session import BackendError, Session
from repro.trace.serialize import TraceFormatError, parse_record_line

logger = logging.getLogger(__name__)

#: per-connection outbound buffer cap; past this the client is not
#: reading and the connection is aborted (slow-consumer protection)
MAX_WRITE_BUFFER = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Operational envelope of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                 # 0 = ephemeral (tests/drills)
    max_sessions: int = 64        # admission control
    queue_depth: int = 64         # bounded per-session inbound queue
    deadline_ms: Optional[float] = 250.0  # default per-record deadline
    service_delay: float = 0.0    # modelled per-record backend cost (s)
    breaker_threshold: int = 3
    breaker_base_delay: float = 0.05
    breaker_max_delay: float = 2.0
    allow_chaos: bool = False     # honour chaos messages (drills only)
    drain_grace: float = 5.0      # seconds to flush sessions on drain
    handshake_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, "
                             f"got {self.max_sessions}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, "
                             f"got {self.queue_depth}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive or None, "
                             f"got {self.deadline_ms}")
        if self.service_delay < 0:
            raise ValueError(f"service_delay must be >= 0, "
                             f"got {self.service_delay}")
        if self.drain_grace <= 0:
            raise ValueError(f"drain_grace must be positive, "
                             f"got {self.drain_grace}")


@dataclass
class ServerStats:
    """Whole-server counters (aggregated across sessions)."""

    sessions_opened: int = 0
    sessions_rejected: int = 0
    sessions_closed: int = 0
    records: int = 0
    predicted: int = 0
    breaker_opens: int = 0
    degraded: Dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in DEGRADED_REASONS})

    @property
    def degraded_total(self) -> int:
        return sum(self.degraded.values())

    def as_dict(self) -> dict:
        return {"sessions_opened": self.sessions_opened,
                "sessions_rejected": self.sessions_rejected,
                "sessions_closed": self.sessions_closed,
                "records": self.records, "predicted": self.predicted,
                "degraded": dict(self.degraded),
                "degraded_total": self.degraded_total,
                "breaker_opens": self.breaker_opens}


class PredictionServer:
    """Serve per-session cloaking predictions over a socket."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 cloaking: Optional[CloakingConfig] = None,
                 commit_rule: Optional[CommitRule] = None) -> None:
        self.config = config or ServeConfig()
        self.cloaking = cloaking or CloakingConfig.paper_accuracy()
        self.commit_rule = commit_rule  # None = verified_commit
        self.stats = ServerStats()
        self.port: Optional[int] = None
        self._sessions: Dict[str, Session] = {}
        self._handler_tasks: Set[asyncio.Task] = set()
        self._flush_tasks: Set[asyncio.Task] = set()
        self._session_counter = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_requested: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind and start accepting connections; sets :attr:`port`."""
        self._drain_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=protocol.MAX_LINE)
        self.port = self._server.sockets[0].getsockname()[1]

    def begin_drain(self) -> None:
        """Flip into drain mode (idempotent; safe from a signal handler).

        Stops accepting connections and schedules a flush sentinel into
        every live session queue — queued records are still served, new
        ones are answered ``degraded: draining``.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        for session in list(self._sessions.values()):
            # Retain the flush tasks: a dropped ensure_future handle can
            # be garbage-collected before it runs, silently losing the
            # flush sentinel (and its exception, if the put fails).
            task = asyncio.ensure_future(
                session.queue.put(("flush", None, 0.0)))
            self._flush_tasks.add(task)
            task.add_done_callback(self._flush_tasks.discard)
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def drain(self) -> bool:
        """Complete a drain: flush sessions, bounded by ``drain_grace``.

        Returns ``True`` when every session flushed within the grace
        window, ``False`` when stragglers had to be cancelled.
        """
        self.begin_drain()
        if self._server is not None:
            await self._server.wait_closed()
        deadline = now() + self.config.drain_grace
        while self._handler_tasks and now() < deadline:
            await asyncio.sleep(0.005)
        clean = not self._handler_tasks
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            await asyncio.gather(*self._handler_tasks,
                                 return_exceptions=True)
        for task in list(self._flush_tasks):
            task.cancel()
        if self._flush_tasks:
            await asyncio.gather(*self._flush_tasks,
                                 return_exceptions=True)
        return clean

    async def run(self, install_signals: bool = True) -> bool:
        """Start, serve until a drain is requested, then drain.

        With ``install_signals`` the drain triggers are SIGTERM/SIGINT
        (the operational entry point — ``python -m repro.serve serve``);
        tests call :meth:`begin_drain` directly.  Returns the drain's
        cleanliness flag.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.begin_drain)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            assert self._drain_requested is not None
            await self._drain_requested.wait()
            return await self.drain()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # drain grace expired; close without goodbye
        except Exception:
            # one broken connection must never take the server down
            logger.exception("connection handler failed")
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            await self._close(writer)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        session = await self._admit(reader, writer)
        if session is None:
            return
        reader_task = asyncio.create_task(
            self._session_reader(session, reader, writer))
        try:
            await self._session_worker(session, writer)
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._sessions.pop(session.name, None)
            self.stats.sessions_closed += 1

    async def _admit(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> Optional[Session]:
        """Handshake + admission control; None means rejected/bad."""
        try:
            hello = await asyncio.wait_for(protocol.recv(reader),
                                           self.config.handshake_timeout)
        except (ProtocolError, asyncio.TimeoutError, ConnectionError):
            return None
        if hello is None or hello.get("t") != MSG_HELLO:
            await self._send_quiet(writer, error_response(
                "expected a hello message first"))
            return None
        if hello.get("proto") != PROTO_VERSION:
            await self._send_quiet(writer, error_response(
                f"unsupported protocol {hello.get('proto')!r}; "
                f"this server speaks {PROTO_VERSION}"))
            return None
        self._session_counter += 1
        name = str(hello.get("session") or f"s{self._session_counter}")
        refusal = None
        if self._draining:
            refusal = "draining"
        elif len(self._sessions) >= self.config.max_sessions:
            refusal = "sessions-full"
        elif name in self._sessions:
            refusal = "name-taken"
        if refusal is not None:
            self.stats.sessions_rejected += 1
            await self._send_quiet(writer, {"t": protocol.MSG_BUSY,
                                            "reason": refusal})
            return None
        deadline_ms = hello.get("deadline_ms", self.config.deadline_ms)
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
        session = Session(
            name, queue_depth=self.config.queue_depth,
            deadline_ms=deadline_ms, cloaking=self.cloaking,
            commit_rule=self.commit_rule,
            service_delay=self.config.service_delay,
            breaker_threshold=self.config.breaker_threshold,
            breaker_base_delay=self.config.breaker_base_delay,
            breaker_max_delay=self.config.breaker_max_delay)
        self._sessions[name] = session
        self.stats.sessions_opened += 1
        await protocol.send(writer, {
            "t": protocol.MSG_WELCOME, "session": name,
            "proto": PROTO_VERSION, "queue_depth": self.config.queue_depth,
            "deadline_ms": deadline_ms})
        return session

    # -- the reader task: parse + admit ----------------------------------

    async def _session_reader(self, session: Session,
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    message = await protocol.recv(reader)
                except ProtocolError as exc:
                    session.stats.bad_records += 1
                    self._write(writer, error_response(str(exc)))
                    continue
                except ConnectionError:
                    break
                if message is None or message["t"] == MSG_BYE:
                    break
                await self._dispatch(session, writer, message)
        finally:
            # bye or EOF: one flush sentinel, behind any queued backlog
            try:
                await session.queue.put(("flush", None, 0.0))
            except asyncio.CancelledError:
                raise

    async def _dispatch(self, session: Session,
                        writer: asyncio.StreamWriter, message: dict) -> None:
        kind = message["t"]
        if kind == MSG_RECORD:
            self._admit_record(session, writer, message)
        elif kind in (MSG_CHAOS, MSG_STATS):
            if kind == MSG_CHAOS and not self.config.allow_chaos:
                self._write(writer, error_response(
                    "chaos injection is disabled on this server",
                    message.get("i")))
            elif self._draining:
                self._write(writer, error_response("draining",
                                                   message.get("i")))
            else:
                # control messages are not shed: the reader awaits queue
                # space, which is exactly the explicit backpressure a
                # drill operator wants for faults and stats probes
                await session.queue.put((kind, message, now()))
        elif kind == MSG_HELLO:
            self._write(writer, error_response("session already open"))
        else:
            self._write(writer, error_response(
                f"unknown message type {kind!r}"))

    def _admit_record(self, session: Session, writer: asyncio.StreamWriter,
                      message: dict) -> None:
        index = message.get("i")
        if not isinstance(index, int):
            session.stats.bad_records += 1
            self._write(writer, error_response(
                "rec without an integer 'i' field"))
            return
        session.stats.records += 1
        self.stats.records += 1
        if self._draining:
            self._shed(session, writer, index, REASON_DRAINING)
            return
        try:
            session.queue.put_nowait(("rec", message, now()))
        except asyncio.QueueFull:
            self._shed(session, writer, index, REASON_QUEUE_FULL)

    def _shed(self, session: Session, writer: asyncio.StreamWriter,
              index: int, reason: str) -> None:
        """Answer a record degraded *now*, without touching the backend."""
        self._count_degraded(session, reason)
        self._write(writer, degraded_response(index, reason))

    def _count_degraded(self, session: Session, reason: str) -> None:
        session.stats.degraded[reason] += 1
        self.stats.degraded[reason] += 1

    # -- the worker task: deadline, breaker, backend ---------------------

    async def _session_worker(self, session: Session,
                              writer: asyncio.StreamWriter) -> None:
        flushing = False
        while True:
            if flushing:
                # drain semantics: serve what is already queued, then go
                try:
                    kind, message, enqueued = session.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                kind, message, enqueued = await session.queue.get()
            if kind == "flush":
                flushing = True
            elif kind == "rec":
                await self._serve_record(session, writer, message, enqueued)
            elif kind == MSG_CHAOS:
                await self._serve_chaos(session, writer, message)
            elif kind == MSG_STATS:
                await self._send_quiet(writer, dict(
                    {"t": MSG_STATS_REPLY}, **session.snapshot()))
        await self._send_quiet(writer, dict(
            {"t": MSG_GOODBYE}, **session.snapshot()))

    async def _serve_record(self, session: Session,
                            writer: asyncio.StreamWriter,
                            message: dict, enqueued: float) -> None:
        index = message["i"]
        deadline_ms = message.get("deadline_ms", session.deadline_ms)
        if (deadline_ms is not None
                and (now() - enqueued) * 1000.0 > float(deadline_ms)):
            self._count_degraded(session, REASON_DEADLINE)
            await self._send_quiet(writer,
                                   degraded_response(index, REASON_DEADLINE))
            return
        if not session.breaker.allow(now()):
            self._count_degraded(session, REASON_BREAKER)
            await self._send_quiet(writer,
                                   degraded_response(index, REASON_BREAKER))
            return
        try:
            inst = parse_record_line(str(message.get("r", "")))
        except TraceFormatError as exc:
            session.stats.bad_records += 1
            await self._send_quiet(writer, error_response(
                f"bad record: {exc}", index))
            return
        try:
            outcome, committed = await session.backend.observe(inst)
        except BackendError:
            delay = session.breaker.record_failure(now())
            if delay > 0:
                session.stats.breaker_opens += 1
                self.stats.breaker_opens += 1
            self._count_degraded(session, REASON_BACKEND)
            await self._send_quiet(writer,
                                   degraded_response(index, REASON_BACKEND))
            return
        session.breaker.record_success()
        session.stats.predicted += 1
        self.stats.predicted += 1
        await self._send_quiet(writer,
                               prediction_response(index, outcome, committed))

    async def _serve_chaos(self, session: Session,
                           writer: asyncio.StreamWriter,
                           message: dict) -> None:
        model = str(message.get("model", ""))
        seed = int(message.get("seed", 0))
        count = int(message.get("count", 1))
        try:
            target = session.apply_chaos(model, seed, count)
        except ValueError as exc:
            await self._send_quiet(writer, error_response(
                str(exc), message.get("i")))
            return
        await self._send_quiet(writer, {
            "t": MSG_CHAOS_ACK, "model": model, "target": target,
            "i": message.get("i")})

    # -- plumbing --------------------------------------------------------

    def _write(self, writer: asyncio.StreamWriter, message: dict) -> None:
        """Synchronous best-effort write (the shed path must not block)."""
        if writer.is_closing():
            return
        writer.write(protocol.encode(message))
        transport = writer.transport
        if (transport is not None
                and transport.get_write_buffer_size() > MAX_WRITE_BUFFER):
            transport.abort()  # slow consumer: bounded memory wins

    async def _send_quiet(self, writer: asyncio.StreamWriter,
                          message: dict) -> None:
        """``protocol.send`` that tolerates a vanished client."""
        try:
            await protocol.send(writer, message)
        except (ConnectionError, RuntimeError):
            pass

    async def _close(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
