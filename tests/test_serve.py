"""Tests for :mod:`repro.serve`: protocol, breaker, server, soak drill."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.chaos.inject import PREDICTOR_FAULTS
from repro.core.cloaking import CloakingConfig, CloakingEngine
from repro.harness.registry import ARTEFACTS
from repro.harness.store import rows_from_payload, rows_to_payload
from repro.serve import artefact, protocol
from repro.serve.__main__ import main as serve_main
from repro.serve.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.serve.loadgen import (
    TRAFFIC_SHAPES,
    SendSlot,
    SessionReport,
    aggregate,
    kernel_records,
    percentile,
    plan_chaos,
    plan_from_phases,
    shape_phases,
)
from repro.serve.protocol import (
    CHAOS_BACKEND_ERROR,
    DEGRADED_REASONS,
    MSG_BUSY,
    MSG_CHAOS_ACK,
    MSG_ERROR,
    MSG_GOODBYE,
    MSG_PRED,
    MSG_WELCOME,
    PROTO_VERSION,
    ProtocolError,
)
from repro.serve.server import PredictionServer, ServeConfig
from repro.serve.session import BackendError, SimulationBackend
from repro.serve.soak import SOAK_FAULTS, SoakRow, run_soak
from repro.trace.serialize import decode_value

WORKLOAD = "com"
SCALE = 0.05


# ---------------------------------------------------------------------------
# async plumbing: every test is a plain sync function driving asyncio.run


def run_async(coro):
    return asyncio.run(coro)


async def _with_server(config, action, **server_kwargs):
    """Start a server, run ``action(server)``, always drain."""
    server = PredictionServer(config, **server_kwargs)
    await server.start()
    try:
        return await action(server)
    finally:
        server.begin_drain()
        await server.drain()


async def _open(server, name=None, proto=PROTO_VERSION, **hello_extra):
    """Connect + handshake; returns (reader, writer, server reply)."""
    reader, writer = await asyncio.open_connection(server.config.host,
                                                   server.port)
    hello = {"t": protocol.MSG_HELLO, "proto": proto}
    if name is not None:
        hello["session"] = name
    hello.update(hello_extra)
    await protocol.send(writer, hello)
    return reader, writer, await protocol.recv(reader)


async def _request(reader, writer, index, line):
    """One record in, one response out (sequential use only)."""
    await protocol.send(writer, {"t": protocol.MSG_RECORD, "i": index,
                                 "r": line})
    return await protocol.recv(reader)


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, RuntimeError):
        pass


async def _bye(reader, writer):
    """Send bye; collect messages through the goodbye."""
    await protocol.send(writer, {"t": protocol.MSG_BYE})
    messages = []
    while True:
        message = await protocol.recv(reader)
        if message is None:
            break
        messages.append(message)
        if message["t"] == MSG_GOODBYE:
            break
    await _close(writer)
    return messages


@pytest.fixture(scope="module")
def records():
    """Wire-ready (line, is_load, truth token) triples of one kernel."""
    return kernel_records(WORKLOAD, SCALE, 40)


@pytest.fixture(scope="module")
def soak_row():
    """One shared passing drill (the drill is ~a second of wall clock)."""
    return run_soak(WORKLOAD, SCALE, window=0.3)


# ---------------------------------------------------------------------------


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"t": "rec", "i": 3, "r": "R 3 4096 0 20"}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_junk(self):
        for line in [b"not json\n", b"[1, 2]\n", b'{"no_type": 1}\n',
                     b'{"t": 7}\n']:
            with pytest.raises(ProtocolError):
                protocol.decode(line)

    def test_degraded_response_requires_known_reason(self):
        for reason in DEGRADED_REASONS:
            reply = protocol.degraded_response(4, reason)
            assert reply["degraded"] is True and reply["committed"] is None
        with pytest.raises(ValueError, match="unknown degraded reason"):
            protocol.degraded_response(4, "overloaded")

    def test_prediction_response_shape(self):
        reply = protocol.prediction_response(9, "correct-rar", "i7")
        assert reply == {"t": MSG_PRED, "i": 9, "degraded": False,
                         "outcome": "correct-rar", "committed": "i7"}


class TestCircuitBreaker:
    def test_stays_closed_below_threshold_and_success_resets(self):
        breaker = CircuitBreaker("a", fail_threshold=3)
        assert breaker.record_failure(0.0) == 0.0
        assert breaker.record_failure(0.0) == 0.0
        breaker.record_success()
        assert breaker.record_failure(0.0) == 0.0  # streak was reset
        assert breaker.state == STATE_CLOSED

    def test_trips_at_threshold_then_half_opens_after_cooldown(self):
        breaker = CircuitBreaker("a", fail_threshold=2, base_delay=0.1)
        breaker.record_failure(0.0)
        delay = breaker.record_failure(0.0)
        assert breaker.state == STATE_OPEN and delay > 0
        assert not breaker.allow(0.0)
        assert breaker.allow(delay)  # cooldown elapsed: one trial admitted
        assert breaker.state == STATE_HALF_OPEN

    def test_half_open_failure_reopens_with_longer_cooldown(self):
        breaker = CircuitBreaker("a", fail_threshold=1, base_delay=0.1,
                                 max_delay=100.0)
        first = breaker.record_failure(0.0)
        breaker.allow(first)
        second = breaker.record_failure(first)
        assert breaker.state == STATE_OPEN
        assert second > first  # exponential in the open count

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker("a", fail_threshold=1)
        delay = breaker.record_failure(0.0)
        breaker.allow(delay)
        breaker.record_success()
        assert breaker.state == STATE_CLOSED and breaker.opens == 0

    def test_backoff_is_deterministic_per_name_and_jittered_across(self):
        delays_a = [CircuitBreaker("a", fail_threshold=1).record_failure(0.0)
                    for _ in range(2)]
        assert delays_a[0] == delays_a[1]
        delay_b = CircuitBreaker("b", fail_threshold=1).record_failure(0.0)
        assert delay_b != delays_a[0]

    def test_cooldown_is_capped_at_max_delay(self):
        breaker = CircuitBreaker("a", fail_threshold=1, base_delay=0.1,
                                 max_delay=0.25)
        for attempt in range(8):
            delay = breaker.record_failure(float(attempt))
            assert delay <= 0.25
            breaker.allow(breaker.open_until)


class TestSimulationBackend:
    def test_poison_raises_before_touching_predictor_state(self, records):
        engine = CloakingEngine(CloakingConfig.paper_accuracy())
        backend = SimulationBackend(engine)
        backend.poison(1)
        line, _, _ = records[0]
        from repro.trace.serialize import parse_record_line

        with pytest.raises(BackendError):
            run_async(backend.observe(parse_record_line(line)))
        assert engine.stats.loads == 0  # fault fired pre-observation
        outcome, _ = run_async(backend.observe(parse_record_line(line)))
        assert outcome is not None  # poison consumed, service restored

    def test_committed_token_is_ground_truth_for_loads(self, records):
        from repro.trace.serialize import parse_record_line

        engine = CloakingEngine(CloakingConfig.paper_accuracy())
        backend = SimulationBackend(engine)

        async def drive():
            out = []
            for line, is_load, token in records:
                out.append((await backend.observe(parse_record_line(line)),
                            is_load, token))
            return out

        for (outcome, committed), is_load, token in run_async(drive()):
            assert committed == token  # None == None for non-loads
            if is_load:
                assert decode_value(committed) == decode_value(token)


class TestServerSessions:
    def test_round_trip_commits_ground_truth(self, records):
        async def action(server):
            reader, writer, welcome = await _open(server, "rt")
            assert welcome["t"] == MSG_WELCOME
            assert welcome["session"] == "rt"
            for index, (line, is_load, token) in enumerate(records):
                reply = await _request(reader, writer, index, line)
                assert reply["t"] == MSG_PRED and reply["i"] == index
                assert reply["degraded"] is False
                assert reply["committed"] == token
            messages = await _bye(reader, writer)
            goodbye = messages[-1]
            assert goodbye["t"] == MSG_GOODBYE
            assert goodbye["stats"]["records"] == len(records)
            assert goodbye["stats"]["predicted"] == len(records)
            assert goodbye["cloaking"]["loads"] > 0

        run_async(_with_server(ServeConfig(), action))

    def test_handshake_rejects_bad_proto_and_missing_hello(self):
        async def action(server):
            _, writer, reply = await _open(server, proto=99)
            assert reply["t"] == MSG_ERROR
            assert "unsupported protocol" in reply["detail"]
            await _close(writer)

            reader, writer = await asyncio.open_connection(
                server.config.host, server.port)
            await protocol.send(writer, {"t": protocol.MSG_RECORD, "i": 0,
                                         "r": "R 0 0 0 0"})
            reply = await protocol.recv(reader)
            assert reply["t"] == MSG_ERROR
            assert "hello" in reply["detail"]
            await _close(writer)

        run_async(_with_server(ServeConfig(), action))

    def test_admission_control_rejects_with_typed_busy(self):
        async def action(server):
            reader_a, writer_a, welcome = await _open(server, "only")
            assert welcome["t"] == MSG_WELCOME
            _, writer_dup, dup = await _open(server, "only")
            assert dup == {"t": MSG_BUSY, "reason": "name-taken"}
            reader_b, writer_b, second = await _open(server, "second")
            assert second["t"] == MSG_WELCOME
            _, writer_full, full = await _open(server, "third")
            assert full == {"t": MSG_BUSY, "reason": "sessions-full"}
            await _close(writer_dup)
            await _close(writer_full)
            await _bye(reader_a, writer_a)
            await _bye(reader_b, writer_b)
            assert server.stats.sessions_rejected == 2

        run_async(_with_server(ServeConfig(max_sessions=2), action))

    def test_overload_sheds_queue_full_not_errors(self, records):
        config = ServeConfig(queue_depth=1, service_delay=0.02,
                             deadline_ms=None)

        async def action(server):
            reader, writer, _ = await _open(server, "flood")
            for index, (line, _, _) in enumerate(records):
                await protocol.send(writer, {"t": protocol.MSG_RECORD,
                                             "i": index, "r": line})
            replies = []
            while len(replies) < len(records):
                message = await protocol.recv(reader)
                assert message["t"] == MSG_PRED  # typed responses only
                replies.append(message)
            await _bye(reader, writer)
            return replies

        replies = run_async(_with_server(config, action))
        shed = [r for r in replies if r["degraded"]]
        served = [r for r in replies if not r["degraded"]]
        assert served and shed  # overload absorbed, service continued
        assert {r["reason"] for r in shed} == {"queue-full"}
        assert all(r["committed"] is None for r in shed)

    def test_stale_queued_records_degrade_with_deadline(self, records):
        config = ServeConfig(queue_depth=64, service_delay=0.03,
                             deadline_ms=10.0)

        async def action(server):
            reader, writer, _ = await _open(server, "late")
            for index in range(6):
                line = records[index][0]
                await protocol.send(writer, {"t": protocol.MSG_RECORD,
                                             "i": index, "r": line})
            return [await protocol.recv(reader) for _ in range(6)]

        replies = run_async(_with_server(config, action))
        reasons = [r.get("reason") for r in replies if r["degraded"]]
        assert reasons and set(reasons) == {"deadline"}
        assert any(not r["degraded"] for r in replies)  # head still served

    def test_breaker_opens_on_backend_faults_then_recovers(self, records):
        config = ServeConfig(allow_chaos=True, breaker_threshold=2,
                             breaker_base_delay=0.02,
                             breaker_max_delay=0.04)

        async def action(server):
            reader, writer, _ = await _open(server, "brk")
            await protocol.send(writer, {"t": protocol.MSG_CHAOS,
                                         "model": CHAOS_BACKEND_ERROR,
                                         "seed": 1, "count": 2})
            ack = await protocol.recv(reader)
            assert ack["t"] == MSG_CHAOS_ACK
            replies = [await _request(reader, writer, k, records[k][0])
                       for k in range(3)]
            assert [r["reason"] for r in replies[:2]] == \
                ["backend-error", "backend-error"]
            assert replies[2]["reason"] == "breaker-open"  # tripped
            await asyncio.sleep(0.06)  # past the (capped) cooldown
            healed = await _request(reader, writer, 9, records[9][0])
            assert healed["degraded"] is False  # half-open trial closed it
            messages = await _bye(reader, writer)
            assert messages[-1]["stats"]["breaker_opens"] >= 1

        run_async(_with_server(config, action))

    def test_chaos_is_rejected_unless_enabled(self):
        async def action(server):
            reader, writer, _ = await _open(server, "nochaos")
            await protocol.send(writer, {"t": protocol.MSG_CHAOS,
                                         "model": CHAOS_BACKEND_ERROR,
                                         "seed": 1})
            reply = await protocol.recv(reader)
            assert reply["t"] == MSG_ERROR
            assert "disabled" in reply["detail"]
            await _bye(reader, writer)

        run_async(_with_server(ServeConfig(), action))

    def test_unknown_chaos_model_is_a_typed_error(self):
        async def action(server):
            reader, writer, _ = await _open(server, "oops")
            await protocol.send(writer, {"t": protocol.MSG_CHAOS,
                                         "model": "meteor", "seed": 1})
            reply = await protocol.recv(reader)
            assert reply["t"] == MSG_ERROR
            assert "unknown chaos model" in reply["detail"]
            await _bye(reader, writer)

        run_async(_with_server(ServeConfig(allow_chaos=True), action))

    def test_malformed_input_never_kills_the_session(self, records):
        async def action(server):
            reader, writer, _ = await _open(server, "junk")
            # a syntactically valid message with an unparseable record
            reply = await _request(reader, writer, 0, "R not-a-record")
            assert reply["t"] == MSG_ERROR and "bad record" in reply["detail"]
            # a line that is not JSON at all
            writer.write(b"$$$ not json $$$\n")
            await writer.drain()
            reply = await protocol.recv(reader)
            assert reply["t"] == MSG_ERROR
            # a record without an integer id
            await protocol.send(writer, {"t": protocol.MSG_RECORD,
                                         "i": "seven", "r": records[0][0]})
            reply = await protocol.recv(reader)
            assert reply["t"] == MSG_ERROR
            # the session still serves
            reply = await _request(reader, writer, 1, records[1][0])
            assert reply["t"] == MSG_PRED and not reply["degraded"]
            messages = await _bye(reader, writer)
            assert messages[-1]["stats"]["bad_records"] == 3

        run_async(_with_server(ServeConfig(), action))

    def test_chaos_in_one_session_cannot_touch_another(self, records):
        """The sharding claim: a session under fault injection produces
        byte-identical responses in its *neighbour* as a quiet server."""
        config = ServeConfig(allow_chaos=True)

        async def victim_alone(server):
            reader, writer, _ = await _open(server, "victim")
            replies = [await _request(reader, writer, k, line)
                       for k, (line, _, _) in enumerate(records)]
            await _bye(reader, writer)
            return replies

        async def victim_with_chaotic_neighbour(server):
            reader_n, writer_n, _ = await _open(server, "chaotic")
            reader_v, writer_v, _ = await _open(server, "victim")
            replies = []
            for k, (line, _, _) in enumerate(records):
                model = SOAK_FAULTS[k % len(SOAK_FAULTS)]
                await protocol.send(writer_n, {"t": protocol.MSG_CHAOS,
                                               "model": model, "seed": k,
                                               "count": 1})
                assert (await protocol.recv(reader_n))["t"] == MSG_CHAOS_ACK
                await _request(reader_n, writer_n, k, line)
                replies.append(await _request(reader_v, writer_v, k, line))
            goodbye_n = (await _bye(reader_n, writer_n))[-1]
            assert goodbye_n["stats"]["chaos_applied"] == len(records)
            await _bye(reader_v, writer_v)
            return replies

        baseline = run_async(_with_server(config, victim_alone))
        shadowed = run_async(_with_server(config,
                                          victim_with_chaotic_neighbour))
        assert shadowed == baseline

    def test_drain_flushes_backlog_and_sheds_new_records(self, records):
        config = ServeConfig(service_delay=0.1, deadline_ms=None)

        async def action(server):
            reader, writer, _ = await _open(server, "drainee")
            await protocol.send(writer, {"t": protocol.MSG_RECORD, "i": 0,
                                         "r": records[0][0]})
            await asyncio.sleep(0.03)  # worker is mid-record
            server.begin_drain()
            await protocol.send(writer, {"t": protocol.MSG_RECORD, "i": 1,
                                         "r": records[1][0]})
            messages = []
            while True:
                message = await protocol.recv(reader)
                if message is None:
                    break
                messages.append(message)
                if message["t"] == MSG_GOODBYE:
                    break
            await _close(writer)
            return messages

        messages = run_async(_with_server(config, action))
        by_index = {m["i"]: m for m in messages if m["t"] == MSG_PRED}
        assert by_index[0]["degraded"] is False   # backlog was flushed
        assert by_index[1]["reason"] == "draining"  # new work was shed
        assert messages[-1]["t"] == MSG_GOODBYE   # flushed sessions say bye

    def test_drain_refuses_new_sessions(self):
        async def action(server):
            reader, writer = await asyncio.open_connection(
                server.config.host, server.port)
            server.begin_drain()
            await protocol.send(writer, {"t": protocol.MSG_HELLO,
                                         "proto": PROTO_VERSION})
            reply = await protocol.recv(reader)
            assert reply == {"t": MSG_BUSY, "reason": "draining"}
            await _close(writer)
            assert (await server.drain()) is True

        run_async(_with_server(ServeConfig(), action))


class TestLoadgen:
    def test_every_shape_compiles_to_a_paced_plan(self):
        for shape in TRAFFIC_SHAPES:
            phases = shape_phases(shape, base_rate=50, peak_rate=200,
                                  duration=1.0, seed=7)
            plan = plan_from_phases(phases)
            assert plan, shape
            offsets = [slot.offset for slot in plan]
            assert offsets == sorted(offsets)
            assert all(rate >= 0 for _, rate, _ in phases)

    def test_unknown_shape_is_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic shape"):
            shape_phases("tsunami", base_rate=1, peak_rate=2, duration=1.0)

    def test_constant_plan_send_count_matches_rate(self):
        plan = plan_from_phases([("steady", 100.0, 1.0)])
        assert len(plan) == 100
        assert {slot.phase for slot in plan} == {"steady"}

    def test_burst_shape_labels_all_three_windows(self):
        plan = plan_from_phases(shape_phases(
            "burst", base_rate=50, peak_rate=200, duration=0.9))
        assert {slot.phase for slot in plan} == \
            {"baseline", "burst", "recovery"}

    def test_percentile_ranks(self):
        assert percentile([], 0.99) == 0.0
        assert percentile([5.0], 0.5) == 5.0
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0

    def test_kernel_records_cycle_past_the_trace_end(self):
        triples = kernel_records(WORKLOAD, 0.02, 500)
        assert len(triples) == 500
        assert any(token is not None for _, is_load, token in triples
                   if is_load)

    def test_chaos_plan_is_seeded_and_lands_in_the_burst(self):
        plan = plan_from_phases(shape_phases(
            "burst", base_rate=50, peak_rate=200, duration=0.9))
        sites = plan_chaos(plan, PREDICTOR_FAULTS, seed=3)
        assert sites == plan_chaos(plan, PREDICTOR_FAULTS, seed=3)
        assert len(sites) == len(PREDICTOR_FAULTS)
        for index, _, _ in sites:
            assert plan[index].phase == "burst"

    def test_aggregate_folds_sessions_and_counts_rejections(self):
        served = SessionReport("a", sent=4, responded=4, predicted=3)
        served.degraded["queue-full"] = 1
        served.latencies = {"steady": [0.001, 0.002, 0.003, 0.004]}
        refused = SessionReport("b", rejected="sessions-full")
        report = aggregate([served, refused], duration=2.0)
        assert report.sessions == 1 and report.rejected == 1
        assert report.degraded_total == 1
        assert report.records_per_sec == pytest.approx(2.0)
        assert report.p99_ms == pytest.approx(4.0)
        payload = report.as_dict()
        assert json.dumps(payload)  # wire/JSON clean
        assert payload["sessions_per_sec"] == pytest.approx(0.5)


class TestSoakDrill:
    def test_overload_drill_passes_under_chaos(self, soak_row):
        row = soak_row
        assert row.passed
        assert row.protocol_errors == 0
        assert row.violations == []
        assert row.degraded_total > 0          # the burst was really shed
        assert row.degraded["queue-full"] > 0  # via admission control
        assert row.breaker_opens >= 1          # backend faults tripped it
        assert row.chaos_armed >= 1            # predictor faults landed
        assert row.predicted > 0               # service kept serving
        assert row.recovered and row.drained

    def test_soak_publishes_service_levels(self, soak_row):
        assert soak_row.sessions_per_sec > 0
        assert soak_row.records_per_sec > 0
        assert soak_row.burst_p99_ms >= soak_row.baseline_p50_ms >= 0

    def test_oracle_detects_a_corrupt_commit_path(self):
        """Sensitivity: break the commit rule and the differential oracle
        must flag every served load — proof the zero above is earned."""

        def corrupt_commit(observed, true_value):
            return true_value + 1

        row = run_soak(WORKLOAD, SCALE, window=0.3,
                       commit_rule=corrupt_commit)
        assert row.violations
        assert not row.passed
        assert row.protocol_errors == 0  # corruption, not protocol chaos

    def test_soak_rejects_meaningless_parameters(self):
        with pytest.raises(ValueError, match="service_delay"):
            run_soak(WORKLOAD, SCALE, service_delay=0.0)
        with pytest.raises(ValueError, match="overload"):
            run_soak(WORKLOAD, SCALE, overload=1.0)


class TestServeArtefact:
    def test_registered_outside_the_summary(self):
        spec = ARTEFACTS["ext_serve_soak"]
        assert spec.module == "repro.serve.artefact"
        assert spec.summary_multiplier is None  # not a paper-summary row

    def test_rows_survive_the_store_payload_roundtrip(self, soak_row):
        rows = rows_from_payload(rows_to_payload([soak_row]))
        assert isinstance(rows[0], SoakRow)
        assert rows[0] == soak_row

    def test_render_reports_the_drill_table(self, soak_row):
        text = artefact.render([soak_row])
        assert WORKLOAD in text and "VIOL" in text
        assert "all drills passed" in text

    def test_render_names_failing_drills(self, soak_row):
        import dataclasses

        failed = dataclasses.replace(soak_row, drained=False)
        assert "FAILED drills" in artefact.render([failed])

    def test_write_bench_publishes_sessions_and_percentiles(self, soak_row,
                                                            tmp_path):
        path = artefact.write_bench([soak_row], tmp_path / "BENCH.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.serve/bench-v1"
        assert payload["sessions_per_sec"] > 0
        kernel = payload["kernels"][WORKLOAD]
        assert kernel["p50_ms"] >= 0 and kernel["p99_ms"] > 0


class TestServeCli:
    def test_soak_command_passes_its_gates(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_serve.json"
        code = serve_main(["soak", "--workloads", WORKLOAD,
                           "--scale", str(SCALE), "--sessions", "2",
                           "--bench", str(bench),
                           "--require-degraded", "--max-p99-ms", "10000"])
        assert code == 0
        assert "all drills passed" in capsys.readouterr().out
        assert json.loads(bench.read_text())["drills"] == 1

    def test_soak_gate_fails_on_impossible_p99(self, capsys):
        code = serve_main(["soak", "--workloads", WORKLOAD,
                           "--scale", str(SCALE), "--sessions", "2",
                           "--max-p99-ms", "0.000001"])
        assert code == 1
        assert "SOAK GATE FAILED" in capsys.readouterr().err

    def test_unknown_shape_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            serve_main(["loadgen", "--shape", "tsunami"])

    def test_unknown_workload_is_a_usage_error_not_a_traceback(self, capsys):
        assert serve_main(["soak", "--workloads", "nosuch"]) == 2
        assert "valid abbreviations" in capsys.readouterr().err
        assert serve_main(["loadgen", "--workload", "nosuch"]) == 2
        assert "valid abbreviations" in capsys.readouterr().err
