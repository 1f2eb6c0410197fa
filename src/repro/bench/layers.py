"""Per-layer measurements: each layer's public functions, timed directly.

Instruction-level layers (interpreter, DDT, cloaking engine, timing
model) are driven over traces materialized up front, because timing a
wrapper around every per-instruction call would measure the wrapper.
Coarser layers (experiments, store, queue) are timed through spans.

Throughputs are the best of a few repeats; per-call times are medians.
The exact counts (``core.coverage``, ``core.misspec_rate``,
``pipeline.base_ipc``) are simulated statistics: a change that only
makes the simulator faster must leave them identical, so they are
checked against ``expected.json``.
"""

from __future__ import annotations

import asyncio
import statistics
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.clock import now
from repro.bench.proc import ServerProcess
from repro.bench.serve_client import open_loop, session_load
from repro.bench.spans import Recorder
from repro.bench.workloads import (
    KERNELS,
    Context,
    Interpretation,
    grid_jobs,
)
from repro.columnar.backend import ReferenceBackend, get_backend
from repro.columnar.batch import clear_trace_cache, materialized_trace
from repro.core import CloakingConfig, CloakingEngine, CloakingMode
from repro.dependence import DDT, DDTConfig
from repro.experiments import summary
from repro.experiments.fig2 import WINDOWS
from repro.experiments.fig5 import DDT_SIZES
from repro.harness.api import run_artefacts
from repro.harness.jobs import execute_job, make_job
from repro.harness.queue import JobQueue
from repro.harness.store import ResultStore, code_fingerprint
from repro.isa.assembler import assemble
from repro.isa.interpreter import Interpreter
from repro.pipeline import CloakedProcessor, Processor, RecoveryPolicy
from repro.serve import protocol
from repro.serve.loadgen import percentile
from repro.serve.session import SimulationBackend
from repro.trace.serialize import format_record, parse_record_line
from repro.workloads import get_workload

#: scale of the li + tom traces the instruction-level layers replay
LAYER_SCALE = 0.25
#: the columnar stages run on one kernel, cold and warm
COLUMNAR_KERNEL, COLUMNAR_SCALE = "li", 0.5
#: scale of the per-artefact cells (times each artefact's multiplier)
EXPERIMENT_SCALE = 0.1
#: the small grid behind the execution-backend overhead fractions
MINI_GRID = (("table51", 0.02), ("fig2", 0.02))
#: the open-loop serve step: records/s over both sessions, seconds
SERVE_RATE, SERVE_STEP = 10_000.0, 2.0
#: records per call-level serve measurement
SERVE_CALLS = 20_000

Metrics = Dict[str, float]
Traces = Dict[str, list]


def best(fn: Callable[[], object], repeats: int = 3) -> Tuple[float, object]:
    """The fastest of ``repeats`` calls: ``(seconds, last result)``."""
    fastest, result = float("inf"), None
    for _ in range(repeats):
        start = now()
        result = fn()
        fastest = min(fastest, now() - start)
    return fastest, result


def per_call(fn: Callable[[object], object], items: Sequence) -> float:
    """Median seconds of ``fn(item)`` over ``items``."""
    times = []
    for item in items:
        start = now()
        fn(item)
        times.append(now() - start)
    return statistics.median(times)


def interpret_seconds(keys: Sequence[Interpretation]) -> float:
    """Seconds the interpreter takes to produce every listed trace."""
    cost: Dict[Interpretation, float] = {}
    for key in sorted(set(keys), key=repr):
        abbrev, scale, cap = key
        program = get_workload(abbrev).program(scale)
        start = now()
        for _ in Interpreter(program, max_instructions=cap).run():
            pass
        cost[key] = now() - start
    return sum(cost[key] for key in keys)


def isa_layer(traces: Traces) -> Metrics:
    sources = [(k, get_workload(k).builder(1.0)) for k in KERNELS]
    assemble_s, _ = best(lambda: [assemble(source, name=k)
                                  for k, source in sources], 5)
    programs = [get_workload(k).program(LAYER_SCALE) for k in KERNELS]
    seconds, count = best(lambda: sum(1 for program in programs
                                      for _ in Interpreter(program).run()))
    return {"isa.assemble_ms": assemble_s * 1e3,
            "isa.interpret_minstr_s": count / seconds / 1e6}


def trace_layer(traces: Traces) -> Metrics:
    lines = [format_record(inst) for trace in traces.values()
             for inst in trace[:SERVE_CALLS // 2]]
    seconds, _ = best(lambda: [parse_record_line(line) for line in lines])
    return {"trace.parse_us": seconds / len(lines) * 1e6}


def dependence_layer(traces: Traces) -> Metrics:
    def run() -> int:
        ops = 0
        for trace in traces.values():
            ddt = DDT(DDTConfig(size=128))
            for inst in trace:
                if inst.is_load:
                    ddt.observe_load(inst.pc, inst.word_addr)
                    ops += 1
                elif inst.is_store:
                    ddt.observe_store(inst.pc, inst.word_addr)
                    ops += 1
        return ops
    seconds, ops = best(run)
    return {"dependence.ddt_mops_s": ops / seconds / 1e6}


def core_layer(traces: Traces) -> Metrics:
    count = sum(len(trace) for trace in traces.values())

    def run(timing: bool) -> List[CloakingEngine]:
        engines = []
        for trace in traces.values():
            engine = CloakingEngine(CloakingConfig.paper_accuracy())
            observe = engine.observe_timing if timing else engine.observe
            for inst in trace:
                observe(inst)
            engines.append(engine)
        return engines
    seconds, engines = best(lambda: run(False))
    timing_s, _ = best(lambda: run(True))
    loads = sum(engine.stats.loads for engine in engines)
    correct = sum(engine.stats.correct_raw + engine.stats.correct_rar
                  for engine in engines)
    wrong = sum(engine.stats.wrong_raw + engine.stats.wrong_rar
                for engine in engines)
    return {"core.engine_minstr_s": count / seconds / 1e6,
            "core.engine_timing_minstr_s": count / timing_s / 1e6,
            "core.coverage": correct / loads,
            "core.misspec_rate": wrong / loads}


def pipeline_layer(traces: Traces) -> Metrics:
    count = sum(len(trace) for trace in traces.values())

    def run(make) -> Tuple[int, int]:
        instructions = cycles = 0
        for name, trace in traces.items():
            machine = make()
            for inst in trace:
                machine.feed(inst)
            result = machine.finalize(name)
            instructions += result.timing_instructions
            cycles += result.cycles
        return instructions, cycles
    base_s, (instructions, cycles) = best(lambda: run(Processor))
    cloaked_s, _ = best(lambda: run(lambda: CloakedProcessor(
        cloaking=CloakingConfig.paper_timing(CloakingMode.RAW_RAR),
        recovery=RecoveryPolicy.SELECTIVE)))
    return {"pipeline.base_minstr_s": count / base_s / 1e6,
            "pipeline.cloaked_minstr_s": count / cloaked_s / 1e6,
            "pipeline.base_ipc": instructions / cycles}


class _ReplayBackend(ReferenceBackend):
    """The reference stages over an in-memory trace (no interpretation)."""

    def __init__(self, records: list) -> None:
        self.records = records

    def stream(self, workload, scale=1.0, max_instructions=None):
        return iter(self.records)


def columnar_layer(problems: List[str]) -> Metrics:
    """Each stage on both backends, cold against cold (both start from
    nothing: the reference interprets, numpy materializes) and warm
    against warm (the reference replays an in-memory trace, numpy reuses
    its materialized table)."""
    workload = get_workload(COLUMNAR_KERNEL)
    workload.program(COLUMNAR_SCALE)
    reference, numpy = get_backend("reference"), get_backend("numpy")
    queries = {
        "trace": lambda b: b.trace_summary(workload, COLUMNAR_SCALE),
        "ddt": lambda b: b.ddt_profiles(workload, COLUMNAR_SCALE, DDT_SIZES),
        "locality": lambda b: b.rar_locality(workload, COLUMNAR_SCALE, 4,
                                             WINDOWS),
    }

    def cold_materialize():
        clear_trace_cache()
        return materialized_trace(workload, COLUMNAR_SCALE)
    materialize_s, _ = best(cold_materialize)
    replay = _ReplayBackend(list(workload.trace(COLUMNAR_SCALE)))
    metrics = {"columnar.materialize_s": materialize_s}
    for stage, query in queries.items():
        def cold_numpy():
            clear_trace_cache()
            return query(numpy)
        runs = {"reference_cold": lambda: query(reference),
                "numpy_cold": cold_numpy,
                "reference_warm": lambda: query(replay),
                "numpy_warm": lambda: query(numpy)}
        results = []
        for label, fn in runs.items():
            seconds, result = best(fn)
            metrics[f"columnar.{stage}.{label}_s"] = seconds
            results.append(result)
        if any(result != results[0] for result in results):
            problems.append(f"columnar {stage}: backends disagree")
    clear_trace_cache()
    return metrics


def experiments_layer(recorder: Recorder) -> Metrics:
    """Every summary artefact's cells on li + tom, one span per cell."""
    metrics = {}
    for _, name, multiplier in summary.ARTEFACTS:
        total = 0.0
        for kernel in KERNELS:
            spec = make_job(name, kernel, EXPERIMENT_SCALE * multiplier)
            with recorder.span(f"experiments.{name}",
                               f"{name}/{kernel}") as index:
                execute_job(spec)
            span = recorder.spans[index]
            total += span.end - span.start
        metrics[f"experiments.{name}_s"] = total
    return metrics


def harness_layer(ctx: Context, problems: List[str]) -> Metrics:
    """Store and queue operations at the 180-job depth of the summary
    grid over every kernel, the uncached code fingerprint, and how much
    of two workers' wall time each parallel execution backend spends
    outside cell execution."""
    fingerprint_s, _ = best(code_fingerprint.__wrapped__)
    jobs = grid_jobs(kernels=None)
    rows = execute_job(make_job("table51", "li", 0.02))
    store = ResultStore(ctx.work / "layer-store")
    keys = [store.key_for(spec) for spec in jobs]
    put_s = per_call(lambda pair: store.put(pair[0], pair[1], rows),
                     list(zip(keys, jobs)))
    got: list = []
    get_s = per_call(lambda key: got.append(store.get(key)), keys)
    if got != [rows] * len(keys):
        problems.append("harness: store returned different rows")

    queue = JobQueue(ctx.work / "layer-queue")
    enqueue_s = per_call(lambda pair: queue.enqueue(pair[1], pair[0]),
                         list(zip(keys, jobs)))
    claim_times, complete_times = [], []
    for _ in jobs:
        start = now()
        claim = queue.claim("bench-layers")
        if claim is None:
            problems.append("harness: queue ran dry before its last job")
            break
        try:
            claimed = now()
        finally:
            queue.complete(claim.key, worker=claim.worker)
        claim_times.append(claimed - start)
        complete_times.append(now() - claimed)
    metrics = {
        "harness.fingerprint_ms": fingerprint_s * 1e3,
        "harness.store_put_ms": put_s * 1e3,
        "harness.store_get_ms": get_s * 1e3,
        "harness.queue_enqueue_ms": enqueue_s * 1e3,
        "harness.queue_claim_ms": statistics.median(claim_times) * 1e3,
        "harness.queue_complete_ms": statistics.median(complete_times) * 1e3,
    }
    for backend in ("fork", "worker"):
        outcome = run_artefacts(
            MINI_GRID, None, workers=2, backend=backend,
            store=ResultStore(ctx.work / f"layer-{backend}"),
            manifest_path=ctx.work / f"layer-{backend}.json")
        manifest = outcome.manifest
        busy = sum(job.wall_time for job in manifest.jobs)
        metrics[f"harness.{backend}.overhead_frac"] = \
            1.0 - busy / (2 * manifest.wall_time)
    return metrics


def serve_layer(ctx: Context, traces: Traces, seed: int,
                problems: List[str]) -> Metrics:
    """The request path's pieces per call, then the whole path under a
    fixed open-loop load against a live server."""
    records = [inst for trace in traces.values()
               for inst in trace[:SERVE_CALLS // 2]]
    replies = [protocol.prediction_response(i, "none", None)
               for i in range(len(records))]
    encode_s, lines = best(lambda: [protocol.encode(reply)
                                    for reply in replies])
    decode_s, _ = best(lambda: [protocol.decode(line) for line in lines])

    async def observe_all() -> None:
        backend = SimulationBackend(
            CloakingEngine(CloakingConfig.paper_accuracy()))
        for inst in records:
            await backend.observe(inst)
    observe_s, _ = best(lambda: asyncio.run(observe_all()))

    per_session = int(SERVE_RATE / len(traces) * SERVE_STEP)
    loads = [(f"{kernel}-step", session_load(trace[:per_session]))
             for kernel, trace in traces.items()]
    server = ServerProcess(ctx.python, ctx.env, ctx.root,
                           ctx.work / "layer-server.err")
    try:
        step = open_loop(server.port, loads, SERVE_RATE, SERVE_STEP, seed)
    finally:
        server.stop()
    verdict = step.verdict
    if not verdict.correct:
        problems.append(f"serve step: {verdict}")
    n = len(records)
    return {"serve.encode_us": encode_s / n * 1e6,
            "serve.decode_us": decode_s / n * 1e6,
            "serve.observe_us": observe_s / n * 1e6,
            "serve.p50_ms": percentile(step.latencies_ms, 0.50),
            "serve.p99_ms": percentile(step.latencies_ms, 0.99),
            "serve.failed_frac": verdict.failed / verdict.sent,
            "serve.gen_late_p99_ms": percentile(step.late_ms, 0.99),
            "serve.gen_cpu_frac": step.cpu_frac}


def measure(ctx: Context, recorder: Recorder, seed: int,
            expected: Optional[dict]) -> Tuple[Metrics, List[str]]:
    """Every layer's metrics, plus any problems found on the way."""
    problems: List[str] = []
    traces = {k: list(get_workload(k).trace(LAYER_SCALE)) for k in KERNELS}
    metrics: Metrics = {}
    with recorder.span("layers", "layers"):
        metrics.update(isa_layer(traces))
        metrics.update(trace_layer(traces))
        metrics.update(dependence_layer(traces))
        metrics.update(core_layer(traces))
        metrics.update(pipeline_layer(traces))
        metrics.update(columnar_layer(problems))
        metrics.update(experiments_layer(recorder))
        metrics.update(harness_layer(ctx, problems))
        metrics.update(serve_layer(ctx, traces, seed, problems))
    for name, value in sorted((expected or {}).items()):
        if metrics[name] != value:
            problems.append(f"{name} = {metrics[name]!r}, recorded {value!r}")
    return metrics, problems
