"""The benchmark's workloads: fixed work, run as repeated *passes*.

Each workload stresses a different part of the program (see the
``README.md`` next to this file for why each was chosen):

* ``functional`` — the eight accuracy artefacts of ``summary`` inline on
  ``li`` + ``tom``: interpreter, dependence detection and the cloaking
  engine; the timing model does nothing.
* ``timing`` — Figures 9 and 10 on the same kernels: the cycle-level
  timing model dominates.
* ``grid`` — ``python -m repro.harness run summary`` over six kernels
  at a tiny scale with two fork workers, cold on a fresh store and then
  warm: scheduler, processes and the store.
* ``serve`` — the prediction service answering two sessions that stream
  the ``li`` and ``tom`` traces: wire codec, queueing and the engine on
  a per-record request path.

The simulated workloads are deterministic and ignore the seed; their
rendered output must match the sha256 digest recorded in
``expected.json`` on every pass.  ``serve`` takes the slices of the
traces it streams from the seed, and every response is checked against
interpreter ground truth.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.bench.clock import now
from repro.bench.proc import (
    BenchError,
    ServerProcess,
    child_env,
    fresh_start,
    run_child,
)
from repro.bench.serve_client import (
    Verdict,
    replay,
    send_times,
    session_load,
    verify,
)
from repro.bench.spans import Recorder, fixed
from repro.experiments import summary
from repro.harness import worker as worker_module
from repro.harness.api import (
    ArtefactRequest,
    ArtefactRun,
    SweepOutcome,
    run_artefacts,
)
from repro.harness.backends import inline as inline_module
from repro.harness.jobs import JobSpec, expand_jobs, render_rows
from repro.harness.manifest import RunManifest
from repro.harness.queue import JobQueue
from repro.harness.store import ResultStore
from repro.workloads import get_workload
from repro.workloads.base import Workload as Kernel

#: an integer and a floating-point kernel
KERNELS = ("li", "tom")

#: (artefact, scale) of the two simulated workloads' passes
FUNCTIONAL = tuple((name, 0.25) for name in (
    "table51", "fig2", "fig5", "fig6", "fig7", "table52", "ext_hybrid",
    "ext_distance"))
TIMING = (("fig9", 0.125), ("fig10", 0.125))

#: the grid: every summary artefact on three integer and three
#: floating-point kernels at a scale where harness overhead dominates
GRID_SCALE = 0.02
GRID_WORKERS = 2
GRID_KERNELS = ("go", "gcc", "li", "tom", "swm", "mgd")

#: serve: records per session, drawn from the first SERVE_OFFSETS +
#: SERVE_RECORDS committed instructions of each kernel at SERVE_SCALE
SERVE_SCALE = 1.0
SERVE_RECORDS = 40_000
SERVE_OFFSETS = 200_000
#: records each session keeps in flight; below the server's default
#: per-session queue depth (64), so a healthy server never sheds
SERVE_WINDOW = 32

#: one interpretation the pass asked for: (kernel, scale, instruction cap)
Interpretation = Tuple[str, float, Optional[int]]


@dataclass
class Context:
    """Where one benchmark run lives."""

    root: Path                 # the checkout: holds src/ and BENCHMARK.json
    work: Path                 # this run's scratch directory
    python: str = sys.executable

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def env(self) -> dict:
        return child_env(self.src)


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)   # wrong outputs
    interpretations: List[Interpretation] = field(default_factory=list)


def _check_digest(text: str, expected: Optional[str], what: str
                  ) -> List[str]:
    got = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if got == expected:
        return []
    return [f"{what}: output digest {got} != recorded {expected}"]


def _sim_patches(recorder: Recorder, calls: List[Interpretation],
                 execute_owner) -> list:
    """Spans around the layer entry points a simulated pass goes through.

    ``Workload.trace`` returns a generator, so its span only marks the
    call; each call is also noted in ``calls`` so the pass's
    interpretation time can be estimated afterwards.
    """
    def job_label(args, kwargs):
        spec: JobSpec = args[0]
        return f"experiments.{spec.artefact}", \
            f"{spec.artefact}/{spec.workload}"

    def trace_label(args, kwargs):
        kernel = args[0]
        scale = kwargs.get("scale", args[1] if len(args) > 1 else 1.0)
        cap = kwargs.get("max_instructions",
                         args[2] if len(args) > 2 else None)
        calls.append((kernel.abbrev, float(scale), cap))
        return "isa.trace", None

    return [(execute_owner, "execute_job", job_label),
            (Kernel, "program", fixed("isa.program")),
            (Kernel, "trace", trace_label)]


class BenchWorkload:
    """One workload: how to start it fresh and how to run one pass."""

    name = ""
    #: peak RSS belongs to child processes rather than this process
    rss_of_children = False

    def __init__(self, ctx: Context, expected: Optional[str]) -> None:
        self.ctx = ctx
        self.expected = expected

    def _err(self, label: str) -> Path:
        return self.ctx.work / f"{self.name}-{label}.err"

    def fresh_start(self) -> float:
        """Seconds from spawning a fresh process until it is ready."""
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        """Build inputs and start services before the first pass."""

    def run_pass(self) -> PassResult:
        """One untraced pass, as a user runs it."""
        return self.traced_pass(None)

    def traced_pass(self, recorder: Optional[Recorder]) -> PassResult:
        """One in-process pass; spans go to ``recorder`` when given."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever :meth:`prepare` started."""


_PROBE = """\
from repro.harness.api import run_artefacts
from repro.harness.jobs import load_experiment_module
from repro.harness.registry import get_artefact
from repro.harness.store import code_fingerprint
from repro.workloads import get_workload
for name, scale in {requests!r}:
    load_experiment_module(get_artefact(name).module)
    for kernel in {kernels!r}:
        get_workload(kernel).program(scale)
code_fingerprint()
print("ready", flush=True)
"""


class ArtefactWorkload(BenchWorkload):
    """Artefacts computed inline through ``harness.api.run_artefacts``."""

    requests: Sequence[Tuple[str, float]] = ()

    def fresh_start(self) -> float:
        code = _PROBE.format(requests=tuple(self.requests), kernels=KERNELS)
        return fresh_start([self.ctx.python, "-c", code], self.ctx.env,
                           self.ctx.root, self._err("start"), "ready",
                           terminate=False)

    def traced_pass(self, recorder: Optional[Recorder]) -> PassResult:
        calls: List[Interpretation] = []
        patches = (nullcontext() if recorder is None
                   else recorder.patch(_sim_patches(recorder, calls,
                                                    inline_module)))
        root = (nullcontext() if recorder is None
                else recorder.span("pass", self.name))
        with patches, root:
            start = now()
            outcome = run_artefacts(self.requests, KERNELS,
                                    allow_failures=True)
            text = "".join(render_rows(run.name, run.rows) + "\n\n"
                           for run in outcome.runs)
            seconds = now() - start
        failed = sum(len(run.failed) for run in outcome.runs)
        return PassResult(seconds, len(outcome.manifest.jobs), failed,
                          _check_digest(text, self.expected, self.name),
                          calls)


class Functional(ArtefactWorkload):
    name = "functional"
    requests = FUNCTIONAL


class Timing(ArtefactWorkload):
    name = "timing"
    requests = TIMING


def grid_jobs(kernels: Optional[Sequence[str]] = GRID_KERNELS
              ) -> List[JobSpec]:
    """The cells of ``harness run summary`` at the grid's scale (over
    every kernel when ``kernels`` is None)."""
    return [spec for _, name, multiplier in summary.ARTEFACTS
            for spec in expand_jobs(name, GRID_SCALE * multiplier, kernels)]


def _summary_lines(outcome: SweepOutcome) -> str:
    """What ``harness run summary`` prints for ``outcome``."""
    return "".join(section + "\n\n"
                   for section in summary.compose_sections(outcome))


_GRID_PROBE = """\
import repro.harness.__main__
from repro.experiments import summary
from repro.harness.store import code_fingerprint
code_fingerprint()
print("ready", flush=True)
"""


class Grid(BenchWorkload):
    """The summary grid through the harness CLI, cold then warm.

    Pass directories are left for the end of the run to remove: deleting
    a store is disk work the pass does not measure.
    """

    name = "grid"
    rss_of_children = True

    def __init__(self, ctx: Context, expected: Optional[str]) -> None:
        super().__init__(ctx, expected)
        self.passes = 0

    def fresh_start(self) -> float:
        return fresh_start([self.ctx.python, "-c", _GRID_PROBE],
                           self.ctx.env, self.ctx.root, self._err("start"),
                           "ready", terminate=False)

    def _pass_dir(self) -> Path:
        self.passes += 1
        path = self.ctx.work / f"grid-{self.passes}"
        path.mkdir(parents=True)
        return path

    def run_pass(self) -> PassResult:
        """A cold run on a fresh store (``fork`` backend), then a warm
        rerun over it; both reports must be byte-identical."""
        where = self._pass_dir()
        result = PassResult(0.0, 0, 0)
        reports = []
        for label in ("cold", "warm"):
            manifest_path = where / f"{label}.json"
            argv = [self.ctx.python, "-m", "repro.harness", "run", "summary",
                    "--scale", str(GRID_SCALE),
                    "--workers", str(GRID_WORKERS),
                    "--workloads", *GRID_KERNELS,
                    "--exec-backend", "fork", "--store", str(where / "store"),
                    "--manifest", str(manifest_path), "--quiet"]
            out = where / f"{label}.out"
            result.seconds += run_child(argv, self.ctx.env, self.ctx.root,
                                        out, where / f"{label}.err")
            manifest = RunManifest.load(manifest_path)
            result.attempted += len(manifest.jobs)
            result.failed += len(manifest.failed)
            if label == "warm" and manifest.hits != len(manifest.jobs):
                result.problems.append(
                    f"grid: warm rerun computed {manifest.computed} cells")
            reports.append(out.read_text(encoding="utf-8"))
        if reports[0] != reports[1]:
            result.problems.append("grid: cold and warm reports differ")
        result.problems += _check_digest(reports[0], self.expected,
                                         self.name)
        return result

    def traced_pass(self, recorder: Optional[Recorder]) -> PassResult:
        """The same grid drained in this process: enqueue every cell, run
        ``harness.worker.worker_loop`` over the queue, then read every
        result back from the store and render the report."""
        where = self._pass_dir()
        queue = JobQueue(where / "queue")
        store = ResultStore(where / "store")
        jobs = grid_jobs()
        calls: List[Interpretation] = []
        patches = nullcontext()
        if recorder is not None:
            patches = recorder.patch(
                _sim_patches(recorder, calls, worker_module) + [
                    (JobQueue, "enqueue", fixed("harness.queue.enqueue")),
                    (JobQueue, "claim", fixed("harness.queue.claim")),
                    (JobQueue, "complete", fixed("harness.queue.complete")),
                    (ResultStore, "get", fixed("harness.store.get")),
                    (ResultStore, "put", fixed("harness.store.put"))])
        root = (nullcontext() if recorder is None
                else recorder.span("pass", self.name))
        with patches, root:
            start = now()
            keys = [store.key_for(spec) for spec in jobs]
            for spec, key in zip(jobs, keys):
                queue.enqueue(spec, key)
            stats = worker_module.worker_loop(queue, store,
                                              worker_id="bench")
            rows = {}
            for spec, key in zip(jobs, keys):
                rows.setdefault(spec.artefact, []).extend(
                    store.get(key) or [])
            outcome = SweepOutcome(
                runs=[ArtefactRun(ArtefactRequest(name, GRID_SCALE),
                                  rows.get(name, []), [])
                      for _, name, _ in summary.ARTEFACTS],
                manifest=RunManifest())
            text = _summary_lines(outcome)
            seconds = now() - start
        return PassResult(seconds, len(jobs), len(jobs) - stats.completed,
                          _check_digest(text, self.expected, self.name),
                          calls)


def kernel_slice(kernel: str, offset: int, count: int) -> list:
    """``count`` committed instructions of ``kernel`` from ``offset``."""
    trace = get_workload(kernel).trace(SERVE_SCALE)
    records = list(itertools.islice(trace, offset, offset + count))
    if len(records) != count:
        raise BenchError(f"{kernel} commits fewer than {offset + count} "
                         f"instructions at scale {SERVE_SCALE}")
    return records


class Serve(BenchWorkload):
    """Two sessions replaying ``li`` and ``tom`` through a live server."""

    name = "serve"
    rss_of_children = True

    def __init__(self, ctx: Context, expected: Optional[str]) -> None:
        super().__init__(ctx, expected)
        self.server: Optional[ServerProcess] = None
        self.loads: list = []
        self.passes = 0

    def fresh_start(self) -> float:
        return fresh_start([self.ctx.python, "-m", "repro.serve", "serve",
                            "--port", "0"], self.ctx.env, self.ctx.root,
                           self._err("start"), "serving on ", terminate=True)

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        self.loads = [(kernel, session_load(kernel_slice(
            kernel, rng.randrange(SERVE_OFFSETS), SERVE_RECORDS)))
            for kernel in KERNELS]
        self.server = ServerProcess(self.ctx.python, self.ctx.env,
                                    self.ctx.root, self._err("server"))

    def traced_pass(self, recorder: Optional[Recorder]) -> PassResult:
        """Spans are built from the client's own send and arrival stamps
        after the pass, so tracing adds nothing to the timed region."""
        assert self.server is not None
        self.passes += 1
        loads = [(f"{kernel}-{self.passes}", load)
                 for kernel, load in self.loads]
        seconds, runs = replay(self.server.port, loads, SERVE_WINDOW)
        verdict = Verdict()
        root = None
        for (name, load), run in zip(loads, runs):
            arrivals = verify(load, run, verdict)
            if recorder is None:
                continue
            if root is None:
                root = recorder.add("pass", run.sends[0][1],
                                    run.sends[0][1] + seconds, None,
                                    self.name)
            session = recorder.add("serve.session", run.sends[0][1],
                                   max(arrivals), root, name)
            for sent, arrived in zip(send_times(run, len(load.lines)),
                                     arrivals):
                if arrived > 0.0:
                    recorder.add("serve.record", sent, arrived, session,
                                 name)
        problems = [] if verdict.correct else [f"serve: {verdict}"]
        return PassResult(seconds, verdict.sent, verdict.failed, problems)

    def close(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()


WORKLOADS = {cls.name: cls for cls in (Functional, Timing, Grid, Serve)}
