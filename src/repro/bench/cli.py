"""``python -m repro.bench`` — the benchmark's command line.

One workload, one run (what ``BENCHMARK.json``'s command runs)::

    python -m repro.bench --workload functional --seed 1 --seconds 20 \\
        --trace 0

measures for about ``--seconds`` seconds and prints the result as one
JSON line, last on stdout: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs the workload once more with spans around the layers' entry
points, writes the spans (``--spans``), and reports the per-layer
metrics instead.

Every workload (the default), each in a fresh process::

    python -m repro.bench [--runs N] [--trace 1] [--out RUN.json]

prints every metric by name with its unit and exits 0 only when every
run was correct with no failed operation.  ``--check RUN.json`` compares
a run file with the recorded baseline (exit 1 on a regression beyond a
metric's bound in ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench import check as check_module
from repro.bench import layers
from repro.bench.clock import now
from repro.bench.proc import CHILD_TIMEOUT
from repro.bench.spans import Recorder
from repro.bench.workloads import WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
SPEC = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".bench_work"

#: fresh starts per run; set-up time is their median
SETUP_STARTS = 5

def layer_unit(name: str) -> str:
    """Per-layer metric units follow their name's suffix."""
    for suffix, unit in (("_minstr_s", "Minstr/s"), ("_mops_s", "Mops/s"),
                         ("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def _timed(workload, seed: int, seconds: float):
    """Fresh starts, then passes until ``seconds`` have gone by."""
    setup = statistics.median(workload.fresh_start()
                              for _ in range(SETUP_STARTS))
    passes = []
    workload.prepare(seed)
    try:
        start = now()
        while not passes or now() - start < seconds:
            passes.append(workload.run_pass())
    finally:
        workload.close()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if workload.rss_of_children
                               else resource.RUSAGE_SELF)
    # The fastest pass: the first one also pays for lazy set-up, and the
    # rest of the machine only ever adds time.
    return passes, [], {
        "setup_s": (setup, "s"),
        "eval_s": (min(p.seconds for p in passes), "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB")}   # KiB on Linux


def _traced(workload, ctx: Context, seed: int, expected: dict,
            spans_path: Path):
    """Warm-up, untraced and traced passes, then every layer."""
    recorder = Recorder()
    passes = []
    workload.prepare(seed)
    try:
        for traced in (False, False, True):
            passes.append(workload.traced_pass(recorder if traced else None))
    finally:
        workload.close()
    metrics, problems = layers.measure(ctx, recorder, seed, expected)
    untraced, traced = passes[1:]
    metrics["isa.interpret_share"] = layers.interpret_seconds(
        traced.interpretations) / untraced.seconds
    metrics["bench.trace_overhead_frac"] = \
        traced.seconds / untraced.seconds - 1.0
    recorder.write(spans_path)
    return passes, problems, {key: (value, layer_unit(key))
                              for key, value in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans_path: Optional[Path] = None) -> dict:
    """One run of one workload; returns its result object (plus the
    ``problems`` found, which the printed result leaves out)."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(root=ROOT, work=work)
    workload = WORKLOADS[name](ctx, expected["digests"].get(name))
    try:
        if trace:
            passes, problems, values = _traced(
                workload, ctx, seed, expected["layers"],
                spans_path or WORK / f"spans-{name}.json")
        else:
            passes, problems, values = _timed(workload, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for result in passes:
        problems += result.problems
    return {"correct": not problems,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in sorted(values.items())},
            "problems": problems}


def _single(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.spans)
    for problem in result.pop("problems"):
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"{args.workload:<11} {key:<38} {metric['value']:>12.4f} "
              f"{metric['unit']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _child(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a fresh process; its last stdout line."""
    argv = [sys.executable, str(HERE / "__main__.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT + 60, check=False)
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise SystemExit(f"{name} (seed {seed}) printed no result "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def _all(args) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    results: Dict[str, List[dict]] = {name: [] for name in names}
    for name in names:
        for k in range(args.runs):
            results[name].append(_child(name, args.seed + k, seconds, 0))
        if args.trace:
            results[name].append(_child(name, args.seed, seconds, 1))
    ok = all(r["correct"] and not r["failed"]
             for lines in results.values() for r in lines)
    run = check_module.run_file(results, seconds)
    print(f"{'workload':<11} {'metric':<38} {'median':>12} unit   "
          f"(q1 .. q3, n)")
    for name, summary in run["summary"].items():
        for key, entry in summary.items():
            print(f"{name:<11} {key:<38} {entry['median']:>12.4f} "
                  f"{entry['unit']:<6} ({entry['q1']:.4f} .. "
                  f"{entry['q3']:.4f}, {entry['n']})")
    if args.out:
        args.out.write_text(json.dumps(run, indent=1) + "\n",
                            encoding="utf-8")
    print("all runs correct, no failed operations" if ok
          else "SOME RUNS WERE INCORRECT OR HAD FAILED OPERATIONS")
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload once (default: all, each "
                             "in a fresh process)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (first seed with --runs)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds one run measures (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "run")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced run writes its spans "
                             "(default .bench_work/spans-<workload>.json)")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workload "
                             "mode; seeds --seed, --seed+1, ...)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every result and their summary here")
    parser.add_argument("--check", type=Path, default=None,
                        metavar="RUN.json",
                        help="compare a run file with the baseline")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help="baseline run file for --check")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.check is not None:
        return check_module.check(args.check, args.baseline, SPEC)
    if args.workload is None:
        return _all(args)
    if args.seconds is None:
        args.seconds = json.loads(
            SPEC.read_text(encoding="utf-8"))["run_seconds"]
    return _single(args)
