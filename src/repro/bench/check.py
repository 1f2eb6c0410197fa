"""Summaries of benchmark runs and the regression check between two.

A *run file* (``--out RUN.json``) holds every result line of every run,
per workload, plus a summary: the median and quartiles of each metric,
over all runs and over the first and second half of them (two sets of
runs of the same code, to show how far such sets drift apart).
``--check RUN.json`` compares a run file's medians with the recorded
baseline: an end-to-end metric that got worse than the baseline median
by more than its bound in ``BENCHMARK.json`` is a regression.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


def stats(values: Sequence[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``) and sample count."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered)}


def summarize(results: Sequence[dict]) -> dict:
    """Per-metric statistics over result lines of one workload."""
    names = sorted({name for result in results for name in result["metrics"]})
    summary = {}
    for name in names:
        metrics = [result["metrics"][name] for result in results
                   if name in result["metrics"]]
        values = [metric["value"] for metric in metrics]
        entry = dict(stats(values), unit=metrics[0]["unit"])
        half = len(values) // 2
        if half:
            entry["sets"] = [stats(values[:half]), stats(values[half:])]
        summary[name] = entry
    return summary


def run_file(results: Dict[str, List[dict]], seconds: int) -> dict:
    return {"seconds": seconds, "results": results,
            "summary": {workload: summarize(lines)
                        for workload, lines in results.items()}}


def regressions(run: dict, baseline: dict, spec: dict
                ) -> Tuple[List[str], List[str]]:
    """``(report lines, regressions)`` of ``run`` against ``baseline``."""
    lines, regressed = [], []
    for workload, lines_run in sorted(run["results"].items()):
        for result in lines_run:
            if not result["correct"] or result["failed"]:
                regressed.append(f"{workload}: a run was incorrect or had "
                                 f"failed operations")
                break
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in sorted(run["summary"]):
            current = run["summary"][workload].get(name)
            base = baseline["summary"].get(workload, {}).get(name)
            if current is None or base is None:
                continue
            change = (current["median"] - base["median"]) / base["median"]
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            line = (f"{workload:<11} {name:<12} {base['median']:>10.4f} -> "
                    f"{current['median']:>10.4f} {metric['unit']:<3} "
                    f"{change:+7.1%} (bound {metric['bound']:.0%}) {verdict}")
            lines.append(line)
            if verdict != "ok":
                regressed.append(line)
    return lines, regressed


def check(run_path: Path, baseline_path: Path, spec_path: Path) -> int:
    """Print the comparison; 1 on any regression, else 0."""
    run = json.loads(run_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    lines, regressed = regressions(run, baseline, spec)
    for line in lines:
        print(line)
    for line in regressed:
        print(f"regression: {line}")
    return 1 if regressed else 0
