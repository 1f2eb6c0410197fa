"""Smoke tests of the benchmark itself (about a minute)::

    PYTHONPATH=src python -m pytest src/repro/bench

Every workload runs once through :func:`repro.bench.cli.run_workload`
with the shortest measurement, and must be correct, fail nothing and
emit exactly the metrics ``BENCHMARK.json`` declares, with their units.
"""

import json
import shutil
import subprocess
import sys

import pytest

from repro.bench import check, cli
from repro.bench.workloads import WORKLOADS

SPEC = json.loads(cli.SPEC.read_text(encoding="utf-8"))


def declared(kind):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"][1:] == ["src/repro/bench/__main__.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_is_correct_and_emits_end_to_end_metrics(name):
    result = cli.run_workload(name, seed=3, seconds=0, trace=False)
    assert result["correct"], result["problems"]
    assert result["attempted"] > 0 and result["failed"] == 0
    units = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_emits_per_layer_metrics_and_spans(tmp_path):
    spans = tmp_path / "spans.json"
    result = cli.run_workload("serve", seed=3, seconds=0, trace=True,
                              spans_path=spans)
    assert result["correct"], result["problems"]
    units = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert units == declared("per_layer")
    written = json.loads(spans.read_text(encoding="utf-8"))
    names = {span["name"] for span in written["spans"]}
    assert {"pass", "serve.record", "layers", "experiments.fig9"} <= names
    assert set(written["spans"][0]) == {"name", "start", "end", "parent",
                                        "trace_id"}


def _results(eval_s, correct=True):
    return {"functional": [
        {"correct": correct, "attempted": 16, "failed": 0,
         "metrics": {"eval_s": {"value": value, "unit": "s"}}}
        for value in eval_s]}


@pytest.mark.parametrize("current, status", [
    ([1.04, 1.05, 1.06], 0),      # within the 10% bound
    ([1.14, 1.15, 1.16], 1),      # beyond it
])
def test_check_exit_status(tmp_path, current, status):
    spec = {"end_to_end": [{"name": "eval_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}
    paths = {}
    for label, content in (
            ("run", check.run_file(_results(current), 1)),
            ("baseline", check.run_file(_results([0.99, 1.0, 1.01]), 1)),
            ("spec", spec)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(content), encoding="utf-8")
    assert check.check(paths["run"], paths["baseline"],
                       paths["spec"]) == status


def test_incorrect_run_fails_the_check(tmp_path):
    run = tmp_path / "run.json"
    run.write_text(json.dumps(check.run_file(_results([1.0], False), 1)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"end_to_end": []}))
    assert check.check(run, run, spec) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    """With only the benchmark's own files present it exits non-zero
    and prints no result."""
    bench = tmp_path / "src" / "repro" / "bench"
    shutil.copytree(cli.HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "src/repro/bench/__main__.py", "--workload",
         "functional", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert b"{" not in proc.stdout
