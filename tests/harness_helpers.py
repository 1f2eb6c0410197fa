"""A fault-injecting artefact module for the harness tests.

Registered under the name ``boom`` by ``tests/test_harness.py``; exposes
the harness interface (``run``/``render`` plus a per-cell ``run_one``)
but fails on demand: the ``go`` cell raises, the ``m88`` cell
hard-exits its worker process (simulating a crash), the ``gcc`` cell
ignores SIGTERM and hangs (an unkillable-without-SIGKILL worker), the
``per`` cell sleeps for a long time *without* masking signals (a slow
but well-behaved job, for drain/kill drills), every other cell succeeds.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

RAISING_WORKLOAD = "go"
DYING_WORKLOAD = "m88"
HANGING_WORKLOAD = "gcc"
SLEEPING_WORKLOAD = "per"


@dataclass
class BoomRow:
    abbrev: str
    scale: float


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[BoomRow]:
    from repro.experiments.runner import select_workloads

    return [row for w in select_workloads(workloads)
            for row in run_one(w.abbrev, scale)]


def run_one(workload: str, scale: float, **kwargs) -> List[BoomRow]:
    if workload == RAISING_WORKLOAD:
        raise RuntimeError("injected failure")
    if workload == DYING_WORKLOAD:
        os._exit(13)
    if workload == HANGING_WORKLOAD:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(3600)
    if workload == SLEEPING_WORKLOAD:
        time.sleep(3600)
    return [BoomRow(abbrev=workload, scale=scale)]


def render(rows: List[BoomRow]) -> str:
    return "\n".join(f"{row.abbrev} {row.scale:g}" for row in rows)
