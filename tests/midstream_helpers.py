"""An artefact whose observer raises part-way through a trace.

Registered under the name ``midstream`` by ``tests/test_harness.py``:
inline runs group it with the accuracy artefacts of the same (workload,
scale), so its failure lands inside a shared trace pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

#: records the observer takes before it raises
FAIL_AFTER = 1000


@dataclass
class MidstreamRow:
    abbrev: str
    records: int


def observe(workload, scale: float, models):
    seen = 0

    def feed(inst) -> None:
        nonlocal seen
        seen += 1
        if seen == FAIL_AFTER:
            raise RuntimeError("observer failed mid-stream")
    return feed, lambda: [MidstreamRow(workload.abbrev, seen)]


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[MidstreamRow]:
    from repro.experiments import runner

    return runner.run(observe, scale, workloads)


def render(rows: List[MidstreamRow]) -> str:
    return "\n".join(f"{row.abbrev} {row.records}" for row in rows)
