"""Extension experiment — dependence distance distributions.

Not a paper artefact, but the quantity underneath two of them: the
distance (in unique intervening addresses) of each dependence explains the
DDT-size sweep of Figure 5, and the "distant-store RAW, near RAR"
population explains the Section 3.1 argument for why RAR prediction helps
loads whose stores are out of the DDT's reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dependence.distance import DependenceDistanceAnalysis
from repro.experiments import runner
from repro.experiments.report import format_table, pct
from repro.workloads.base import Workload

LIMITS = (32, 128, 512, 2048)


@dataclass
class DistanceRow:
    abbrev: str
    category: str
    raw_total: int
    rar_total: int
    raw_within: List[float]    # fraction of RAW deps within each LIMIT
    rar_within: List[float]
    rescued_distant_raw: int   # Section 3.1's rescued population
    rescued_no_raw: int        # pure data sharing


def observe(workload: Workload, scale: float,
            models: runner.Models) -> runner.Observer:
    """One cell: RAW and RAR distances and the rescued population."""
    analysis = DependenceDistanceAnalysis(rescue_limit=128)

    def finish() -> List[DistanceRow]:
        return [DistanceRow(
            abbrev=workload.abbrev,
            category=workload.category,
            raw_total=analysis.raw.total,
            rar_total=analysis.rar.total,
            raw_within=[analysis.raw.fraction_within(n) for n in LIMITS],
            rar_within=[analysis.rar.fraction_within(n) for n in LIMITS],
            rescued_distant_raw=analysis.rescued_distant_raw,
            rescued_no_raw=analysis.rescued_no_raw,
        )]
    return analysis.observe, finish


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[DistanceRow]:
    return runner.run(observe, scale, workloads)


def render(rows: List[DistanceRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append(
            [row.abbrev]
            + [pct(v) for v in row.raw_within]
            + [pct(v) for v in row.rar_within]
            + [f"{row.rescued_distant_raw:,}", f"{row.rescued_no_raw:,}"]
        )
    headers = (
        ["Ab."]
        + [f"RAW<{n}" for n in LIMITS]
        + [f"RAR<{n}" for n in LIMITS]
        + ["rescued(RAW far)", "sharing(no RAW)"]
    )
    return format_table(
        headers, table_rows,
        title=("Extension: dependence distances (fraction within N unique "
               "addresses) and the RAR-rescued load population"),
    )
