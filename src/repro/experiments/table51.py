"""Table 5.1 — benchmark execution characteristics.

Reports dynamic instruction count, load fraction, store fraction and the
sampling ratio per program, next to the paper's values for the original
SPEC'95 runs.  Absolute instruction counts differ by design (scaled
synthetic kernels); the instruction-mix *shape* is the comparison target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments import runner
from repro.experiments.report import format_table, pct
from repro.trace.stats import TraceStats
from repro.workloads.base import Workload

#: The paper's Table 5.1: (IC in millions, loads, stores, sampling ratio).
PAPER_TABLE51 = {
    "go": (133.8, 0.209, 0.073, "N/A"),
    "m88": (196.3, 0.188, 0.096, "1:1"),
    "gcc": (316.9, 0.243, 0.175, "N/A"),
    "com": (153.8, 0.217, 0.135, "1:2"),
    "li": (206.5, 0.296, 0.176, "N/A"),
    "ijp": (129.6, 0.177, 0.087, "N/A"),
    "per": (176.8, 0.256, 0.166, "1:1"),
    "vor": (376.9, 0.263, 0.273, "N/A"),
    "tom": (329.1, 0.319, 0.088, "1:2"),
    "swm": (188.8, 0.270, 0.066, "1:2"),
    "su2": (279.9, 0.338, 0.101, "1:3"),
    "hyd": (1128.9, 0.297, 0.082, "1:10"),
    "mgd": (95.0, 0.466, 0.030, "N/A"),
    "apl": (168.9, 0.314, 0.079, "1:1"),
    "trb": (1666.6, 0.213, 0.146, "1:10"),
    "aps": (125.9, 0.314, 0.134, "N/A"),
    "fp*": (214.2, 0.488, 0.175, "1:2"),
    "wav": (290.8, 0.302, 0.130, "1:2"),
}


@dataclass
class CharacteristicsRow:
    abbrev: str
    spec_name: str
    instructions: int
    load_fraction: float
    store_fraction: float
    sampling: str


def observe(workload: Workload, scale: float,
            models: runner.Models) -> runner.Observer:
    """One cell: count the instruction mix of ``workload``'s trace."""
    stats = TraceStats()

    def finish() -> List[CharacteristicsRow]:
        return [CharacteristicsRow(
            abbrev=workload.abbrev,
            spec_name=workload.spec_name,
            instructions=stats.instructions,
            load_fraction=stats.load_fraction,
            store_fraction=stats.store_fraction,
            sampling=workload.sampling,
        )]
    return stats.observe, finish


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[CharacteristicsRow]:
    """Measure execution characteristics for the selected workloads."""
    return runner.run(observe, scale, workloads)


def render(rows: List[CharacteristicsRow]) -> str:
    table_rows = []
    for row in rows:
        paper = PAPER_TABLE51.get(row.abbrev)
        paper_loads = pct(paper[1]) if paper else "-"
        paper_stores = pct(paper[2]) if paper else "-"
        table_rows.append([
            row.abbrev, row.spec_name, f"{row.instructions:,}",
            pct(row.load_fraction), paper_loads,
            pct(row.store_fraction), paper_stores,
            row.sampling,
        ])
    return format_table(
        ["Ab.", "Program", "IC", "Loads", "(paper)", "Stores", "(paper)", "SR"],
        table_rows,
        title="Table 5.1: Benchmark execution characteristics",
    )
