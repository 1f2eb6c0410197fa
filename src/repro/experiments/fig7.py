"""Figure 7 — address locality (a) and value locality (b) breakdowns.

For every program: the fraction of loads exhibiting address/value locality
(same address/value as the previous execution of the same static load),
broken down by the dependence a 128-entry DDT detects (RAW / RAR / none),
shown next to cloaking coverage for the same run.  Headline observations:
many loads covered by cloaking do not exhibit address locality, and very
few loads exhibit address locality while having no visible dependence
(145.fpppp excepted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.columnar.backend import DEFAULT_BACKEND, get_backend
from repro.core import CloakingConfig, CloakingEngine
from repro.experiments.report import format_table, pct
from repro.experiments.runner import select_workloads


@dataclass
class LocalityBreakdownRow:
    abbrev: str
    category: str
    # address locality fractions by detected-dependence bucket
    addr_raw: float
    addr_rar: float
    addr_none: float
    # value locality fractions by bucket
    value_raw: float
    value_rar: float
    value_none: float
    # cloaking coverage for comparison (right bar in the paper's plots)
    coverage_raw: float
    coverage_rar: float

    @property
    def address_locality(self) -> float:
        return self.addr_raw + self.addr_rar + self.addr_none

    @property
    def value_locality(self) -> float:
        return self.value_raw + self.value_rar + self.value_none

    @property
    def coverage(self) -> float:
        return self.coverage_raw + self.coverage_rar


def run(scale: float = 1.0, workloads: Optional[Sequence[str]] = None,
        backend: str = DEFAULT_BACKEND) -> List[LocalityBreakdownRow]:
    rows = []
    sim = get_backend(backend)
    for workload in select_workloads(workloads):
        # the locality stage may be vectorized; the cloaking engine (the
        # predict stage) always sees the per-instruction stream via ``tee``
        engine = CloakingEngine(CloakingConfig.paper_accuracy())
        analysis = sim.address_value_locality(workload, scale,
                                              tee=engine.observe)
        stats = engine.stats
        rows.append(LocalityBreakdownRow(
            abbrev=workload.abbrev,
            category=workload.category,
            addr_raw=analysis.address.fraction("raw"),
            addr_rar=analysis.address.fraction("rar"),
            addr_none=analysis.address.fraction("none"),
            value_raw=analysis.value.fraction("raw"),
            value_rar=analysis.value.fraction("rar"),
            value_none=analysis.value.fraction("none"),
            coverage_raw=stats.coverage_raw,
            coverage_rar=stats.coverage_rar,
        ))
    return rows


def render(rows: List[LocalityBreakdownRow]) -> str:
    addr_rows = []
    value_rows = []
    for row in rows:
        addr_rows.append([
            row.abbrev, pct(row.addr_raw), pct(row.addr_rar),
            pct(row.addr_none), pct(row.address_locality), pct(row.coverage),
        ])
        value_rows.append([
            row.abbrev, pct(row.value_raw), pct(row.value_rar),
            pct(row.value_none), pct(row.value_locality), pct(row.coverage),
        ])
    part_a = format_table(
        ["Ab.", "RAW", "RAR", "no dep", "addr locality", "cloaking cov"],
        addr_rows, title="Figure 7(a): address locality breakdown",
    )
    part_b = format_table(
        ["Ab.", "RAW", "RAR", "no dep", "value locality", "cloaking cov"],
        value_rows, title="Figure 7(b): value locality breakdown",
    )
    return part_a + "\n\n" + part_b
