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
from repro.dependence.locality import AddressValueLocalityAnalysis
from repro.experiments import runner
from repro.experiments.report import format_table, pct
from repro.workloads.base import Workload


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


def observe(workload: Workload, scale: float, models: runner.Models,
            backend: str = DEFAULT_BACKEND) -> runner.Observer:
    """One cell: the locality breakdown and the cloaking engine (the
    predict stage, always per instruction) see the same trace.  On the
    reference backend the engine is the pass's shared Section 5.3 engine,
    which Figure 6 reports as its 2-bit row."""
    config = CloakingConfig.paper_accuracy()
    if backend != "reference":
        sim = get_backend(backend)
        engine = CloakingEngine(config)

        def finish_own() -> List[LocalityBreakdownRow]:
            for inst in sim.stream(workload, scale):
                engine.observe(inst)
            return _rows(workload, sim.address_value_locality(
                workload, scale), engine)
        return None, finish_own
    engine = models.get(CloakingEngine, config)
    analysis = AddressValueLocalityAnalysis()
    return analysis.observe, lambda: _rows(workload, analysis, engine)


def _rows(workload: Workload, analysis: AddressValueLocalityAnalysis,
          engine: CloakingEngine) -> List[LocalityBreakdownRow]:
    stats = engine.stats
    return [LocalityBreakdownRow(
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
    )]


def run(scale: float = 1.0, workloads: Optional[Sequence[str]] = None,
        backend: str = DEFAULT_BACKEND) -> List[LocalityBreakdownRow]:
    return runner.run(observe, scale, workloads, backend=backend)


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
