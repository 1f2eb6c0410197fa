"""Extension experiment — hybrid cloaking + value prediction.

Not a paper artefact: the paper's Section 5.5 / conclusion *suggest* a
synergy between cloaking/bypassing and load value prediction ("these
observations suggest a potential synergy of the two techniques"); this
harness quantifies it.  For every program it reports coverage of: cloaking
alone, the hit rate of a last-value predictor alone, and the hybrid that
consults cloaking first and falls back to the confidence-gated value
predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments import runner
from repro.experiments.report import format_table, pct
from repro.predictors.hybrid import HybridLoadPredictor
from repro.workloads.base import Workload


@dataclass
class HybridRow:
    abbrev: str
    category: str
    cloaking_coverage: float
    vp_hit_rate: float
    hybrid_coverage: float
    hybrid_misspec: float

    @property
    def gain_over_cloaking(self) -> float:
        return self.hybrid_coverage - self.cloaking_coverage


def observe(workload: Workload, scale: float,
            models: runner.Models) -> runner.Observer:
    """One cell: the hybrid, whose own engine and value predictor give
    the cloaking-alone and VP-alone columns (each observes every record,
    and the VP every load, exactly as standalone copies would).  It is
    the pass's shared hybrid, the one Table 5.2 reads per load."""
    hybrid = models.get(HybridLoadPredictor)

    def finish() -> List[HybridRow]:
        return [HybridRow(
            abbrev=workload.abbrev,
            category=workload.category,
            cloaking_coverage=hybrid.engine.stats.coverage,
            vp_hit_rate=hybrid.value_predictor.accuracy,
            hybrid_coverage=hybrid.stats.coverage,
            hybrid_misspec=hybrid.stats.misspeculation_rate,
        )]
    return None, finish


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[HybridRow]:
    return runner.run(observe, scale, workloads)


def render(rows: List[HybridRow]) -> str:
    table_rows = [
        [row.abbrev, pct(row.cloaking_coverage), pct(row.vp_hit_rate),
         pct(row.hybrid_coverage), pct(row.gain_over_cloaking),
         pct(row.hybrid_misspec, 2)]
        for row in rows
    ]
    return format_table(
        ["Ab.", "cloaking", "last-value VP", "hybrid", "gain", "hybrid miss"],
        table_rows,
        title=("Extension: hybrid cloaking + value prediction "
               "(cloaking first, confidence-gated VP fallback)"),
    )
