"""Figure 6 — cloaking coverage (a) and misspeculation rates (b).

The Section 5.3 accuracy study: infinite DPNT/SF, 128-entry DDT, and two
confidence mechanisms — the non-adaptive 1-bit (a rough coverage upper
bound) and the adaptive 2-bit automaton.  Headline claims: RAR adds ~20%
(integer) / ~30% (floating-point) correctly speculated loads on top of
RAW, and the adaptive predictor cuts misspeculation by almost an order of
magnitude at a minor coverage cost (paper misspeculation: 2.0% INT,
0.35% FP with the adaptive automaton).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core import CloakingConfig, CloakingEngine
from repro.experiments import runner
from repro.experiments.report import format_table, pct
from repro.experiments.runner import class_means
from repro.predictors.confidence import ConfidenceKind
from repro.workloads.base import Workload


@dataclass
class AccuracyRow:
    abbrev: str
    category: str
    confidence: str
    coverage_raw: float
    coverage_rar: float
    misspec_raw: float
    misspec_rar: float

    @property
    def coverage(self) -> float:
        return self.coverage_raw + self.coverage_rar

    @property
    def misspeculation(self) -> float:
        return self.misspec_raw + self.misspec_rar


def observe(workload: Workload, scale: float,
            models: runner.Models) -> runner.Observer:
    """One cell: both confidence mechanisms see the same trace (the
    2-bit engine is the one Figure 7 reports beside its breakdown)."""
    engines = {
        kind: models.get(CloakingEngine,
                         CloakingConfig.paper_accuracy(confidence=kind))
        for kind in (ConfidenceKind.ONE_BIT, ConfidenceKind.TWO_BIT)
    }

    def finish() -> List[AccuracyRow]:
        return [AccuracyRow(
            abbrev=workload.abbrev,
            category=workload.category,
            confidence=kind.value,
            coverage_raw=engine.stats.coverage_raw,
            coverage_rar=engine.stats.coverage_rar,
            misspec_raw=engine.stats.misspeculation_raw,
            misspec_rar=engine.stats.misspeculation_rar,
        ) for kind, engine in engines.items()]
    return None, finish


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[AccuracyRow]:
    """Run both confidence mechanisms over the suite in one trace pass each."""
    return runner.run(observe, scale, workloads)


def render(rows: List[AccuracyRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            row.abbrev, row.confidence,
            pct(row.coverage_raw), pct(row.coverage_rar), pct(row.coverage),
            pct(row.misspec_raw, 2), pct(row.misspec_rar, 2),
            pct(row.misspeculation, 2),
        ])
    body = format_table(
        ["Ab.", "Confidence", "cov RAW", "cov RAR", "cov total",
         "miss RAW", "miss RAR", "miss total"],
        table_rows,
        title="Figure 6: cloaking coverage and misspeculation per dependence type",
    )
    # Class means for the adaptive predictor (the paper's summary numbers).
    adaptive = [r for r in rows if r.confidence == ConfidenceKind.TWO_BIT.value]

    class _W:  # tiny adaptor for class_means
        def __init__(self, cat): self.is_integer = cat == "int"

    workloads = [_W(r.category) for r in adaptive]
    rar_int, rar_fp = class_means([r.coverage_rar for r in adaptive], workloads)
    miss_int, miss_fp = class_means([r.misspeculation for r in adaptive], workloads)
    summary = (
        f"\n2-bit adaptive means: additional RAR coverage "
        f"INT {pct(rar_int)} / FP {pct(rar_fp)} (paper ~20% / ~30%); "
        f"misspeculation INT {pct(miss_int, 2)} / FP {pct(miss_fp, 2)} "
        f"(paper 2.0% / 0.35%)"
    )
    return body + summary


def render_chart(rows: List[AccuracyRow]) -> str:
    """Figure 6(a) as stacked-style bars (adaptive predictor only)."""
    from repro.experiments.report import bar_chart

    adaptive = [r for r in rows if r.confidence == ConfidenceKind.TWO_BIT.value]
    labels = [r.abbrev for r in adaptive]
    return bar_chart(
        labels,
        [("RAW", [r.coverage_raw for r in adaptive]),
         ("RAR", [r.coverage_rar for r in adaptive]),
         ("tot", [r.coverage for r in adaptive])],
        title="Figure 6(a): cloaking coverage (2-bit adaptive)",
    )
