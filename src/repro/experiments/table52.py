"""Table 5.2 — cloaking/bypassing vs last-value load value prediction.

(The paper's text labels this table "Table 5.1" a second time; we call it
5.2.)  For every program: the fraction of loads that get a correct value
from cloaking/bypassing *but not* from a 16K fully-associative last-value
predictor (split into RAW and RAR), and vice versa.  Headline: for most
programs cloaking-only exceeds VP-only — the techniques are complementary
— with 104.hydro2d the prominent VP-favoured exception.

Configuration per Section 5.5: 16K DPNT, 128-entry DDT, 2K synonym file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core import LoadOutcome
from repro.experiments import runner
from repro.experiments.report import format_table, pct
from repro.isa.instructions import OpClass
from repro.predictors.hybrid import HybridLoadPredictor
from repro.workloads.base import Workload

_LOAD = OpClass.LOAD
_CORRECT_RAW = LoadOutcome.CORRECT_RAW


@dataclass
class OverlapRow:
    abbrev: str
    category: str
    loads: int
    cloak_only_raw: int    # correct via cloaking (RAW producer), VP wrong
    cloak_only_rar: int
    vp_only: int           # correct via VP, cloaking wrong or silent
    both: int

    def frac(self, count: int) -> float:
        return count / self.loads if self.loads else 0.0

    @property
    def cloak_only_total(self) -> float:
        return self.frac(self.cloak_only_raw + self.cloak_only_rar)


def observe(workload: Workload, scale: float,
            models: runner.Models) -> runner.Observer:
    """One cell: cloaking and a last-value predictor on every load.

    Both are the pass's shared hybrid's components (the Section 5.5
    engine and a 16K last-value predictor, each observing exactly what a
    standalone copy would), so ``ext_hybrid`` and this table drive them
    once; the hybrid has seen each record before this feed does.
    """
    hybrid = models.get(HybridLoadPredictor)
    row = OverlapRow(workload.abbrev, workload.category, 0, 0, 0, 0, 0)

    def feed(inst) -> None:
        if inst.opclass != _LOAD:
            return
        row.loads += 1
        outcome = hybrid.last_outcome
        vp_correct = hybrid.last_vp_correct
        cloak_correct = outcome.correct
        if cloak_correct and not vp_correct:
            if outcome == _CORRECT_RAW:
                row.cloak_only_raw += 1
            else:
                row.cloak_only_rar += 1
        elif vp_correct and not cloak_correct:
            row.vp_only += 1
        elif vp_correct and cloak_correct:
            row.both += 1
    return feed, lambda: [row]


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[OverlapRow]:
    return runner.run(observe, scale, workloads)


def render(rows: List[OverlapRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            row.abbrev,
            pct(row.frac(row.cloak_only_raw), 2),
            pct(row.frac(row.cloak_only_rar), 2),
            pct(row.cloak_only_total, 2),
            pct(row.frac(row.vp_only), 2),
            pct(row.frac(row.both), 2),
        ])
    return format_table(
        ["Ab.", "Cloak-only RAW", "Cloak-only RAR", "Cloak-only total",
         "VP-only", "Both"],
        table_rows,
        title=("Table 5.2: loads correct via cloaking/bypassing but not via a "
               "last-value predictor, and vice versa"),
    )
