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

from repro.core import CloakingConfig, CloakingEngine, LoadOutcome
from repro.experiments.report import format_table, pct
from repro.experiments.runner import (
    experiment_parser,
    maybe_write_json,
    select_workloads,
)
from repro.predictors.value_prediction import LastValuePredictor


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


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[OverlapRow]:
    rows = []
    for workload in select_workloads(workloads):
        engine = CloakingEngine(CloakingConfig.paper_overlap())
        predictor = LastValuePredictor(capacity=16 * 1024)
        row = OverlapRow(workload.abbrev, workload.category, 0, 0, 0, 0, 0)
        for inst in workload.trace(scale=scale):
            outcome = engine.observe(inst)
            if not inst.is_load:
                continue
            row.loads += 1
            vp_correct = predictor.observe(inst.pc, inst.value)
            cloak_correct = outcome is not None and outcome.correct
            if cloak_correct and not vp_correct:
                if outcome == LoadOutcome.CORRECT_RAW:
                    row.cloak_only_raw += 1
                else:
                    row.cloak_only_rar += 1
            elif vp_correct and not cloak_correct:
                row.vp_only += 1
            elif vp_correct and cloak_correct:
                row.both += 1
        rows.append(row)
    return rows


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


def main(argv: Optional[Sequence[str]] = None) -> None:
    args = experiment_parser(__doc__).parse_args(argv)
    rows = run(scale=args.scale, workloads=args.workloads)
    maybe_write_json(args, rows)
    print(render(rows))


if __name__ == "__main__":
    main()
