"""Extension experiment — a wider value-predictor comparison.

Section 5.5 compares cloaking against last-value prediction only, noting
that "context-based value predictors could be used to increase load value
prediction coverage".  This harness adds a stride predictor to the
comparison: per program, the fraction of loads correctly predicted by
last-value, by stride, and by cloaking/bypassing, plus the fraction only
cloaking gets right against the *stronger* VP (stride) — a harder version
of Table 5.2's complementarity claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core import CloakingConfig, CloakingEngine
from repro.experiments.report import format_table, pct
from repro.experiments.runner import (
    experiment_parser,
    maybe_write_json,
    select_workloads,
)
from repro.predictors.stride import StrideValuePredictor
from repro.predictors.value_prediction import LastValuePredictor


@dataclass
class PredictorRow:
    abbrev: str
    category: str
    loads: int
    last_value_correct: int
    stride_correct: int
    cloaking_correct: int
    cloak_only_vs_stride: int   # cloaking right, stride wrong

    def frac(self, count: int) -> float:
        return count / self.loads if self.loads else 0.0


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[PredictorRow]:
    rows = []
    for workload in select_workloads(workloads):
        last_value = LastValuePredictor()
        stride = StrideValuePredictor()
        engine = CloakingEngine(CloakingConfig.paper_overlap())
        row = PredictorRow(workload.abbrev, workload.category, 0, 0, 0, 0, 0)
        for inst in workload.trace(scale=scale):
            outcome = engine.observe(inst)
            if not inst.is_load:
                continue
            row.loads += 1
            lv_hit = last_value.observe(inst.pc, inst.value)
            st_hit = stride.observe(inst.pc, inst.value)
            cloak_hit = outcome is not None and outcome.correct
            row.last_value_correct += lv_hit
            row.stride_correct += st_hit
            row.cloaking_correct += cloak_hit
            if cloak_hit and not st_hit:
                row.cloak_only_vs_stride += 1
        rows.append(row)
    return rows


def render(rows: List[PredictorRow]) -> str:
    table_rows = [
        [row.abbrev,
         pct(row.frac(row.last_value_correct)),
         pct(row.frac(row.stride_correct)),
         pct(row.frac(row.cloaking_correct)),
         pct(row.frac(row.cloak_only_vs_stride))]
        for row in rows
    ]
    return format_table(
        ["Ab.", "last-value", "stride", "cloaking", "cloak-only vs stride"],
        table_rows,
        title=("Extension: value-predictor comparison "
               "(fractions of all loads correctly predicted)"),
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    args = experiment_parser(__doc__).parse_args(argv)
    rows = run(scale=args.scale, workloads=args.workloads)
    maybe_write_json(args, rows)
    print(render(rows))


if __name__ == "__main__":
    main()
