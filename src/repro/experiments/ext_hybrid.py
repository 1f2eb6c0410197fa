"""Extension experiment — hybrid cloaking + value prediction.

Not a paper artefact: the paper's Section 5.5 / conclusion *suggest* a
synergy between cloaking/bypassing and load value prediction ("these
observations suggest a potential synergy of the two techniques"); this
harness quantifies it.  For every program it reports coverage of: cloaking
alone, a confidence-gated last-value predictor alone, and the hybrid that
consults cloaking first and falls back to the value predictor.
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
from repro.predictors.hybrid import HybridLoadPredictor
from repro.predictors.value_prediction import LastValuePredictor


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


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[HybridRow]:
    rows = []
    for workload in select_workloads(workloads):
        cloak = CloakingEngine(CloakingConfig.paper_overlap())
        vp = LastValuePredictor()
        hybrid = HybridLoadPredictor()
        loads = vp_correct = 0
        for inst in workload.trace(scale=scale):
            cloak.observe(inst)
            hybrid.observe(inst)
            if inst.is_load:
                loads += 1
                vp_correct += vp.observe(inst.pc, inst.value)
        rows.append(HybridRow(
            abbrev=workload.abbrev,
            category=workload.category,
            cloaking_coverage=cloak.stats.coverage,
            vp_hit_rate=vp_correct / loads if loads else 0.0,
            hybrid_coverage=hybrid.stats.coverage,
            hybrid_misspec=hybrid.stats.misspeculation_rate,
        ))
    return rows


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


def main(argv: Optional[Sequence[str]] = None) -> None:
    args = experiment_parser(__doc__).parse_args(argv)
    rows = run(scale=args.scale, workloads=args.workloads)
    maybe_write_json(args, rows)
    print(render(rows))


if __name__ == "__main__":
    main()
