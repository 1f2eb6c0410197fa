"""Figure 9 — performance of cloaking/bypassing with naive memory
dependence speculation.

Four configurations per program, all relative to the base processor:
{selective, squash} misspeculation recovery x {RAW, RAW+RAR} cloaking.
Paper means (selective): RAW +4.28% INT / +3.20% FP; RAW+RAR +6.44% INT /
+4.66% FP; squash invalidation rarely yields improvements.

All five machines (base + four cloaked) observe a single trace pass per
workload, using each program's Table 5.1 sampling plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import CloakingConfig, CloakingMode
from repro.experiments.report import format_table, signed_pct
from repro.experiments.runner import select_workloads
from repro.pipeline import CloakedProcessor, Processor, ProcessorConfig, RecoveryPolicy
from repro.trace.sampling import TIMING
from repro.util.stats import harmonic_mean_speedup

CONFIGS: Tuple[Tuple[str, CloakingMode, RecoveryPolicy], ...] = (
    ("selective/RAW", CloakingMode.RAW, RecoveryPolicy.SELECTIVE),
    ("selective/RAW+RAR", CloakingMode.RAW_RAR, RecoveryPolicy.SELECTIVE),
    ("squash/RAW", CloakingMode.RAW, RecoveryPolicy.SQUASH),
    ("squash/RAW+RAR", CloakingMode.RAW_RAR, RecoveryPolicy.SQUASH),
)


@dataclass
class SpeedupRow:
    abbrev: str
    category: str
    base_ipc: float
    speedups: Dict[str, float]  # config label -> speedup ratio


def _simulate_workload(workload, scale: float,
                       processor_config: ProcessorConfig,
                       configs=CONFIGS) -> SpeedupRow:
    """One trace pass drives the base machine and every cloaked variant."""
    base = Processor(processor_config)
    cloaked = {
        label: CloakedProcessor(
            processor_config,
            cloaking=CloakingConfig.paper_timing(mode),
            recovery=recovery,
        )
        for label, mode, recovery in configs
    }
    feeds = [machine.feed for machine in [base, *cloaked.values()]]
    plan = workload.sampling_plan()
    trace = workload.trace(scale=scale)
    if plan.enabled:
        for segment in plan.segments(trace):
            timing = segment.mode == TIMING
            for inst in segment.instructions:
                for feed in feeds:
                    feed(inst, timing)
    else:
        for inst in trace:
            for feed in feeds:
                feed(inst)
    base_result = base.finalize(workload.abbrev)
    return SpeedupRow(
        abbrev=workload.abbrev,
        category=workload.category,
        base_ipc=base_result.ipc,
        speedups={
            label: machine.finalize(workload.abbrev).speedup_over(base_result)
            for label, machine in cloaked.items()
        },
    )


def run(scale: float = 1.0, workloads: Optional[Sequence[str]] = None,
        processor_config: Optional[ProcessorConfig] = None) -> List[SpeedupRow]:
    processor_config = processor_config or ProcessorConfig()
    return [
        _simulate_workload(workload, scale, processor_config)
        for workload in select_workloads(workloads)
    ]


def summarize(rows: List[SpeedupRow]) -> Dict[str, Dict[str, float]]:
    """Harmonic-mean speedups per config for INT / FP / ALL."""
    summary: Dict[str, Dict[str, float]] = {}
    for label, _, _ in CONFIGS:
        per_class = {}
        for class_label, predicate in (
            ("INT", lambda r: r.category == "int"),
            ("FP", lambda r: r.category == "fp"),
            ("ALL", lambda r: True),
        ):
            values = [r.speedups[label] for r in rows if predicate(r)]
            if values:
                per_class[class_label] = harmonic_mean_speedup(values)
        summary[label] = per_class
    return summary


def render(rows: List[SpeedupRow]) -> str:
    labels = [label for label, _, _ in CONFIGS]
    table_rows = [
        [row.abbrev, f"{row.base_ipc:.2f}"]
        + [signed_pct(row.speedups[label]) for label in labels]
        for row in rows
    ]
    body = format_table(
        ["Ab.", "base IPC"] + labels, table_rows,
        title="Figure 9: speedup over the base (naive memory dependence speculation)",
    )
    summary = summarize(rows)
    lines = [body, ""]
    for label in labels:
        parts = ", ".join(
            f"{cls} {signed_pct(v)}" for cls, v in summary[label].items()
        )
        lines.append(f"HM {label}: {parts}")
    lines.append("paper (selective): RAW INT +4.28% FP +3.20%; "
                 "RAW+RAR INT +6.44% FP +4.66%")
    return "\n".join(lines)
