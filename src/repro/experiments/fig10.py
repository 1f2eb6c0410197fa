"""Figure 10 — speedup when the base does NOT speculate on memory
dependences (loads wait for all preceding store addresses).

Two bars per program: RAW-based and RAW+RAR-based cloaking/bypassing with
selective invalidation.  Paper: speedups are "significantly higher (often
double)" than Figure 9 — RAW+RAR reaches +9.8% INT / +6.1% FP — with some
programs lower because the lengthened critical path is made of loads that
cloaking cannot attack.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments import fig9
from repro.experiments.report import format_table, signed_pct
from repro.pipeline import ProcessorConfig
from repro.pipeline.recovery import RecoveryPolicy
from repro.core import CloakingMode

CONFIGS = (
    ("RAW", CloakingMode.RAW, RecoveryPolicy.SELECTIVE),
    ("RAW+RAR", CloakingMode.RAW_RAR, RecoveryPolicy.SELECTIVE),
)


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List["fig9.SpeedupRow"]:
    config = ProcessorConfig(memory_speculation=False)
    from repro.experiments.runner import select_workloads
    return [
        fig9._simulate_workload(workload, scale, config, configs=CONFIGS)
        for workload in select_workloads(workloads)
    ]


def render(rows: List["fig9.SpeedupRow"]) -> str:
    table_rows = [
        [row.abbrev, f"{row.base_ipc:.2f}",
         signed_pct(row.speedups["RAW"]), signed_pct(row.speedups["RAW+RAR"])]
        for row in rows
    ]
    body = format_table(
        ["Ab.", "base IPC", "RAW", "RAW+RAR"], table_rows,
        title="Figure 10: speedup with no memory dependence speculation",
    )
    from repro.util.stats import harmonic_mean_speedup
    lines = [body, ""]
    for label in ("RAW", "RAW+RAR"):
        for class_label, predicate in (
            ("INT", lambda r: r.category == "int"),
            ("FP", lambda r: r.category == "fp"),
        ):
            values = [r.speedups[label] for r in rows if predicate(r)]
            if values:
                lines.append(
                    f"HM {label} {class_label}: "
                    f"{signed_pct(harmonic_mean_speedup(values))}"
                )
    lines.append("paper: RAW+RAR +9.8% INT / +6.1% FP")
    return "\n".join(lines)
