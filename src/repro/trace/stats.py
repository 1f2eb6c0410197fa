"""Per-trace statistics (the paper's Table 5.1 characteristics)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.isa.instructions import OpClass
from repro.trace.records import DynInst


@dataclass
class TraceStats:
    """Dynamic instruction count and instruction mix of one trace."""

    instructions: int = 0
    class_counts: Dict[OpClass, int] = field(default_factory=dict)

    def observe(self, inst: DynInst) -> None:
        self.instructions += 1
        cls = inst.opclass
        self.class_counts[cls] = self.class_counts.get(cls, 0) + 1

    @property
    def loads(self) -> int:
        return self.class_counts.get(OpClass.LOAD, 0)

    @property
    def stores(self) -> int:
        return self.class_counts.get(OpClass.STORE, 0)

    @property
    def load_fraction(self) -> float:
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def store_fraction(self) -> float:
        return self.stores / self.instructions if self.instructions else 0.0

    @property
    def branch_fraction(self) -> float:
        if not self.instructions:
            return 0.0
        branches = sum(
            self.class_counts.get(c, 0)
            for c in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RETURN)
        )
        return branches / self.instructions

    @property
    def fp_fraction(self) -> float:
        if not self.instructions:
            return 0.0
        fp_ops = sum(
            self.class_counts.get(c, 0)
            for c in (OpClass.FADD, OpClass.FMUL_SP, OpClass.FMUL_DP,
                      OpClass.FDIV_SP, OpClass.FDIV_DP, OpClass.FCMP)
        )
        return fp_ops / self.instructions


def collect_stats(trace: Iterable[DynInst]) -> TraceStats:
    """Consume a trace and return its statistics."""
    stats = TraceStats()
    for inst in trace:
        stats.observe(inst)
    return stats
