"""Processor configuration (paper Section 5.1 base machine)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsys.hierarchy import MemoryHierarchyConfig


@dataclass(frozen=True)
class ProcessorConfig:
    """All timing parameters of the base out-of-order core.

    Defaults reproduce the paper's machine: 8-wide fetch/issue/commit,
    128-entry window, 5 cycles to fetch/decode/enter the reorder buffer,
    1 cycle operand read after issue, a 128-entry load/store scheduler
    moving up to 4 memory operations per cycle with at least one cycle
    between address calculation and scheduling, and naive memory dependence
    speculation (set ``memory_speculation=False`` for the Figure 10 base
    that makes loads wait for all preceding store addresses).
    """

    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    window_size: int = 128
    frontend_depth: int = 5
    operand_read_cycles: int = 1
    lsq_size: int = 128
    lsq_width: int = 4
    lsq_min_delay: int = 1          # cycles between address calc and scheduling
    memory_speculation: bool = True
    # "naive" (the paper's policy), "store_sets" (Chrysos-Emer) or
    # "no_speculation" (Figure 10's base).  ``memory_speculation=False`` is
    # shorthand for "no_speculation".
    lsq_policy: str = "naive"
    violation_penalty: int = 7      # re-execution cost of an order violation
    store_forward_latency: int = 1  # store-to-load forwarding
    branch_predictor_entries: int = 64 * 1024
    ras_depth: int = 64
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)

    def __post_init__(self) -> None:
        for name in ("fetch_width", "issue_width", "commit_width",
                     "window_size", "frontend_depth", "lsq_size", "lsq_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lsq_policy not in ("naive", "store_sets", "no_speculation"):
            raise ValueError(f"unknown lsq_policy {self.lsq_policy!r}")
        # Negative delays would schedule a load before its address exists,
        # and the timing model's bandwidth counters rely on every memory
        # and commit request falling after the requesting dispatch.
        for name in ("operand_read_cycles", "lsq_min_delay",
                     "store_forward_latency", "violation_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def effective_lsq_policy(self) -> str:
        """The scheduling policy after applying ``memory_speculation``."""
        if not self.memory_speculation:
            return "no_speculation"
        return self.lsq_policy
