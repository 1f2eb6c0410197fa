"""Streaming dependence classification of a trace (Figure 5 substrate).

:class:`DependenceProfiler` drives one or more DDTs over a committed
instruction stream and accumulates, per DDT configuration, the fraction of
loads whose dependence is visible — broken down into RAW and RAR.  Running
several DDT sizes in one pass is how the Figure 5 sweep amortizes trace
generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.dependence.ddt import DDT, DDTConfig, DependenceKind
from repro.trace.records import DynInst


@dataclass
class DependenceProfile:
    """Visibility counts for one DDT configuration."""

    config: DDTConfig
    loads: int = 0
    raw_loads: int = 0
    rar_loads: int = 0

    @property
    def raw_fraction(self) -> float:
        return self.raw_loads / self.loads if self.loads else 0.0

    @property
    def rar_fraction(self) -> float:
        return self.rar_loads / self.loads if self.loads else 0.0

    @property
    def any_fraction(self) -> float:
        return (self.raw_loads + self.rar_loads) / self.loads if self.loads else 0.0


class DependenceProfiler:
    """Feeds a trace through one DDT per configuration, counting visibility."""

    def __init__(self, configs: Sequence[DDTConfig]) -> None:
        if not configs:
            raise ValueError("at least one DDTConfig is required")
        self._ddts: List[DDT] = [DDT(cfg) for cfg in configs]
        self.profiles: List[DependenceProfile] = [
            DependenceProfile(cfg) for cfg in configs
        ]

    def observe(self, inst: DynInst) -> None:
        """Account one committed instruction."""
        if inst.is_load:
            addr = inst.word_addr
            pc = inst.pc
            for ddt, profile in zip(self._ddts, self.profiles):
                dep = ddt.observe_load(pc, addr)
                profile.loads += 1
                if dep is not None:
                    if dep.kind == DependenceKind.RAW:
                        profile.raw_loads += 1
                    else:
                        profile.rar_loads += 1
        elif inst.is_store:
            addr = inst.word_addr
            pc = inst.pc
            for ddt in self._ddts:
                ddt.observe_store(pc, addr)

    def run(self, trace: Iterable[DynInst]) -> List[DependenceProfile]:
        """Consume a whole trace and return the profiles."""
        for inst in trace:
            self.observe(inst)
        return self.profiles
