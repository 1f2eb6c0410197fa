"""Figure 5 — fraction of loads with RAW or RAR dependences vs DDT size.

Sweeps DDT sizes 32..2K (powers of two, LRU) and reports, per program, the
fraction of committed loads whose RAW or RAR dependence is visible.
Headline shapes: RAW roughly twice RAR for the integer codes at small
DDTs, roles reversed for the floating-point codes, and a ~128-entry DDT
already captures most of what larger tables capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.backend import DEFAULT_BACKEND, get_backend
from repro.dependence.ddt import DDTConfig
from repro.dependence.detector import make_profiler
from repro.experiments import runner
from repro.experiments.report import format_table, pct
from repro.workloads.base import Workload

DDT_SIZES: Tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048)


@dataclass
class SweepRow:
    abbrev: str
    category: str
    ddt_size: int
    raw_fraction: float
    rar_fraction: float

    @property
    def total(self) -> float:
        return self.raw_fraction + self.rar_fraction


def observe(workload: Workload, scale: float, models: runner.Models,
            sizes: Sequence[int] = DDT_SIZES,
            backend: str = DEFAULT_BACKEND) -> runner.Observer:
    """One cell: every DDT size sees the same trace, all of them from
    one LRU stack (:class:`~repro.dependence.detector.LRUStackProfiler`)."""
    if backend != "reference":
        sim = get_backend(backend)
        return None, lambda: _rows(workload, sim.ddt_profiles(
            workload, scale, list(sizes)))
    profiler = make_profiler([DDTConfig(size=size) for size in sizes])
    return profiler.observe, lambda: _rows(workload, profiler.profiles)


def _rows(workload: Workload, profiles) -> List[SweepRow]:
    return [SweepRow(
        abbrev=workload.abbrev,
        category=workload.category,
        ddt_size=profile.config.size,
        raw_fraction=profile.raw_fraction,
        rar_fraction=profile.rar_fraction,
    ) for profile in profiles]


def run(scale: float = 1.0, workloads: Optional[Sequence[str]] = None,
        sizes: Sequence[int] = DDT_SIZES,
        backend: str = DEFAULT_BACKEND) -> List[SweepRow]:
    """One trace pass per workload drives every DDT size simultaneously."""
    return runner.run(observe, scale, workloads, sizes=sizes,
                      backend=backend)


def render(rows: List[SweepRow]) -> str:
    by_workload: Dict[str, List[SweepRow]] = {}
    for row in rows:
        by_workload.setdefault(row.abbrev, []).append(row)
    table_rows = []
    sizes = sorted({row.ddt_size for row in rows})
    for abbrev, workload_rows in by_workload.items():
        by_size = {r.ddt_size: r for r in workload_rows}
        cells = [abbrev]
        for size in sizes:
            r = by_size[size]
            cells.append(f"{pct(r.raw_fraction)}/{pct(r.rar_fraction)}")
        table_rows.append(cells)
    return format_table(
        ["Ab."] + [f"DDT {s} (RAW/RAR)" for s in sizes],
        table_rows,
        title="Figure 5: loads with visible RAW/RAR dependences vs DDT size",
    )


def render_chart(rows: List[SweepRow], ddt_size: int = 128) -> str:
    """One DDT size as grouped bars (the paper plots all sizes; pick one)."""
    from repro.experiments.report import bar_chart

    at_size = [r for r in rows if r.ddt_size == ddt_size]
    return bar_chart(
        [r.abbrev for r in at_size],
        [("RAW", [r.raw_fraction for r in at_size]),
         ("RAR", [r.rar_fraction for r in at_size])],
        title=f"Figure 5 (DDT {ddt_size}): loads with visible dependences",
    )
