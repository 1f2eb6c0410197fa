"""Extension experiment — static dependence analysis vs the dynamic DDT.

The static analyzer (:mod:`repro.analysis`) derives, per kernel, the
may-alias RAR and RAW pair sets over static load/store PCs.  This
experiment replays each kernel's committed trace through an *infinite*
DDT — the ground truth the paper's Section 3 tables are built on — and
measures, per workload:

* **coverage**: the fraction of distinct dynamic (source PC, sink PC)
  pairs the static sets contain.  The static approximation is designed
  to be one-sided, so coverage should sit at (or very near) 100%; a drop
  means a kernel's address arithmetic escaped the analyzer's in-bounds
  assumptions — exactly the situation a fidelity claim needs to know
  about.
* **tightness**: the fraction of static pairs actually observed
  dynamically — how much the may-analysis over-approximates.

A new fidelity table alongside Table 5.1/5.2: the suite's dependence
structure validated from two independent directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis import analyze_program
from repro.dependence.ddt import DDT, DDTConfig, DependenceKind
from repro.experiments.report import format_table, pct
from repro.experiments.runner import (
    experiment_parser,
    maybe_write_json,
    select_workloads,
)

#: Maximum uncovered pairs echoed into a row (diagnostic breadcrumb).
MISS_LIMIT = 8


@dataclass
class StaticDDTRow:
    abbrev: str
    category: str
    static_rar: int          # static may-alias pair counts
    static_raw: int
    dyn_rar: int             # distinct dynamic pairs (infinite DDT)
    dyn_raw: int
    rar_coverage: float      # dynamic pairs present in the static set
    raw_coverage: float
    rar_tightness: float     # static pairs observed dynamically
    raw_tightness: float
    missing_rar: List[List[int]]   # up to MISS_LIMIT uncovered dynamic pairs
    missing_raw: List[List[int]]


def _dynamic_pairs(trace) -> Tuple[Set[Tuple[int, int]], Set[Tuple[int, int]]]:
    """Distinct (source_pc, sink_pc) pairs an unbounded DDT detects."""
    ddt = DDT(DDTConfig(size=None))
    rar: Set[Tuple[int, int]] = set()
    raw: Set[Tuple[int, int]] = set()
    for inst in trace:
        if inst.is_load:
            dep = ddt.observe_load(inst.pc, inst.word_addr)
            if dep is not None:
                pair = (dep.source_pc, dep.sink_pc)
                (rar if dep.kind == DependenceKind.RAR else raw).add(pair)
        elif inst.is_store:
            ddt.observe_store(inst.pc, inst.word_addr)
    return rar, raw


def _coverage(dynamic: Set[Tuple[int, int]],
              static: Set[Tuple[int, int]]) -> Tuple[float, List[List[int]]]:
    if not dynamic:
        return 1.0, []
    missing = sorted(dynamic - static)
    return 1.0 - len(missing) / len(dynamic), [
        list(p) for p in missing[:MISS_LIMIT]]


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[StaticDDTRow]:
    rows = []
    for workload in select_workloads(workloads):
        program = workload.program(scale, verify=True)
        report = analyze_program(program)
        static_rar = set(map(tuple, report.rar_pairs))
        static_raw = set(map(tuple, report.raw_pairs))
        dyn_rar, dyn_raw = _dynamic_pairs(workload.trace(scale=scale))
        rar_cov, missing_rar = _coverage(dyn_rar, static_rar)
        raw_cov, missing_raw = _coverage(dyn_raw, static_raw)
        rows.append(StaticDDTRow(
            abbrev=workload.abbrev,
            category=workload.category,
            static_rar=len(static_rar),
            static_raw=len(static_raw),
            dyn_rar=len(dyn_rar),
            dyn_raw=len(dyn_raw),
            rar_coverage=rar_cov,
            raw_coverage=raw_cov,
            rar_tightness=(len(dyn_rar & static_rar) / len(static_rar)
                           if static_rar else 1.0),
            raw_tightness=(len(dyn_raw & static_raw) / len(static_raw)
                           if static_raw else 1.0),
            missing_rar=missing_rar,
            missing_raw=missing_raw,
        ))
    return rows


def render(rows: List[StaticDDTRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            row.abbrev,
            f"{row.static_rar:,}", f"{row.dyn_rar:,}", pct(row.rar_coverage),
            pct(row.rar_tightness),
            f"{row.static_raw:,}", f"{row.dyn_raw:,}", pct(row.raw_coverage),
            pct(row.raw_tightness),
        ])
    headers = ["Ab.", "RAR st.", "RAR dyn", "cover", "tight",
               "RAW st.", "RAW dyn", "cover", "tight"]
    lines = [format_table(
        headers, table_rows,
        title=("Extension: static may-alias pair sets vs the dynamic DDT "
               "(coverage = dynamic pairs the static analysis predicts)"))]
    gaps = [row for row in rows if row.missing_rar or row.missing_raw]
    for row in gaps:
        for kind, missing in (("RAR", row.missing_rar),
                              ("RAW", row.missing_raw)):
            if missing:
                pairs = ", ".join(f"({a:#x}->{b:#x})" for a, b in missing)
                lines.append(f"  {row.abbrev}: uncovered {kind}: {pairs}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    args = experiment_parser(__doc__).parse_args(argv)
    rows = run(scale=args.scale, workloads=args.workloads)
    maybe_write_json(args, rows)
    print(render(rows))


if __name__ == "__main__":
    main()
