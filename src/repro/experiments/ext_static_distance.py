"""Extension experiment — static distance bounds vs dynamic measurements.

The distance pass (:mod:`repro.analysis.distance`) publishes, per static
load PC, bounds on RAR/RAW dependence distance (the paper's Fig. 2 /
Fig. 7 address-window metric), synonym-set membership, and a static upper
bound on achievable cloaking/bypassing coverage.  This experiment replays
each kernel's committed trace through an *infinite* DDT plus a
:class:`~repro.dependence.distance.RecencyRanker` and checks
**soundness** — no dynamic observation may escape the static
over-approximation:

1. every detected dynamic (source PC, sink PC) pair is in the static
   may-alias pair set of its kind;
2. every observed dependence distance is ≤ the sink PC's static bound
   (an unbounded ``None`` bound is trivially satisfied);
3. both endpoints of every detected pair share a static synonym set;
4. every detected sink PC is statically *coverable*, so the
   execution-weighted detected fraction is ≤ the weighted static
   coverage upper bound.

It also reports **tightness** — how loose the over-approximation is:
pair-count inflation (static / dynamic) and mean distance-bound
inflation (static bound / max observed) over finitely-bounded sinks.

Any soundness violation is a correctness bug in the static passes; the
harness entry point (``run_one``) raises so a suite-wide harness run
turns red, and the CLI exits 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import analyze_program
from repro.dependence.ddt import DDT, DDTConfig, DependenceKind
from repro.dependence.distance import RecencyRanker
from repro.experiments.report import format_table, pct
from repro.experiments.runner import select_workloads

#: Maximum violation records echoed into a row (the count is exact).
VIOLATION_LIMIT = 5


class SoundnessViolation(AssertionError):
    """A dynamic observation escaped the static over-approximation."""


@dataclass
class StaticDistanceRow:
    abbrev: str
    category: str
    dyn_loads: int                    # committed loads replayed
    detected: int                     # loads with an (infinite-DDT) dep
    detected_fraction: float
    coverage_bound: float             # execution-weighted static bound
    static_rar: int                   # pair-set sizes, word granular
    dyn_rar: int
    static_raw: int
    dyn_raw: int
    rar_pair_inflation: float         # static / max(dynamic, 1)
    raw_pair_inflation: float
    rar_distance_inflation: Optional[float]  # mean bound / max observed
    raw_distance_inflation: Optional[float]  # (None: nothing finite seen)
    violation_count: int = 0
    violations: List[dict] = field(default_factory=list)  # ≤ VIOLATION_LIMIT


class _Violations:
    """Exact count, capped samples."""

    def __init__(self) -> None:
        self.count = 0
        self.samples: List[dict] = []

    def add(self, check: str, **detail) -> None:
        self.count += 1
        if len(self.samples) < VIOLATION_LIMIT:
            self.samples.append({"check": check, **detail})


def _bound_of(pcd, kind: str) -> Optional[int]:
    return pcd.rar_bound if kind == "rar" else pcd.raw_bound


def _replay(trace, report, violations: "_Violations"):
    """Replay a committed trace against the static report.

    Returns ``(loads, detected, exec_loads, dyn_pairs, max_observed)``
    where ``dyn_pairs[kind]`` is the distinct pair set and
    ``max_observed[(kind, sink_pc)]`` the largest distance seen.
    """
    dist = report.distances
    graph = dist.graph
    static_pairs = {
        "rar": set(map(tuple, report.rar_pairs)),
        "raw": set(map(tuple, report.raw_pairs)),
    }
    ddt = DDT(DDTConfig(size=None))
    ranker = RecencyRanker()
    dyn_pairs: Dict[str, Set[Tuple[int, int]]] = {"rar": set(), "raw": set()}
    max_observed: Dict[Tuple[str, int], int] = {}
    exec_loads: Dict[int, int] = {}
    loads = detected = 0

    for inst in trace:
        if inst.is_load:
            loads += 1
            exec_loads[inst.pc] = exec_loads.get(inst.pc, 0) + 1
            rank = ranker.touch(inst.word_addr)
            dep = ddt.observe_load(inst.pc, inst.word_addr)
            if dep is None:
                continue
            detected += 1
            kind = "rar" if dep.kind == DependenceKind.RAR else "raw"
            pair = (dep.source_pc, dep.sink_pc)
            dyn_pairs[kind].add(pair)
            distance = rank if rank is not None else 0
            key = (kind, dep.sink_pc)
            max_observed[key] = max(max_observed.get(key, 0), distance)

            if pair not in static_pairs[kind]:
                violations.add(
                    "pair", kind=kind,
                    source=f"{dep.source_pc:#x}", sink=f"{dep.sink_pc:#x}")
            pcd = dist.per_pc.get(dep.sink_pc)
            if pcd is None:
                violations.add("pc", kind=kind, sink=f"{dep.sink_pc:#x}")
            else:
                bound = _bound_of(pcd, kind)
                if bound is not None and distance > bound:
                    violations.add(
                        "distance", kind=kind, sink=f"{dep.sink_pc:#x}",
                        observed=distance, bound=bound)
            src_set = graph.set_of(dep.source_pc)
            sink_set = graph.set_of(dep.sink_pc)
            if src_set is None or src_set != sink_set:
                violations.add(
                    "synonym", kind=kind,
                    source=f"{dep.source_pc:#x}", sink=f"{dep.sink_pc:#x}",
                    source_set=src_set, sink_set=sink_set)
            if dep.sink_pc not in dist.coverable:
                violations.add("coverage", kind=kind,
                               sink=f"{dep.sink_pc:#x}")
        elif inst.is_store:
            ranker.touch(inst.word_addr)
            ddt.observe_store(inst.pc, inst.word_addr)
    return loads, detected, exec_loads, dyn_pairs, max_observed


def _distance_inflation(dist, max_observed: Dict[Tuple[str, int], int],
                        kind: str) -> Optional[float]:
    """Mean static-bound / max-observed over finitely-bounded sinks."""
    ratios = []
    for (k, sink), observed in max_observed.items():
        if k != kind:
            continue
        pcd = dist.per_pc.get(sink)
        bound = _bound_of(pcd, kind) if pcd is not None else None
        if bound is not None:
            ratios.append(bound / max(observed, 1))
    return sum(ratios) / len(ratios) if ratios else None


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[StaticDistanceRow]:
    rows = []
    for workload in select_workloads(workloads):
        program = workload.program(scale, verify=True)
        report = analyze_program(program, distances=True)
        dist = report.distances
        violations = _Violations()
        loads, detected, exec_loads, dyn_pairs, max_observed = _replay(
            workload.trace(scale=scale), report, violations)

        coverable_weight = sum(
            count for pc, count in exec_loads.items()
            if pc in dist.coverable)
        coverage_bound = coverable_weight / loads if loads else 0.0
        detected_fraction = detected / loads if loads else 0.0
        if detected_fraction > coverage_bound + 1e-12:
            violations.add("coverage_bound",
                           detected=detected_fraction,
                           bound=coverage_bound)

        static_rar = len(report.rar_pairs)
        static_raw = len(report.raw_pairs)
        rows.append(StaticDistanceRow(
            abbrev=workload.abbrev,
            category=workload.category,
            dyn_loads=loads,
            detected=detected,
            detected_fraction=detected_fraction,
            coverage_bound=coverage_bound,
            static_rar=static_rar,
            dyn_rar=len(dyn_pairs["rar"]),
            static_raw=static_raw,
            dyn_raw=len(dyn_pairs["raw"]),
            rar_pair_inflation=static_rar / max(len(dyn_pairs["rar"]), 1),
            raw_pair_inflation=static_raw / max(len(dyn_pairs["raw"]), 1),
            rar_distance_inflation=_distance_inflation(
                dist, max_observed, "rar"),
            raw_distance_inflation=_distance_inflation(
                dist, max_observed, "raw"),
            violation_count=violations.count,
            violations=violations.samples,
        ))
    return rows


def run_one(workload: str, scale: float, **kwargs):
    """One (workload, scale) cell of the grid — the harness entry point.

    Raises :class:`SoundnessViolation` when the dynamic replay escapes
    the static approximation, so a harness run over this artefact is a
    suite-wide soundness gate.
    """
    rows = run(scale=scale, workloads=[workload], **kwargs)
    for row in rows:
        if row.violation_count:
            samples = "; ".join(str(v) for v in row.violations)
            raise SoundnessViolation(
                f"{row.abbrev}: {row.violation_count} dynamic observation(s) "
                f"outside the static may-set/bounds — {samples}")
    return rows


def _ratio(value: Optional[float]) -> str:
    return "—" if value is None else f"{value:.1f}×"


def render(rows: List[StaticDistanceRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            row.abbrev,
            f"{row.dyn_loads:,}",
            pct(row.detected_fraction),
            pct(row.coverage_bound),
            f"{row.dyn_rar}/{row.static_rar}",
            _ratio(row.rar_distance_inflation),
            f"{row.dyn_raw}/{row.static_raw}",
            _ratio(row.raw_distance_inflation),
            str(row.violation_count),
        ])
    headers = ["Ab.", "loads", "det", "≤cover", "RAR d/s", "dist×",
               "RAW d/s", "dist×", "viol"]
    lines = [format_table(
        headers, table_rows,
        title=("Extension: dynamic dependence distances vs static bounds "
               "(det ≤ cover is the weighted soundness check; dist× = mean "
               "static-over-dynamic distance inflation)"))]
    for row in rows:
        for violation in row.violations:
            lines.append(f"  {row.abbrev}: VIOLATION {violation}")
    return "\n".join(lines)
