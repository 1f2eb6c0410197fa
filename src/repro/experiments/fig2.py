"""Figure 2 — memory dependence locality of RAR dependences (n = 1..4).

Part (a) uses an infinite address window, part (b) a 4K-entry window.  The
paper's headline observation: "More than 70% of all loads experience a
dependence among the four most recently encountered RAR dependences."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.columnar.backend import DEFAULT_BACKEND, get_backend
from repro.experiments.report import format_table, pct
from repro.experiments.runner import (
    experiment_parser,
    maybe_write_json,
    select_workloads,
)

WINDOWS = {"infinite": None, "4K": 4096}


@dataclass
class LocalityRow:
    abbrev: str
    window: str
    sink_loads: int
    locality: List[float]  # locality(1) .. locality(max_n)


def run(scale: float = 1.0, workloads: Optional[Sequence[str]] = None,
        max_n: int = 4, backend: str = DEFAULT_BACKEND) -> List[LocalityRow]:
    """Measure RAR dependence locality for both address windows."""
    rows = []
    sim = get_backend(backend)
    for workload in select_workloads(workloads):
        results = sim.rar_locality(workload, scale, max_n, WINDOWS)
        for label, result in results.items():
            rows.append(LocalityRow(
                abbrev=workload.abbrev,
                window=label,
                sink_loads=result.sink_loads,
                locality=[result.locality(n) for n in range(1, max_n + 1)],
            ))
    return rows


def render(rows: List[LocalityRow]) -> str:
    sections = []
    for window in WINDOWS:
        table_rows = []
        for row in rows:
            if row.window != window:
                continue
            table_rows.append(
                [row.abbrev, f"{row.sink_loads:,}"]
                + [pct(value) for value in row.locality]
            )
        part = "(a)" if window == "infinite" else "(b)"
        sections.append(format_table(
            ["Ab.", "Sink loads", "loc(1)", "loc(2)", "loc(3)", "loc(4)"],
            table_rows,
            title=f"Figure 2{part}: RAR dependence locality, {window} address window",
        ))
    return "\n\n".join(sections)


def render_chart(rows: List[LocalityRow]) -> str:
    """Figure 2(a) as bars: locality(1) and locality(4) per program."""
    from repro.experiments.report import bar_chart

    infinite = [r for r in rows if r.window == "infinite"]
    return bar_chart(
        [r.abbrev for r in infinite],
        [("loc(1)", [r.locality[0] for r in infinite]),
         ("loc(4)", [r.locality[3] for r in infinite])],
        title="Figure 2(a): RAR dependence locality, infinite window",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    args = experiment_parser(__doc__, backends=True).parse_args(argv)
    rows = run(scale=args.scale, workloads=args.workloads,
               backend=args.backend)
    maybe_write_json(args, rows)
    print(render(rows))
    if args.chart:
        print()
        print(render_chart(rows))


if __name__ == "__main__":
    main()
