"""Harness integration: static analysis reports as a store artefact.

Exposes the uniform experiment interface (``run`` / ``render``) so
``python -m repro.harness run analysis`` lints kernels in parallel and
lands the per-workload summaries in the content-addressed result store
— the suite's structural health, cached and invalidated by the same
code-fingerprint discipline as every paper artefact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.verifier import analyze_program
from repro.experiments.report import format_table
from repro.experiments.runner import experiment_parser, maybe_write_json, select_workloads


@dataclass
class AnalysisRow:
    """One kernel's static-analysis summary (store/JSON serializable)."""

    abbrev: str
    category: str
    instructions: int
    blocks: int
    loads: int
    stores: int
    errors: int
    warnings: int
    rar_pairs: int
    raw_pairs: int
    diagnostics: List[str]   # rendered, errors and warnings only


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None) -> List[AnalysisRow]:
    rows = []
    for workload in select_workloads(workloads):
        report = analyze_program(workload.program(scale))
        rows.append(AnalysisRow(
            abbrev=workload.abbrev,
            category=workload.category,
            instructions=report.instructions,
            blocks=report.blocks,
            loads=report.loads,
            stores=report.stores,
            errors=len(report.errors),
            warnings=len(report.warnings),
            rar_pairs=len(report.rar_pairs),
            raw_pairs=len(report.raw_pairs),
            diagnostics=[d.render() for d in report.errors + report.warnings],
        ))
    return rows


def render(rows: List[AnalysisRow]) -> str:
    table_rows = [
        [row.abbrev, str(row.instructions), str(row.blocks),
         str(row.loads), str(row.stores), str(row.rar_pairs),
         str(row.raw_pairs), str(row.errors), str(row.warnings)]
        for row in rows
    ]
    headers = ["Ab.", "insts", "blocks", "loads", "stores",
               "RAR pairs", "RAW pairs", "errors", "warnings"]
    lines = [format_table(
        headers, table_rows,
        title="Static analysis: per-kernel structure and pair sets")]
    for row in rows:
        lines.extend(f"  {row.abbrev}: {text}" for text in row.diagnostics)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = experiment_parser(__doc__).parse_args(argv)
    rows = run(scale=args.scale, workloads=args.workloads)
    maybe_write_json(args, rows)
    print(render(rows))
    return 1 if any(row.errors for row in rows) else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
