"""Harness integration: chaos campaigns as a store artefact.

Exposes the uniform experiment interface (``run`` / ``render``) so
``python -m repro.harness run chaos`` shakes kernels in parallel and
lands each kernel's report in the content-addressed result store.  The
campaign seed and injection count ride in the job params, so different
campaigns cache as different cells.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.chaos.campaign import (
    DEFAULT_SEED,
    ChaosRow,
    run_kernel_campaign,
)
from repro.experiments.report import format_table
from repro.experiments.runner import (
    experiment_parser, maybe_write_json, select_workloads)


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None,
        seed: int = DEFAULT_SEED,
        injections: int = 3,
        faults: Optional[Sequence[str]] = None) -> List[ChaosRow]:
    return [run_kernel_campaign(workload, scale, seed=seed,
                                injections=injections, faults=faults)
            for workload in select_workloads(workloads)]


def render(rows: List[ChaosRow]) -> str:
    table_rows = [
        [row.abbrev, str(row.instructions), str(row.speculated),
         str(row.misspeculated), str(row.injected), str(row.armed),
         str(row.detected), str(row.recovered), str(row.silent),
         str(row.violated)]
        for row in rows
    ]
    headers = ["Ab.", "insts", "spec", "missp", "inj", "armed",
               "detect", "recover", "silent", "VIOL"]
    lines = [format_table(
        headers, table_rows,
        title="Chaos: predictor fault injection under the differential "
              "oracle")]
    for row in rows:
        lines.extend(f"  {text}" for text in row.violations)
    total_viol = sum(row.violated for row in rows)
    lines.append(f"invariant violations: {total_viol}"
                 + ("" if total_viol else
                    " (committed state never diverged)"))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = experiment_parser(__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--injections", type=int, default=3)
    args = parser.parse_args(argv)
    rows = run(scale=args.scale, workloads=args.workloads,
               seed=args.seed, injections=args.injections)
    maybe_write_json(args, rows)
    print(render(rows))
    return 1 if any(row.violated for row in rows) else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
