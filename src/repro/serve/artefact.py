"""Harness integration: the chaos soak drill as a store artefact.

``ext_serve_soak`` exposes the uniform experiment interface (``run`` /
``render``) so ``python -m repro.harness run ext_serve_soak`` drills
kernels in parallel and caches each kernel's
:class:`~repro.serve.soak.SoakRow` in the result store.  Latency
percentiles are wall-clock measurements, so the drill publishes the
service-level numbers (sessions/sec, p50/p99) to
``results/BENCH_serve.json`` rather than asserting on them in tier-1
tests; only CI's serve-smoke job applies latency floors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence

from repro.experiments.report import format_table
from repro.experiments.runner import (
    experiment_parser, maybe_write_json, select_workloads)
from repro.serve.protocol import PROTO_VERSION
from repro.serve.soak import DEFAULT_SEED, SOAK_VERSION, SoakRow, run_soak

BENCH_JSON = Path("results") / "BENCH_serve.json"


def run(scale: float = 1.0,
        workloads: Optional[Sequence[str]] = None,
        seed: int = DEFAULT_SEED,
        sessions: int = 4,
        overload: float = 4.0) -> List[SoakRow]:
    return [run_soak(spec.abbrev, scale, seed=seed, sessions=sessions,
                     overload=overload)
            for spec in select_workloads(workloads)]


def render(rows: List[SoakRow]) -> str:
    table_rows = [
        [row.workload, str(row.sent), str(row.predicted),
         str(row.degraded_total), str(row.breaker_opens),
         f"{row.baseline_p99_ms:.1f}", f"{row.burst_p99_ms:.1f}",
         f"{row.recovery_p99_ms:.1f}",
         "yes" if row.recovered else "NO",
         "yes" if row.drained else "NO",
         str(row.violated)]
        for row in rows
    ]
    headers = ["Ab.", "sent", "pred", "degr", "brk",
               "base p99", "burst p99", "rec p99", "recov", "drain", "VIOL"]
    lines = [format_table(
        headers, table_rows,
        title=f"Serve: chaos soak at {rows[0].overload:g}x sustainable "
              f"load" if rows else "Serve: chaos soak")]
    for row in rows:
        lines.extend(f"  {text}" for text in row.violations)
    failed = [row.workload for row in rows if not row.passed]
    if failed:
        lines.append(f"FAILED drills: {', '.join(failed)}")
    else:
        lines.append("all drills passed (typed shedding only, committed "
                     "state never diverged, p99 recovered, clean drain)")
    return "\n".join(lines)


def bench_payload(rows: List[SoakRow]) -> dict:
    """The machine-readable service-level summary for ``BENCH_serve``."""
    responded = sum(row.responded for row in rows)
    duration = sum(row.duration_s for row in rows)
    return {
        "schema": "repro.serve/bench-v1",
        "proto": PROTO_VERSION,
        "soak_version": SOAK_VERSION,
        "drills": len(rows),
        "records_per_sec": responded / duration if duration > 0 else 0.0,
        "sessions_per_sec": (sum(row.sessions for row in rows) / duration
                             if duration > 0 else 0.0),
        "kernels": {
            row.workload: {
                "sessions_per_sec": row.sessions_per_sec,
                "records_per_sec": row.records_per_sec,
                "p50_ms": row.p50_ms,
                "p99_ms": row.p99_ms,
                "baseline_p99_ms": row.baseline_p99_ms,
                "burst_p99_ms": row.burst_p99_ms,
                "recovery_p99_ms": row.recovery_p99_ms,
                "degraded_total": row.degraded_total,
                "breaker_opens": row.breaker_opens,
                "violations": row.violated,
            }
            for row in rows
        },
    }


def write_bench(rows: List[SoakRow], path: Path = BENCH_JSON) -> Path:
    """Publish sessions/sec and p50/p99 to ``results/BENCH_serve.json``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bench_payload(rows), indent=2) + "\n",
                    encoding="utf-8")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = experiment_parser(__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--overload", type=float, default=4.0)
    parser.add_argument("--bench", default=None, metavar="PATH",
                        help=f"also write the service-level summary JSON "
                             f"(default location {BENCH_JSON})")
    args = parser.parse_args(argv)
    rows = run(scale=args.scale, workloads=args.workloads, seed=args.seed,
               sessions=args.sessions, overload=args.overload)
    maybe_write_json(args, rows)
    if args.bench is not None:
        write_bench(rows, Path(args.bench))
    print(render(rows))
    return 0 if all(row.passed for row in rows) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
