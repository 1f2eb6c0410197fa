"""``python -m repro.harness`` — run, inspect or reset the sweep substrate.

    python -m repro.harness run summary --scale 0.1 --workers 8
    python -m repro.harness run fig2 --scale 0.5 --workers 4
    python -m repro.harness run fig2 --exec-backend worker --workers 3
    python -m repro.harness enqueue fig2 --scale 0.5 --store S --queue Q
    python -m repro.harness worker --queue Q --store S
    python -m repro.harness status
    python -m repro.harness clean

``run`` is the one path that runs an artefact and prints its report;
``python -m repro <artefact>`` is the same path with inline defaults (no
worker processes, and no result store unless ``--store`` names one).
Stdout is byte-identical across execution backends; orchestration
chatter — per-cell progress and the manifest summary — goes to stderr.
``--exec-backend`` picks *where* cells execute (inline / fork / worker);
``--backend`` picks the *simulation* backend (reference / numpy) of
backend-aware artefacts.  Exit status: 0 on success, 1 when a cell
fails, 2 on a usage error.

``enqueue`` + ``worker`` are the distributed pieces: enqueue serializes
a grid's cache-miss cells into a persistent queue directory, and any
number of workers — on this host or any host sharing the queue and
store directories — lease and execute them.  ``run --exec-backend
worker --workers 0`` enqueues and waits for external workers only.  A
queued job carries its retry budget and timeout — ``run``'s
``--retries`` and ``--timeout``, ``enqueue``'s defaults (1 retry, no
timeout) — so every worker that claims it applies them.  SIGTERM to
``run`` stops its workers and exits with status 143.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.harness.backends import BACKEND_NAMES
from repro.harness.jobs import JobPolicy, load_experiment_module
from repro.harness.manifest import STATUS_HIT, JobRecord, RunManifest
from repro.harness.registry import ARTEFACTS, get_artefact
from repro.harness.store import (
    DEFAULT_ROOT,
    ResultStore,
    code_fingerprint,
    write_rows_json,
)

#: artefacts whose ``run`` accepts a ``backend`` parameter
BACKEND_AWARE = frozenset({"fig2", "fig5", "fig7"})


def _count(low: int):
    """An argparse type: an integer of at least ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


def seconds(text: str) -> float:
    """An argparse type: a positive number of seconds."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _run_arguments(run: argparse.ArgumentParser, inline: bool) -> None:
    """Add the options of ``run`` to ``run``.

    ``inline`` gives ``python -m repro``'s defaults: the jobs run in this
    process (``--workers 0``) and no result store is read or written
    unless ``--store`` names one.
    """
    run.add_argument("artefact",
                     help="one of: " + ", ".join(ARTEFACTS)
                          + ", report_card, summary, all")
    run.add_argument("--scale", type=float, default=None,
                     help="workload scale factor (default 1.0; summary "
                          "applies its per-artefact multipliers on top)")
    run.add_argument("--workloads", nargs="*", default=None,
                     metavar="ABBREV",
                     help="subset of workload abbreviations")
    run.add_argument("--backend", choices=("reference", "numpy"),
                     default=None,
                     help="simulation backend for backend-aware artefacts "
                          "(fig2, fig5, fig7); participates in the store "
                          "cache key")
    run.add_argument("--exec-backend", choices=BACKEND_NAMES, default=None,
                     help="execution backend (default: inline when "
                          "--workers 0, else fork); 'fork' drains a job "
                          "queue this run owns with --workers local "
                          "workers, 'worker' a persistent one that "
                          "external workers can join")
    run.add_argument("--workers", type=_count(0),
                     default=0 if inline else None,
                     help="worker processes (default: "
                          + ("" if inline else "cpu count; ")
                          + "0 = run inline)")
    run.add_argument("--timeout", type=seconds, default=None,
                     help="per-job timeout in seconds, applied by every "
                          "queue worker that claims the job (default: "
                          "none; inline runs have none)")
    run.add_argument("--retries", type=_count(0), default=JobPolicy.retries,
                     help="retries per failed/crashed/timed-out job "
                          "(default %(default)s)")
    run.add_argument("--store", default=None if inline else str(DEFAULT_ROOT),
                     metavar="DIR",
                     help="result store directory (default "
                          + ("none" if inline else str(DEFAULT_ROOT)) + ")")
    run.add_argument("--queue", default=None, metavar="DIR",
                     help="job queue directory for the worker backend "
                          "(default <store>/queue)")
    run.add_argument("--lease-ttl", type=seconds, default=None,
                     help="seconds a queue lease outlives its worker's "
                          "last heartbeat before it may be reclaimed "
                          "(fork and worker backends; default 30)")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute every cell (results still stored)")
    run.add_argument("--manifest", default=None, metavar="PATH",
                     help="manifest output path (default: "
                          "<store>/manifests/run-<id>.json)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-cell progress on stderr")
    run.add_argument("--chart", action="store_true",
                     help="also render ASCII bar charts (fig2, fig5, fig6)")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="also write the report as JSON: the rows in the "
                          "store's serialization, or summary's sections")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run an artefact (or 'summary'/'all') through the "
                    "parallel harness")
    _run_arguments(run, inline=False)

    enqueue = sub.add_parser(
        "enqueue", help="serialize a grid's cache-miss cells into a "
                        "persistent job queue (drained by 'worker')")
    enqueue.add_argument("artefact",
                         help="one of: " + ", ".join(ARTEFACTS))
    enqueue.add_argument("--scale", type=float, default=None)
    enqueue.add_argument("--workloads", nargs="*", default=None,
                         metavar="ABBREV")
    enqueue.add_argument("--backend", choices=("reference", "numpy"),
                         default=None,
                         help="simulation backend param (fig2, fig5, fig7)")
    enqueue.add_argument("--store", default=None, metavar="DIR")
    enqueue.add_argument("--queue", default=None, metavar="DIR",
                         help="queue directory (default <store>/queue)")
    enqueue.add_argument("--no-cache", action="store_true",
                         help="enqueue cells even when already cached")

    worker = sub.add_parser(
        "worker", help="run a standalone queue worker: lease jobs, "
                       "execute them, write results to the store")
    worker.add_argument("--queue", required=True, metavar="DIR")
    worker.add_argument("--store", required=True, metavar="DIR")
    worker.add_argument("--lease-ttl", type=seconds, default=None,
                        help="seconds a lease outlives this worker's last "
                             "heartbeat before it may be reclaimed "
                             "(default 30)")
    worker.add_argument("--poll", type=seconds, default=0.5,
                        help="idle poll interval in seconds "
                             "(default %(default)s)")
    worker.add_argument("--max-jobs", type=_count(1), default=None,
                        help="exit after claiming this many jobs")
    worker.add_argument("--keep-alive", action="store_true",
                        help="idle for new work instead of exiting once "
                             "the queue is drained")
    worker.add_argument("--quiet", action="store_true")

    status = sub.add_parser("status", help="show store and last-run stats")
    status.add_argument("--store", default=None, metavar="DIR")
    status.add_argument("--queue", default=None, metavar="DIR",
                        help="also report this queue directory "
                             "(default <store>/queue when present)")

    clean = sub.add_parser("clean",
                           help="delete every cached result, manifest "
                                "and queued job")
    clean.add_argument("--store", default=None, metavar="DIR")
    clean.add_argument("--queue", default=None, metavar="DIR")
    return parser


def _progress(quiet: bool):
    def report(record: JobRecord) -> None:
        if quiet or record.status == STATUS_HIT:
            return
        line = (f"  {record.artefact}/{record.workload}: {record.status}"
                f" ({record.wall_time:.2f}s)")
        if record.error:
            line += f" [attempt {record.attempts}]"
        print(line, file=sys.stderr)
    return report


def _cmd_run(args) -> int:
    from repro.experiments.runner import DEFAULT_SCALE
    from repro.harness.api import run_artefacts

    name = "summary" if args.artefact == "all" else args.artefact
    if name not in ARTEFACTS and name not in ("summary", "report_card"):
        print(f"error: unknown artefact {args.artefact!r}; known: "
              + ", ".join(ARTEFACTS) + ", report_card, summary, all",
              file=sys.stderr)
        return 2
    if args.backend is not None and name not in BACKEND_AWARE:
        print(f"error: --backend applies only to: "
              f"{', '.join(sorted(BACKEND_AWARE))} (got artefact {name!r})",
              file=sys.stderr)
        return 2
    scale = DEFAULT_SCALE if args.scale is None else args.scale
    if name == "summary":
        from repro.experiments import summary

        requests = summary.requests(scale)
    elif name == "report_card":
        from repro.experiments import report_card

        requests = report_card.requests(scale)
    else:
        requests = [(name, scale,
                     {"backend": args.backend} if args.backend else None)]
    try:
        outcome = run_artefacts(
            requests, args.workloads, allow_failures=True,
            workers=args.workers,  # None: one per cpu
            store=ResultStore(args.store) if args.store else None,
            use_cache=not args.no_cache, timeout=args.timeout,
            retries=args.retries, manifest_path=args.manifest,
            progress=_progress(args.quiet), backend=args.exec_backend,
            queue_dir=args.queue, lease_ttl=args.lease_ttl)
    except ValueError as exc:  # a bad workload list or harness setting
        print(f"error: {exc}", file=sys.stderr)
        return 2

    manifest = outcome.manifest
    if name == "summary":
        sections = summary.compose_sections(outcome)
        for section in sections:
            print(section)
            print()
        if args.json:
            Path(args.json).write_text(
                json.dumps({"sections": sections}, indent=2) + "\n",
                encoding="utf-8")
    elif name == "report_card":
        if not manifest.failed:  # grading needs every cell
            criteria = report_card.grade(outcome)
            print(report_card.render(criteria))
            if args.json:
                write_rows_json(args.json, criteria)
    else:
        rows = outcome.runs[0].rows
        module = load_experiment_module(get_artefact(name).module)
        print(module.render(rows))
        chart = getattr(module, "render_chart", None)
        if args.chart and chart is not None:
            print()
            print(chart(rows))
        if args.json:
            write_rows_json(args.json, rows)

    print(manifest.summary_line(), file=sys.stderr)
    for record in manifest.failed:
        print(f"FAILED {record.artefact}/{record.workload}: "
              f"{(record.error or '').strip().splitlines()[-1]}",
              file=sys.stderr)
    return 1 if manifest.failed else 0


def run_main(argv: Sequence[str]) -> int:
    """``python -m repro <artefact>``: the ``run`` path with inline
    defaults (no worker processes, no result store)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run one artefact and print its report.")
    _run_arguments(parser, inline=True)
    return _cmd_run(parser.parse_args(argv))


def _queue_for(args, store: ResultStore):
    """The JobQueue named by ``--queue`` (default ``<store>/queue``)."""
    from repro.harness.queue import DEFAULT_LEASE_TTL, JobQueue

    root = args.queue if args.queue is not None else store.root / "queue"
    ttl = getattr(args, "lease_ttl", None)
    return JobQueue(root,
                    lease_ttl=DEFAULT_LEASE_TTL if ttl is None else ttl)


def _cmd_enqueue(args) -> int:
    from repro.experiments.runner import DEFAULT_SCALE
    from repro.harness.jobs import expand_jobs

    if args.artefact not in ARTEFACTS:
        print(f"error: unknown artefact {args.artefact!r}; known: "
              + ", ".join(ARTEFACTS), file=sys.stderr)
        return 2
    if args.backend is not None and args.artefact not in BACKEND_AWARE:
        print(f"error: --backend applies only to: "
              f"{', '.join(sorted(BACKEND_AWARE))} "
              f"(got artefact {args.artefact!r})", file=sys.stderr)
        return 2
    scale = DEFAULT_SCALE if args.scale is None else args.scale
    params = {"backend": args.backend} if args.backend else None
    try:
        jobs = expand_jobs(args.artefact, scale, args.workloads, params)
    except ValueError as exc:  # an unknown or duplicate workload
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = ResultStore(args.store)
    queue = _queue_for(args, store)
    enqueued = hits = 0
    for spec in jobs:
        key = store.key_for(spec)
        if not args.no_cache and store.get(key) is not None:
            hits += 1
            continue
        queue.enqueue(spec, key)
        enqueued += 1
    print(f"enqueued {enqueued} jobs ({hits} cache hits skipped) "
          f"into {queue.root}")
    return 0


def _cmd_worker(args) -> int:
    from repro.harness.worker import worker_loop

    store = ResultStore(args.store)
    queue = _queue_for(args, store)
    say = None if args.quiet else (
        lambda message: print(f"  {message}", file=sys.stderr))
    stats = worker_loop(queue, store, poll=args.poll, max_jobs=args.max_jobs,
                        keep_alive=args.keep_alive, progress=say)
    print(f"worker {stats.worker_id}: {stats.claimed} claimed, "
          f"{stats.completed} completed, {stats.failed} failed attempts",
          file=sys.stderr)
    return 0


def _cmd_status(args) -> int:
    store = ResultStore(args.store)
    objects = store.objects()
    manifests = store.manifests()
    quarantined = store.quarantined()
    stale = store.stale_tmps()
    print(f"store:        {store.root}")
    print(f"objects:      {len(objects)} ({store.size_bytes():,} bytes)")
    if objects:
        backends = store.cell_backends()
        print("backends:     " + ", ".join(
            f"{name}={count}" for name, count in sorted(backends.items())))
    print(f"manifests:    {len(manifests)}")
    print(f"quarantined:  {len(quarantined)}")
    for path in quarantined:
        print(f"  {path.name}: {store.quarantine_reason(path)}")
    if stale:
        print(f"stale tmps:   {len(stale)} (crashed writers; "
              f"'clean' removes them)")
    queue = _queue_for(args, store)
    if args.queue is not None or queue.root.is_dir():
        stats = queue.stats()
        print(f"queue:        {queue.root}")
        print(f"  jobs:       {stats['jobs']}")
        print(f"  done:       {stats['done']} ({stats['failed']} failed)")
        print(f"  leased:     {stats['leased']}")
        print(f"  ready:      {stats['ready']}"
              + (f" (+{stats['backing_off']} backing off)"
                 if stats["backing_off"] else ""))
    print(f"fingerprint:  {code_fingerprint()}")
    if manifests:
        last = RunManifest.load(manifests[-1])
        print(f"last run:     {last.summary_line()}")
        if last.backend:
            print(f"  backend:    {last.backend}")
        by_worker = last.by_worker()
        if by_worker:
            print("  computed by: " + ", ".join(
                f"{worker}={count}"
                for worker, count in sorted(by_worker.items())))
        if last.failed:
            for record in last.failed:
                print(f"  FAILED {record.artefact}/{record.workload}")
    return 0


def _cmd_clean(args) -> int:
    store = ResultStore(args.store)
    removed = store.clean()
    queue = _queue_for(args, store)
    if args.queue is not None or queue.root.is_dir():
        removed += queue.clean()
    print(f"removed {removed} files from {store.root}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "enqueue":
        return _cmd_enqueue(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "status":
        return _cmd_status(args)
    return _cmd_clean(args)


if __name__ == "__main__":
    sys.exit(main())
