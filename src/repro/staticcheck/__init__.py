"""repro.staticcheck — the whole-repo invariant linter.

The reproduction's headline guarantees are *determinism properties*:
parallel and serial harness runs are byte-identical, figure outputs are
byte-identical across simulation backends, and the content-addressed
result store serves a cached cell only when code and configuration are
provably unchanged.  All of that is runtime-checked; this package checks
it *statically*, so the bug classes that would silently break those
guarantees — unsorted set iteration feeding a report, an unseeded RNG, a
wall-clock value in a payload, module state smuggled across ``fork()``,
a raw float cache key, fingerprint-invisible dispatch — fail CI before
they run.

Rule families (full reference in docs/staticcheck.md):

* ``DT*`` determinism — unordered iteration, unseeded randomness,
  wall-clock reads reachable from artefact entry points (a call-graph
  pass seeded at ``run``/``run_one``/``observe``/``render``/``main`` and
  :mod:`repro.util.hashing`).
* ``FH*`` float hygiene — float dict keys and exact float comparison
  (the PR 2 ``_program_cache`` bug class).
* ``FS*`` fork safety — module-level mutable state, locks, RNGs and
  file handles that forking would duplicate into queue workers.
* ``CK*`` cache-key soundness — dynamic import / getattr dispatch the
  code fingerprint cannot see.
* ``AS*`` async soundness — blocking calls reachable from coroutines
  (via the call graph), unawaited coroutines, dropped task
  handles, locks held across ``await``.
* ``SH*`` shared-state isolation — class-body mutables shared across
  instances/sessions, read-await-write races in spawned tasks, closure
  ``fork()`` targets.
* ``RS*`` resource lifecycle — path-sensitive (per-function CFG) leak
  checks for file handles, queue leases and tmp files, including
  exception edges.

Findings are suppressible only inline, with a pragma naming the rule
and a justification (``# staticcheck: ignore[FS101] why``).  CLI:

    python -m repro.staticcheck --strict
    python -m repro.staticcheck --json - --rule DT101 src/repro/harness
    python -m repro staticcheck --strict          # top-level alias
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.staticcheck.callgraph import CallGraph
from repro.staticcheck.model import (
    REPORT_SCHEMA_VERSION,
    CheckReport,
    Finding,
    PragmaError,
    SourceFile,
)
from repro.staticcheck.rules import (
    REGISTRY_VERSION,
    RULES,
    Rule,
    Severity,
    resolve_many,
)
from repro.staticcheck import (
    checks_async,
    checks_cachekey,
    checks_determinism,
    checks_forksafety,
    checks_resource,
    checks_shared,
    checks_values,
)

#: per-file passes, in report order
_FILE_CHECKS = (
    checks_determinism.check_file,
    checks_values.check_file,
    checks_forksafety.check_file,
    checks_cachekey.check_file,
    checks_shared.check_file,
    checks_resource.check_file,
)

#: whole-graph passes (built on the call graph), in report order
_GRAPH_CHECKS = (
    checks_determinism.check_wallclock,
    checks_async.check_graph,
    checks_shared.check_graph,
)


class StaticcheckError(ValueError):
    """A target cannot be analyzed (bad path, syntax error, bad pragma)."""


def default_root() -> Path:
    """The directory containing the ``repro`` package (``src/``)."""
    return Path(__file__).resolve().parent.parent.parent


def default_paths() -> List[Path]:
    """What the bare CLI analyzes: the whole installed ``repro`` tree."""
    return [Path(__file__).resolve().parent.parent]


def collect_sources(paths: Sequence[Path], root: Path) -> List[SourceFile]:
    """Parse every ``.py`` file under ``paths`` (sorted, deduplicated)."""
    seen = {}
    for path in paths:
        path = Path(path).resolve()
        if path.is_dir():
            for file_path in sorted(path.rglob("*.py")):
                seen[file_path] = None
        elif path.suffix == ".py" and path.is_file():
            seen[path] = None
        else:
            raise StaticcheckError(
                f"not a Python file or directory: {path}")
    sources = []
    for file_path in sorted(seen):
        try:
            sources.append(SourceFile.load(file_path, root))
        except ValueError as exc:       # bad relpath, pragma or syntax
            raise StaticcheckError(str(exc)) from None
        except SyntaxError as exc:
            raise StaticcheckError(
                f"{file_path}: syntax error: {exc}") from None
    return sources


def check_sources(sources: Sequence[SourceFile],
                  root: Path,
                  rules: Optional[Iterable[str]] = None) -> CheckReport:
    """Run every pass over parsed sources; pragma suppression applied."""
    selected = set(resolve_many(rules)) if rules else None
    report = CheckReport(root=str(root), files=len(sources))

    raw: List[Finding] = []
    for source in sources:
        for check in _FILE_CHECKS:
            raw.extend(check(source))
    graph = CallGraph(sources)
    for check in _GRAPH_CHECKS:
        raw.extend(check(sources, graph))

    by_rel = {source.rel: source for source in sources}
    for finding in raw:
        if selected is not None and finding.rule not in selected:
            continue
        source = by_rel.get(finding.path)
        if source is not None and source.suppressed(finding.rule,
                                                    finding.line):
            report.suppressed += 1
            continue
        report.findings.append(finding)
    report.sort()
    return report


def check_paths(paths: Optional[Sequence[Path]] = None,
                root: Optional[Path] = None,
                rules: Optional[Iterable[str]] = None) -> CheckReport:
    """The one-call API: analyze ``paths`` (default: the repro tree)."""
    root = Path(root).resolve() if root is not None else default_root()
    targets = [Path(p) for p in paths] if paths else default_paths()
    return check_sources(collect_sources(targets, root), root, rules)


__all__ = [
    "CallGraph",
    "CheckReport",
    "Finding",
    "PragmaError",
    "REGISTRY_VERSION",
    "REPORT_SCHEMA_VERSION",
    "RULES",
    "Rule",
    "Severity",
    "SourceFile",
    "StaticcheckError",
    "check_paths",
    "check_sources",
    "collect_sources",
    "default_paths",
    "default_root",
]
