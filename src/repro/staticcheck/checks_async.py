"""Async-soundness rules: AS101 blocking calls reachable from a
coroutine, AS102 unawaited coroutines, AS103 orphan tasks, AS104 locks
held across ``await``.

The serving stack (:mod:`repro.serve`) multiplexes every session onto
one event loop, so a single blocking primitive anywhere under a
coroutine stalls *all* sessions at once — the exact failure mode the
soak drill provokes dynamically.  AS101 proves its absence statically:
direct blocking calls in a coroutine body, plus transitive ones found by
walking the call graph through synchronous callees (awaited
coroutine callees are skipped — they are analyzed on their own), with
the offending call chain spelled out in the message.

AS102/AS103 catch the two silent-death shapes of task plumbing: a
coroutine object that is created but never awaited (the body never
runs), and a ``create_task``/``ensure_future`` whose handle is dropped
(the task may be garbage-collected mid-flight and its exception is
lost).  AS104 flags a synchronous lock held across an ``await`` — the
await lets another task run, and if that task wants the same lock the
loop deadlocks.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.callgraph import CallGraph, canonical
from repro.staticcheck.checks_forksafety import _LOCK_CONSTRUCTORS
from repro.staticcheck.ir import local_walk
from repro.staticcheck.model import Finding, SourceFile

#: canonical dotted callables that block the calling thread
_BLOCKING_DOTTED: Dict[str, str] = {
    "time.sleep": "sleeps the whole event loop",
    "subprocess.run": "spawns and waits for a process",
    "subprocess.call": "spawns and waits for a process",
    "subprocess.check_call": "spawns and waits for a process",
    "subprocess.check_output": "spawns and waits for a process",
    "open": "synchronous file I/O",
    "io.open": "synchronous file I/O",
    "os.open": "synchronous file I/O",
    "os.fsync": "synchronous disk flush",
    "os.replace": "synchronous disk I/O",
    "os.rename": "synchronous disk I/O",
    "socket.create_connection": "synchronous socket connect",
}

#: method names that do file I/O on any receiver (pathlib idioms)
_BLOCKING_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes"}

#: modules whose every function is disk I/O by contract
_DISK_MODULES = {"repro.harness.store", "repro.harness.queue"}

#: task-spawning call names (AS103 watches their dropped results)
_SPAWNERS = {"create_task", "ensure_future"}


def _blocking_sites(graph: CallGraph,
                    qual: str) -> List[Tuple[int, str, str]]:
    """(line, what, why) for direct blocking calls in one function body."""
    info = graph.functions[qual]
    imports = graph.imports.get(info.module, {})
    sites: List[Tuple[int, str, str]] = []
    for node in local_walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = canonical(node.func, imports)
        if dotted in _BLOCKING_DOTTED:
            sites.append((node.lineno, f"{dotted}()",
                          _BLOCKING_DOTTED[dotted]))
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_ATTRS):
            sites.append((node.lineno, f".{node.func.attr}()",
                          "synchronous file I/O"))
    sites.sort()
    return sites


def _blocking_chain(graph: CallGraph, qual: str,
                    memo: Dict[str, Optional[List[str]]],
                    ) -> Optional[List[str]]:
    """A call chain from sync function ``qual`` down to a blocking
    primitive, or None.  Memoized; cycles resolve to None-in-progress
    (a recursive path adds nothing a shorter one would not)."""
    if qual in memo:
        return memo[qual]
    memo[qual] = None                        # cycle guard
    info = graph.functions.get(qual)
    if info is None:
        return None
    if info.module in _DISK_MODULES:
        memo[qual] = [f"{qual} [store/queue disk I/O]"]
        return memo[qual]
    direct = _blocking_sites(graph, qual)
    if direct:
        line, what, _why = direct[0]
        memo[qual] = [f"{qual}:{line} [{what}]"]
        return memo[qual]
    for callee in sorted(info.calls):
        if graph.is_async(callee):
            continue
        chain = _blocking_chain(graph, callee, memo)
        if chain is not None:
            memo[qual] = [qual] + chain
            return memo[qual]
    return None


def _check_blocking(graph: CallGraph,
                    by_module: Dict[str, SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    memo: Dict[str, Optional[List[str]]] = {}
    for qual in sorted(graph.functions):
        if not graph.is_async(qual):
            continue
        info = graph.functions[qual]
        source = by_module.get(info.module)
        if source is None:
            continue
        for line, what, why in _blocking_sites(graph, qual):
            findings.append(Finding(
                rule="AS101", path=source.rel, line=line, col=1,
                message=f"{what} in coroutine {qual}: {why} — every "
                        f"session sharing this event loop stalls"))
        reported: Set[Tuple[int, str]] = set()
        for site in graph.sites.get(qual, []):
            for callee in site.callees:
                if graph.is_async(callee):
                    continue
                chain = _blocking_chain(graph, callee, memo)
                if chain is None or (site.lineno, chain[-1]) in reported:
                    continue
                reported.add((site.lineno, chain[-1]))
                findings.append(Finding(
                    rule="AS101", path=source.rel, line=site.lineno, col=1,
                    message=f"coroutine {qual} reaches a blocking call "
                            f"via {' -> '.join(chain)} — run it in an "
                            f"executor or make the path async"))
    return findings


def _parents(root: ast.AST) -> Dict[int, ast.AST]:
    return {id(child): parent
            for parent in ast.walk(root)
            for child in ast.iter_child_nodes(parent)}


def _name_loads(root: ast.AST) -> Dict[str, int]:
    loads: Dict[str, int] = {}
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[node.id] = loads.get(node.id, 0) + 1
    return loads


def _check_dropped(graph: CallGraph,
                   by_module: Dict[str, SourceFile]) -> List[Finding]:
    """AS102 (unawaited coroutine) + AS103 (dropped task handle).

    Both trigger on exactly two shapes — a bare expression statement and
    an assignment to a name that is never read again.  Passing the
    object onward (into ``gather``, a list, a callback registry) is
    deliberately trusted: the receiver owns it now.
    """
    findings: List[Finding] = []
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        source = by_module.get(info.module)
        if source is None:
            continue
        parents = _parents(info.node)
        loads = _name_loads(info.node)

        def dropped(node: ast.Call) -> bool:
            parent = parents.get(id(node))
            if isinstance(parent, ast.Expr):
                return True
            if (isinstance(parent, ast.Assign) and len(parent.targets) == 1
                    and isinstance(parent.targets[0], ast.Name)):
                return loads.get(parent.targets[0].id, 0) == 0
            return False

        for site in graph.sites.get(qual, []):
            if site.attr in _SPAWNERS:
                if dropped(site.node):
                    findings.append(Finding(
                        rule="AS103", path=source.rel, line=site.lineno,
                        col=site.node.col_offset + 1,
                        message=f"{site.attr}() result dropped in {qual} "
                                f"— hold a reference (or add a "
                                f"done-callback) so the task cannot be "
                                f"collected mid-flight and its "
                                f"exceptions surface"))
                continue
            if site.awaited:
                continue
            if any(graph.is_async(c) for c in site.callees):
                if dropped(site.node):
                    callee = next(c for c in site.callees
                                  if graph.is_async(c))
                    findings.append(Finding(
                        rule="AS102", path=source.rel, line=site.lineno,
                        col=site.node.col_offset + 1,
                        message=f"coroutine {callee} called in {qual} "
                                f"but never awaited — the body never "
                                f"runs"))
    return findings


def _check_lock_across_await(graph: CallGraph,
                             by_module: Dict[str, SourceFile]
                             ) -> List[Finding]:
    findings: List[Finding] = []
    for qual in sorted(graph.functions):
        if not graph.is_async(qual):
            continue
        info = graph.functions[qual]
        source = by_module.get(info.module)
        if source is None:
            continue
        imports = graph.imports.get(info.module, {})
        lock_names: Set[str] = set()
        for node in local_walk(info.node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and canonical(node.value.func,
                                  imports) in _LOCK_CONSTRUCTORS):
                lock_names.add(node.targets[0].id)

        def is_lock(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Call):
                return canonical(expr.func, imports) in _LOCK_CONSTRUCTORS
            terminal = None
            if isinstance(expr, ast.Attribute):
                terminal = expr.attr
            elif isinstance(expr, ast.Name):
                terminal = expr.id
                if terminal in lock_names:
                    return True
            return (terminal is not None
                    and terminal.lower().endswith(("lock", "mutex")))

        for node in local_walk(info.node):
            if not isinstance(node, ast.With):     # async with is fine
                continue
            if not any(is_lock(item.context_expr) for item in node.items):
                continue
            has_await = any(
                isinstance(sub, ast.Await)
                for stmt in node.body
                for sub in [stmt] + list(local_walk(stmt)))
            if has_await:
                findings.append(Finding(
                    rule="AS104", path=source.rel, line=node.lineno,
                    col=node.col_offset + 1,
                    message=f"synchronous lock held across await in "
                            f"{qual} — another task needing it "
                            f"deadlocks the event loop; use "
                            f"asyncio.Lock or release before awaiting"))
    return findings


def check_graph(files: Sequence[SourceFile],
                graph: CallGraph) -> List[Finding]:
    """The AS1xx family over the call graph."""
    by_module = {source.module: source for source in files}
    return (_check_blocking(graph, by_module)
            + _check_dropped(graph, by_module)
            + _check_lock_across_await(graph, by_module))
