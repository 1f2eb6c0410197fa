"""Shared-state isolation rules: SH201 class-level mutables, SH202
read/await/write races in spawned coroutines, SH203 closure fork
targets.

The serving invariant is *per-session-private engine state*: nothing a
session handler mutates may be visible to another session, and nothing
captured before ``fork()`` may be mutated in the child.  SH201 catches
the classic accidental sharing vector — a mutable bound in a class body
is one object on the class, shared by every instance, so a handler that
appends to ``self.cache`` without ever rebinding it writes into every
other session.  SH202 is the event-loop lost-update: in a coroutine that
runs as a *spawned task* (another task can interleave at any ``await``),
reading ``self.x``, awaiting, then writing ``self.x`` from the stale
read silently drops the interleaved task's update.  SH203 flags process
targets that drag captured state across the fork boundary.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.callgraph import CallGraph, canonical, \
    collect_imports
from repro.staticcheck.checks_forksafety import _MUTABLE_CONSTRUCTORS, \
    _MUTATORS
from repro.staticcheck.ir import build_cfg, header_exprs, local_walk
from repro.staticcheck.model import Finding, SourceFile

#: wrappers that run their coroutine argument as a concurrent task
_TASK_WRAPPERS = {"create_task", "ensure_future", "gather", "wait"}


def _is_self_attr(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


# -- SH201 ---------------------------------------------------------------

def _check_class_mutables(source: SourceFile,
                          imports: Dict[str, str]) -> List[Finding]:
    findings: List[Finding] = []
    for cls in ast.walk(source.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        mutables: Dict[str, int] = {}
        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                name = stmt.targets[0].id
                if name.startswith("__"):
                    continue
                value = stmt.value
                is_mutable = isinstance(value, (
                    ast.List, ast.Dict, ast.Set,
                    ast.ListComp, ast.DictComp, ast.SetComp))
                if (not is_mutable and isinstance(value, ast.Call)
                        and canonical(value.func,
                                      imports) in _MUTABLE_CONSTRUCTORS):
                    is_mutable = True
                if is_mutable:
                    mutables[name] = stmt.lineno
        if not mutables:
            continue
        rebound: Set[str] = set()
        mutated: Dict[str, int] = {}
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(item):
                if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    targets = (sub.targets if isinstance(sub, ast.Assign)
                               else [sub.target])
                    for target in targets:
                        attr = _is_self_attr(target)
                        if attr is not None:
                            rebound.add(attr)
                        if (isinstance(target, ast.Subscript)):
                            attr = _is_self_attr(target.value)
                            if attr is not None:
                                mutated.setdefault(attr, sub.lineno)
                elif isinstance(sub, ast.AugAssign):
                    if isinstance(sub.target, ast.Subscript):
                        attr = _is_self_attr(sub.target.value)
                        if attr is not None:
                            mutated.setdefault(attr, sub.lineno)
                elif (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _MUTATORS):
                    attr = _is_self_attr(sub.func.value)
                    if attr is not None:
                        mutated.setdefault(attr, sub.lineno)
        for name, where in sorted(mutated.items()):
            if name in mutables and name not in rebound:
                findings.append(Finding(
                    rule="SH201", path=source.rel, line=mutables[name],
                    col=1,
                    message=f"class-body mutable {name!r} is mutated "
                            f"through self (line {where}) but never "
                            f"rebound per instance — one object is "
                            f"shared by every instance; bind it in "
                            f"__init__"))
    return findings


# -- SH203 ---------------------------------------------------------------

def _check_fork_targets(source: SourceFile,
                        imports: Dict[str, str]) -> List[Finding]:
    nested_defs: Set[str] = set()
    for func in ast.walk(source.tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in local_walk(func):
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    nested_defs.add(sub.name)

    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = canonical(node.func, imports)
        is_process = ((dotted is not None
                       and (dotted == "Process"
                            or dotted.endswith(".Process")))
                      or (isinstance(node.func, ast.Attribute)
                          and node.func.attr == "Process"))
        if not is_process:
            continue
        target = next((kw.value for kw in node.keywords
                       if kw.arg == "target"), None)
        if target is None:
            continue
        reason = None
        if isinstance(target, ast.Lambda):
            reason = "a lambda"
        elif isinstance(target, ast.Name) and target.id in nested_defs:
            reason = f"nested closure {target.id!r}"
        elif _is_self_attr(target) is not None:
            reason = f"bound method self.{target.attr}"
        if reason is not None:
            findings.append(Finding(
                rule="SH203", path=source.rel, line=node.lineno,
                col=node.col_offset + 1,
                message=f"Process target is {reason} — it carries its "
                        f"captured state across fork()/spawn; use a "
                        f"module-level function taking explicit args"))
    return findings


# -- SH202 ---------------------------------------------------------------

def _spawned_coroutines(graph: CallGraph) -> Set[str]:
    """Async qualnames passed (as direct calls) to task wrappers."""
    spawned: Set[str] = set()
    for qual, sites in graph.sites.items():
        by_node = {id(site.node): site for site in sites}
        for site in sites:
            if site.attr not in _TASK_WRAPPERS:
                continue
            args = list(site.node.args) + [kw.value
                                           for kw in site.node.keywords]
            for arg in args:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                inner = by_node.get(id(arg))
                if inner is None:
                    continue
                for callee in inner.callees:
                    if graph.is_async(callee):
                        spawned.add(callee)
    return spawned


def _stmt_self_access(stmt: ast.stmt
                      ) -> Tuple[Set[str], Set[str], bool]:
    """(reads, stale_writes, has_await) for one CFG node's own code.

    A *stale* write is a plain ``self.X = expr`` whose RHS does not
    re-read ``self.X`` — the value was computed from an earlier read, so
    an await between read and write loses interleaved updates.
    ``self.X += 1`` and mutator calls re-read at write time and are not
    stale.
    """
    reads: Set[str] = set()
    stale_writes: Set[str] = set()
    has_await = False
    for root in header_exprs(stmt):
        for node in [root] + list(local_walk(root)):
            if isinstance(node, ast.Await):
                has_await = True
            attr = _is_self_attr(node)
            if attr is not None and isinstance(node.ctx, ast.Load):
                reads.add(attr)
    if isinstance(stmt, ast.Assign):
        value_reads = {
            _is_self_attr(node)
            for node in [stmt.value] + list(local_walk(stmt.value))}
        for target in stmt.targets:
            attr = _is_self_attr(target)
            if attr is not None and attr not in value_reads:
                stale_writes.add(attr)
    return reads, stale_writes, has_await


def _check_task_races(files: Sequence[SourceFile],
                      graph: CallGraph) -> List[Finding]:
    by_module = {source.module: source for source in files}
    findings: List[Finding] = []
    for qual in sorted(_spawned_coroutines(graph)):
        info = graph.functions.get(qual)
        if info is None or info.cls is None:
            continue
        source = by_module.get(info.module)
        if source is None:
            continue
        cfg = build_cfg(info.node)
        access = {node.id: _stmt_self_access(node.stmt)
                  for node in cfg.statement_nodes()}
        await_nodes = [nid for nid, (_r, _w, a) in access.items() if a]
        if not await_nodes:
            continue
        flagged: Set[Tuple[str, int]] = set()
        for rid, (reads, _w, _a) in sorted(access.items()):
            if not reads:
                continue
            reach_of_read = cfg.reachable_from([rid])
            awaits_after = [a for a in await_nodes if a in reach_of_read]
            if not awaits_after:
                continue
            reach_after = cfg.reachable_from(awaits_after)
            for wid in sorted(reach_after):
                if wid not in access:
                    continue
                stale = access[wid][1]
                common = (reads & stale)
                for attr in sorted(common):
                    node = cfg.nodes[wid]
                    key = (attr, node.lineno or 0)
                    if key in flagged:
                        continue
                    flagged.add(key)
                    findings.append(Finding(
                        rule="SH202", path=source.rel,
                        line=node.lineno or info.node.lineno, col=1,
                        message=f"self.{attr} written from a value read "
                                f"before an await in spawned coroutine "
                                f"{qual} — an interleaving task's "
                                f"update to self.{attr} is silently "
                                f"lost; re-read after the await or "
                                f"mutate in place"))
    return findings


# -- entry points --------------------------------------------------------

def check_file(source: SourceFile) -> List[Finding]:
    """The per-file SH rules (SH201, SH203)."""
    imports = collect_imports(source.tree, source.module)
    return (_check_class_mutables(source, imports)
            + _check_fork_targets(source, imports))


def check_graph(files: Sequence[SourceFile],
                graph: CallGraph) -> List[Finding]:
    """The graph-scoped SH rule (SH202)."""
    return _check_task_races(files, graph)
