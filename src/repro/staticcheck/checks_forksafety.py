"""Fork-safety rules: FS101 mutated module state, FS102 module locks,
FS103 module RNGs, FS104 module file handles.

Forked queue workers and their per-claim children
(:mod:`repro.harness.worker`) each get a copy-on-write snapshot of the
parent's module state.  Module-level mutable state that functions write
to therefore forks into divergent copies (or, pre-fork, smuggles parent
history into every child); locks
fork in whatever state they were held in; RNG instances fork mid-stream
so children replay identical draws; file handles share offsets.

A module-level container that is only populated at import time (the
registry pattern — every mutation happens at module top level) is *not*
flagged: import-time state is identical in parent and children by
construction.  Deliberate cross-fork seams (the harness injection hook)
and deterministic memo caches carry an inline pragma with their
justification instead.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.staticcheck.callgraph import canonical, collect_imports
from repro.staticcheck.model import Finding, SourceFile

_MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.deque", "collections.Counter", "collections.ChainMap",
}
_LOCK_CONSTRUCTORS = {
    f"{mod}.{name}"
    for mod in ("threading", "multiprocessing")
    for name in ("Lock", "RLock", "Condition", "Semaphore",
                 "BoundedSemaphore", "Event", "Barrier")
}
_RNG_CONSTRUCTORS = {"random.Random", "numpy.random.RandomState",
                     "numpy.random.default_rng"}
_OPEN_CONSTRUCTORS = {"open", "io.open"}

#: container method calls that mutate the receiver
_MUTATORS = {"add", "append", "appendleft", "extend", "extendleft",
             "insert", "update", "setdefault", "pop", "popitem",
             "popleft", "remove", "discard", "clear"}


def _module_level_assigns(tree: ast.Module):
    """(name, value, lineno) for simple module-level assignments."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            yield stmt.targets[0].id, stmt.value, stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt.value, stmt.lineno


def _function_scopes(tree: ast.Module):
    """Every function/method body in the module (at any nesting)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _mutations_in_functions(tree: ast.Module, names: Set[str]
                            ) -> Dict[str, int]:
    """name -> first line where function code mutates or rebinds it."""
    hits: Dict[str, int] = {}

    def record(name: str, lineno: int) -> None:
        if name in names and (name not in hits or lineno < hits[name]):
            hits[name] = lineno

    for func in _function_scopes(tree):
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    record(name, node.lineno)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.attr in _MUTATORS):
                record(node.func.value.id, node.lineno)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (node.targets if isinstance(node, (ast.Assign,
                                                             ast.Delete))
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)):
                        record(target.value.id, target.lineno)
    return hits


def check_file(source: SourceFile) -> List[Finding]:
    imports = collect_imports(source.tree, source.module)
    findings: List[Finding] = []

    def classify(value: ast.AST) -> Optional[str]:
        if isinstance(value, (ast.List, ast.Dict, ast.Set,
                              ast.ListComp, ast.DictComp, ast.SetComp)):
            return "container"
        if isinstance(value, ast.Call):
            dotted = canonical(value.func, imports)
            if dotted in _MUTABLE_CONSTRUCTORS:
                return "container"
            if dotted in _LOCK_CONSTRUCTORS:
                return "lock"
            if dotted in _RNG_CONSTRUCTORS:
                return "rng"
            if dotted in _OPEN_CONSTRUCTORS:
                return "open"
        return None

    containers: Dict[str, int] = {}
    plain_names: Dict[str, int] = {}
    for name, value, lineno in _module_level_assigns(source.tree):
        kind = classify(value)
        if kind == "container":
            containers[name] = lineno
        elif kind == "lock":
            findings.append(Finding(
                rule="FS102", path=source.rel, line=lineno, col=1,
                message=f"module-level synchronization primitive "
                        f"{name!r} — fork children inherit its held "
                        f"state; create it per-process"))
        elif kind == "rng":
            findings.append(Finding(
                rule="FS103", path=source.rel, line=lineno, col=1,
                message=f"module-level RNG instance {name!r} — fork "
                        f"children replay identical draws; construct "
                        f"seeded generators per use"))
        elif kind == "open":
            findings.append(Finding(
                rule="FS104", path=source.rel, line=lineno, col=1,
                message=f"module-level open file handle {name!r} — "
                        f"fork children share the offset; open inside "
                        f"the consuming function"))
        else:
            plain_names[name] = lineno

    watched = set(containers) | set(plain_names)
    mutations = _mutations_in_functions(source.tree, watched)
    for name, where in sorted(mutations.items()):
        lineno = containers.get(name, plain_names.get(name, where))
        what = ("module-level mutable container"
                if name in containers else "module-level name")
        findings.append(Finding(
            rule="FS101", path=source.rel, line=lineno, col=1,
            message=f"{what} {name!r} is mutated from function code "
                    f"(line {where}) — state diverges across fork(); "
                    f"move it into an object the caller owns"))
    return findings
