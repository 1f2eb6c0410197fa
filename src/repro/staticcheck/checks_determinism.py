"""Determinism rules: DT101 set iteration, DT102 directory listings,
DT201 unseeded randomness, DT301 wall-clock reachability.

DT101/DT102 are scope-local: within each function (and the module top
level) the pass tracks names bound to unordered producers (set displays,
``set()``/``frozenset()``, ``os.listdir``/``glob``/``iterdir``, set
algebra over tracked names) and flags order-sensitive consumption — a
``for`` loop, a list/generator comprehension, ``list()``/``tuple()``/
``enumerate()``/``join()`` — that is not wrapped in ``sorted(...)``.
Order-insensitive uses (membership, ``len``/``any``/``all``/``min``/
``max``/``sum``/``sorted``, set-to-set conversion, ``SetComp``) stay
silent.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.staticcheck.callgraph import CallGraph, canonical, collect_imports
from repro.staticcheck.model import Finding, SourceFile, call_name

#: canonical callables that return unordered collections
_SET_PRODUCERS = {"set", "frozenset"}
_DIR_PRODUCERS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
#: method names that list directories on any receiver (pathlib idioms)
_DIR_METHODS = {"glob", "rglob", "iterdir"}
#: set methods that return another set
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
#: consumers whose output order follows input order (flagged over unordered)
_ORDERED_CONSUMERS = {"list", "tuple", "enumerate", "iter", "reversed",
                      "map", "filter"}
#: consumers that erase ordering again (never flagged)
_NEUTRAL_CONSUMERS = {"sorted", "len", "any", "all", "min", "max", "sum",
                      "set", "frozenset", "bool"}

#: module-global randomness that must be replaced by a seeded generator
_SEEDED_RANDOM = {"random.Random", "random.SystemRandom"}
_SEEDED_NUMPY = {"numpy.random.Generator", "numpy.random.SeedSequence"}
#: numpy constructors that are fine *if* given an explicit seed argument
_NUMPY_SEEDABLE = {"numpy.random.default_rng", "numpy.random.RandomState"}

#: wall-clock / uniqueness reads that must never feed payloads or keys
WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.strftime", "time.localtime", "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4",
}

#: entry-point names seeding the DT301 reachability pass
ENTRY_POINT_NAMES = ("run", "run_one", "observe", "render", "main")


def _module_is_harness(module: str) -> bool:
    return "harness" in module.split(".")


# -- DT101 / DT102 -------------------------------------------------------

def _unordered_kind(node: ast.AST, imports: Dict[str, str],
                    names: Dict[str, str]) -> Optional[str]:
    """"set" / "dir" when ``node`` evaluates to an unordered collection."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_unordered_kind(node.left, imports, names)
                or _unordered_kind(node.right, imports, names))
    if isinstance(node, ast.Call):
        dotted = canonical(node.func, imports)
        if dotted in _SET_PRODUCERS:
            return "set"
        if dotted in _DIR_PRODUCERS:
            return "dir"
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _DIR_METHODS:
                return "dir"
            if (node.func.attr in _SET_METHODS
                    and _unordered_kind(node.func.value, imports, names)):
                return "set"
    return None


def _scope_names(body: Iterable[ast.stmt],
                 imports: Dict[str, str]) -> Dict[str, str]:
    """Names bound to unordered producers within one scope.

    Flow-insensitive with an orderliness bias: a name that is *ever*
    rebound to something not known-unordered (``x = sorted(x)``) is
    dropped, so reordered rebinds never false-positive.
    """
    assigns: List[Tuple[str, ast.AST]] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not stmt:
                continue
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                assigns.append((node.targets[0].id, node.value))
    names: Dict[str, str] = {}
    # two rounds so chained aliases (t = s | u) resolve
    for _ in range(2):
        for name, value in assigns:
            kind = _unordered_kind(value, imports, names)
            if kind:
                names[name] = kind
    for name, value in assigns:           # orderliness bias
        if name in names and not _unordered_kind(value, imports, names):
            del names[name]
    return names


class _IterationVisitor(ast.NodeVisitor):
    """Flags order-sensitive consumption of unordered collections."""

    def __init__(self, source: SourceFile, imports: Dict[str, str]) -> None:
        self.source = source
        self.imports = imports
        self.findings: List[Finding] = []
        self._scopes: List[Dict[str, str]] = [
            _scope_names(source.tree.body, imports)]
        #: comprehensions whose result feeds an order-erasing consumer
        self._neutral: Set[ast.AST] = set()

    # scope management ----------------------------------------------------

    def _enter_function(self, node) -> None:
        self._scopes.append(_scope_names(node.body, self.imports))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _enter_function

    def _kind(self, node: ast.AST) -> Optional[str]:
        merged: Dict[str, str] = {}
        for scope in self._scopes:
            merged.update(scope)
        return _unordered_kind(node, self.imports, merged)

    # consumption sites ---------------------------------------------------

    def _flag(self, node: ast.AST, kind: str, context: str) -> None:
        rule = "DT101" if kind == "set" else "DT102"
        what = ("set/frozenset" if kind == "set"
                else "directory-listing output")
        self.findings.append(Finding(
            rule=rule, path=self.source.rel,
            line=node.lineno, col=node.col_offset + 1,
            message=f"{context} iterates {what} without sorted() — "
                    f"the order is not defined by the program"))

    def _check_iter(self, iter_node: ast.AST, context: str) -> None:
        kind = self._kind(iter_node)
        if kind:
            self._flag(iter_node, kind, context)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, "for loop")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node, context: str) -> None:
        if node not in self._neutral:
            for gen in node.generators:
                self._check_iter(gen.iter, context)
        self.generic_visit(node)

    def visit_ListComp(self, node) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_GeneratorExp(self, node) -> None:
        self._check_comprehension(node, "generator expression")

    def visit_DictComp(self, node) -> None:
        self._check_comprehension(node, "dict comprehension")

    def visit_SetComp(self, node) -> None:
        # set -> set keeps the result unordered; nothing order-sensitive
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = canonical(node.func, self.imports)
        if dotted in _ORDERED_CONSUMERS and node.args:
            self._check_iter(node.args[0], f"{dotted}()")
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr == "join" and node.args):
            self._check_iter(node.args[0], "str.join()")
        elif dotted in _NEUTRAL_CONSUMERS and node.args:
            # sorted(x for x in s) erases order just like sorted(s)
            if isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp)):
                self._neutral.add(node.args[0])
        self.generic_visit(node)


# -- DT201 ---------------------------------------------------------------

def _check_unseeded_random(source: SourceFile,
                           imports: Dict[str, str]) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = canonical(node.func, imports)
        if dotted is None:
            continue
        message = None
        if dotted.startswith("random.") and dotted not in _SEEDED_RANDOM:
            message = (f"{dotted}() draws from the module-global RNG; "
                       f"use an explicitly seeded random.Random instead")
        elif dotted in _NUMPY_SEEDABLE:
            if not node.args and not node.keywords:
                message = (f"{dotted}() without a seed is "
                           f"nondeterministic; pass an explicit seed")
        elif (dotted.startswith("numpy.random.")
                and dotted not in _SEEDED_NUMPY):
            message = (f"{dotted}() uses numpy's module-global RNG; "
                       f"use numpy.random.default_rng(seed) instead")
        if message:
            findings.append(Finding(
                rule="DT201", path=source.rel, line=node.lineno,
                col=node.col_offset + 1, message=message))
    return findings


# -- DT301 ---------------------------------------------------------------

def _wallclock_calls(info_node: ast.AST,
                     imports: Dict[str, str]) -> List[Tuple[ast.Call, str]]:
    calls = []
    for node in ast.walk(info_node):
        if isinstance(node, ast.Call):
            dotted = canonical(node.func, imports)
            if dotted in WALLCLOCK:
                calls.append((node, dotted))
    return calls


def check_wallclock(files, graph: CallGraph) -> List[Finding]:
    """DT301 over a file set: wall-clock reads reachable from artefact
    entry points (``run``/``run_one``/``observe``/``render``/``main``
    outside the harness) or from hashing modules, plus any import-time
    read."""
    seeds = []
    for qual, info in graph.functions.items():
        if _module_is_harness(info.module):
            continue
        simple = qual.rsplit(":", 1)[1]
        if info.cls is None and simple in ENTRY_POINT_NAMES:
            seeds.append(qual)
        if info.module.split(".")[-1] == "hashing":
            seeds.append(qual)
    reachable = graph.reachable(seeds, skip_module=_module_is_harness)

    findings: List[Finding] = []
    by_module = {source.module: source for source in files}
    for qual in sorted(reachable):
        info = graph.functions[qual]
        source = by_module.get(info.module)
        if source is None:
            continue
        imports = graph.imports.get(info.module, {})
        for node, dotted in _wallclock_calls(info.node, imports):
            findings.append(Finding(
                rule="DT301", path=source.rel, line=node.lineno,
                col=node.col_offset + 1,
                message=f"{dotted}() is reachable from artefact entry "
                        f"point(s) via {qual} — wall-clock values must "
                        f"not feed payloads or cache keys"))
    # import-time wall-clock reads (module top level, any non-harness file)
    for source in files:
        if _module_is_harness(source.module):
            continue
        imports = graph.imports.get(source.module, {})
        for stmt in source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for node, dotted in _wallclock_calls(stmt, imports):
                findings.append(Finding(
                    rule="DT301", path=source.rel, line=node.lineno,
                    col=node.col_offset + 1,
                    message=f"{dotted}() at import time — module state "
                            f"must not depend on the clock"))
    return findings


# -- entry point ---------------------------------------------------------

def check_file(source: SourceFile) -> List[Finding]:
    """The per-file determinism rules (DT101/DT102/DT201)."""
    imports = collect_imports(source.tree, source.module)
    visitor = _IterationVisitor(source, imports)
    visitor.visit(source.tree)
    return visitor.findings + _check_unseeded_random(source, imports)
