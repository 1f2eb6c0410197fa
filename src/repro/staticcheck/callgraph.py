"""The call graph over the analyzed package.

:class:`CallGraph` resolves calls through per-module import maps
(aliased imports included), ``self.<method>()`` within a class,
``self.<attr>.<method>()`` where any method of the class assigns or
annotates ``self.<attr>`` with a known class, locals constructed from a
statically known class (``v = ClassName(...); v.m()``), and locals or
parameters annotated with one.  Attribute calls on values the pass
cannot type are ignored — under-approximation keeps the
reachability-scoped rules free of avalanche false positives.

Besides the edges (:attr:`FunctionInfo.calls`, which DT301's
reachability walks) it keeps every call *site* with its
enclosing-``await`` context and line, a reverse ``callers`` map, and
which functions are coroutines, for the flow-sensitive AS/SH/RS
families.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.model import SourceFile, call_name


def collect_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name -> canonical dotted path, from a module's import statements.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``; relative imports
    resolve against the importing module's package.
    """
    imports: Dict[str, str] = {}
    package_parts = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - node.level + 1]
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def canonical(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The canonical dotted name of a call target (or None if computed).

    The leading segment is rewritten through the import map, so
    ``np.random.default_rng`` canonicalizes to
    ``numpy.random.default_rng`` regardless of aliasing.
    """
    dotted = call_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    resolved = imports.get(head, head)
    return f"{resolved}.{rest}" if rest else resolved


@dataclass
class FunctionInfo:
    """One function (or method) body in the package."""

    qualname: str                 # "pkg.mod:func" or "pkg.mod:Class.func"
    module: str
    node: ast.AST                 # FunctionDef / AsyncFunctionDef
    cls: Optional[str] = None
    calls: Set[str] = field(default_factory=set)   # resolved callee qualnames


def _function_bodies(node: ast.AST) -> Iterable[ast.AST]:
    """Every node of a function body, descending into nested defs/lambdas.

    Nested functions and lambdas are treated as part of the enclosing
    function: defining them does not run them, but a reachability linter
    over-approximates there rather than missing a deferred callback.
    """
    for child in ast.walk(node):
        yield child


@dataclass
class CallSite:
    """One call expression inside a function body, with its resolution."""

    node: ast.Call
    lineno: int
    awaited: bool                  # directly wrapped in ``await ...``
    dotted: Optional[str]          # canonical dotted target ("time.sleep")
    attr: Optional[str]            # terminal name ("sleep" / "claim" / "f")
    callees: Tuple[str, ...] = ()  # resolved in-package qualnames


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """The dotted name of a plain annotation (strings and Optional[...] too)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        # Optional[Cls] / "Claim | None" style wrappers: look inside
        inner = node.slice
        if isinstance(inner, ast.Index):       # pragma: no cover (py<3.9)
            inner = inner.value
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        return _annotation_name(inner)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_name(node.left)
    return call_name(node)


class CallGraph:
    """Function index, typed receivers, call sites and resolved edges."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self.imports: Dict[str, Dict[str, str]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: module -> {simple name -> qualname} for module-level functions
        self._module_funcs: Dict[str, Dict[str, str]] = {}
        #: canonical class path ("pkg.mod.Class") -> {method -> qualname}
        self._class_methods: Dict[str, Dict[str, str]] = {}
        #: canonical class path -> {attr name -> canonical class path}
        self.self_attr_types: Dict[str, Dict[str, str]] = {}
        #: qualname -> ordered call sites in that function body
        self.sites: Dict[str, List[CallSite]] = {}
        self._index()
        self._infer_self_attrs()
        self._resolve_sites()
        #: reverse adjacency over the resolved edges
        self.callers: Dict[str, Set[str]] = {}
        for qual, info in self.functions.items():
            for callee in info.calls:
                self.callers.setdefault(callee, set()).add(qual)

    # -- indexing --------------------------------------------------------

    def _index(self) -> None:
        for source in self.files:
            self.imports[source.module] = collect_imports(
                source.tree, source.module)
            funcs: Dict[str, str] = {}
            for node in source.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{source.module}:{node.name}"
                    self.functions[qual] = FunctionInfo(
                        qual, source.module, node)
                    funcs[node.name] = qual
                elif isinstance(node, ast.ClassDef):
                    methods: Dict[str, str] = {}
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            qual = f"{source.module}:{node.name}.{item.name}"
                            self.functions[qual] = FunctionInfo(
                                qual, source.module, item, cls=node.name)
                            methods[item.name] = qual
                    self._class_methods[
                        f"{source.module}.{node.name}"] = methods
            self._module_funcs[source.module] = funcs

    # -- edge resolution -------------------------------------------------

    def _resolve_target(self, dotted: Optional[str], module: str
                        ) -> List[str]:
        """Qualnames a canonical dotted call target may refer to."""
        if dotted is None:
            return []
        imports = self.imports.get(module, {})
        head, _, rest = dotted.partition(".")
        resolved = imports.get(head, head)
        full = f"{resolved}.{rest}" if rest else resolved
        # module-level function in the same module
        if not rest and head in self._module_funcs.get(module, {}):
            return [self._module_funcs[module][head]]
        # "pkg.mod.func" — split into (module, func)
        mod_name, _, attr = full.rpartition(".")
        if attr and attr in self._module_funcs.get(mod_name, {}):
            return [self._module_funcs[mod_name][attr]]
        # class constructor: "pkg.mod.Class" -> every __init__/__post_init__
        if full in self._class_methods:
            methods = self._class_methods[full]
            return [methods[m] for m in ("__init__", "__post_init__", "__new__")
                    if m in methods]
        return []

    def _local_instance_types(self, info: FunctionInfo) -> Dict[str, str]:
        """Local name -> canonical class path for ``v = Cls(...)`` locals."""
        types: Dict[str, str] = {}
        for node in _function_bodies(info.node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                dotted = canonical(node.value.func,
                                   self.imports.get(info.module, {}))
                if dotted is None and isinstance(node.value.func, ast.Name):
                    dotted = node.value.func.id
                if dotted in self._class_methods:
                    types[node.targets[0].id] = dotted
                else:
                    # "Cls" defined in this module
                    local = f"{info.module}.{dotted}" if dotted else None
                    if local in self._class_methods:
                        types[node.targets[0].id] = local
        return types

    # -- typing ----------------------------------------------------------

    def is_async(self, qual: str) -> bool:
        info = self.functions.get(qual)
        return info is not None and isinstance(info.node,
                                               ast.AsyncFunctionDef)

    def _class_of(self, dotted: Optional[str], module: str) -> Optional[str]:
        """Canonical class path if ``dotted`` names a known class."""
        if dotted is None:
            return None
        if dotted in self._class_methods:
            return dotted
        imports = self.imports.get(module, {})
        head, _, rest = dotted.partition(".")
        resolved = imports.get(head, head)
        full = f"{resolved}.{rest}" if rest else resolved
        if full in self._class_methods:
            return full
        local = f"{module}.{dotted}"
        if local in self._class_methods:
            return local
        return None

    def _infer_self_attrs(self) -> None:
        """``self.attr = Cls(...)`` / ``attr: Cls`` in any method types the attr."""
        for info in self.functions.values():
            if info.cls is None:
                continue
            cls_path = f"{info.module}.{info.cls}"
            attrs = self.self_attr_types.setdefault(cls_path, {})
            for node in ast.walk(info.node):
                target = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    ann = self._class_of(_annotation_name(node.annotation),
                                         info.module)
                    if (ann is not None and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        attrs.setdefault(target.attr, ann)
                if (target is None or not isinstance(target, ast.Attribute)
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self"):
                    continue
                if isinstance(value, ast.Call):
                    typed = self._class_of(
                        canonical(value.func,
                                  self.imports.get(info.module, {})),
                        info.module)
                    if typed is None and isinstance(value.func, ast.Name):
                        typed = self._class_of(value.func.id, info.module)
                    if typed is not None:
                        attrs.setdefault(target.attr, typed)

    def _typed_locals(self, info: FunctionInfo) -> Dict[str, str]:
        """Local/parameter name -> canonical class path."""
        types = dict(self._local_instance_types(info))
        node = info.node
        arg_lists = [node.args.args, node.args.kwonlyargs]
        arg_lists.append(getattr(node.args, "posonlyargs", []))
        for args in arg_lists:
            for arg in args:
                typed = self._class_of(_annotation_name(arg.annotation),
                                       info.module)
                if typed is not None:
                    types.setdefault(arg.arg, typed)
        for child in ast.walk(node):
            if (isinstance(child, ast.AnnAssign)
                    and isinstance(child.target, ast.Name)):
                typed = self._class_of(_annotation_name(child.annotation),
                                       info.module)
                if typed is not None:
                    types.setdefault(child.target.id, typed)
        return types

    # -- call sites ------------------------------------------------------

    def _site_callees(self, func_expr: ast.AST, info: FunctionInfo,
                      locals_: Dict[str, str]) -> List[str]:
        imports = self.imports.get(info.module, {})
        if isinstance(func_expr, ast.Attribute):
            receiver = func_expr.value
            # self.method()
            if (isinstance(receiver, ast.Name) and receiver.id == "self"
                    and info.cls is not None):
                methods = self._class_methods.get(
                    f"{info.module}.{info.cls}", {})
                if func_expr.attr in methods:
                    return [methods[func_expr.attr]]
                # self.attr where attr is typed: constructor call shape
                attr_types = self.self_attr_types.get(
                    f"{info.module}.{info.cls}", {})
                if func_expr.attr in attr_types:
                    return list(self._resolve_target(
                        attr_types[func_expr.attr], info.module))
            # self.attr.method()
            if (isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                    and info.cls is not None):
                attr_types = self.self_attr_types.get(
                    f"{info.module}.{info.cls}", {})
                cls_path = attr_types.get(receiver.attr)
                if cls_path is not None:
                    methods = self._class_methods.get(cls_path, {})
                    if func_expr.attr in methods:
                        return [methods[func_expr.attr]]
            # typed_local.method()
            if isinstance(receiver, ast.Name) and receiver.id in locals_:
                methods = self._class_methods.get(locals_[receiver.id], {})
                if func_expr.attr in methods:
                    return [methods[func_expr.attr]]
        return list(self._resolve_target(canonical(func_expr, imports),
                                         info.module))

    def _resolve_sites(self) -> None:
        for qual, info in self.functions.items():
            imports = self.imports.get(info.module, {})
            locals_ = self._typed_locals(info)
            awaited_calls = {
                id(node.value) for node in ast.walk(info.node)
                if isinstance(node, ast.Await)
                and isinstance(node.value, ast.Call)
            }
            sites: List[CallSite] = []
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                func_expr = node.func
                if isinstance(func_expr, ast.Attribute):
                    attr: Optional[str] = func_expr.attr
                elif isinstance(func_expr, ast.Name):
                    attr = func_expr.id
                else:
                    attr = None
                callees = self._site_callees(func_expr, info, locals_)
                info.calls.update(callees)
                sites.append(CallSite(
                    node=node, lineno=node.lineno,
                    awaited=id(node) in awaited_calls,
                    dotted=canonical(func_expr, imports), attr=attr,
                    callees=tuple(sorted(callees))))
            sites.sort(key=lambda s: (s.lineno, s.node.col_offset))
            self.sites[qual] = sites

    # -- reachability ----------------------------------------------------

    def reachable(self, seeds: Iterable[str],
                  skip_module=None) -> Set[str]:
        """Qualnames reachable from ``seeds`` (BFS over resolved edges).

        ``skip_module(module) -> bool`` prunes whole modules from the
        traversal (DT301 prunes the harness: its orchestration
        timestamps are run metadata, outside payload and cache key).
        """
        work = [s for s in seeds if s in self.functions]
        seen: Set[str] = set()
        while work:
            qual = work.pop()
            if qual in seen:
                continue
            info = self.functions.get(qual)
            if info is None:
                continue
            if skip_module is not None and skip_module(info.module):
                continue
            seen.add(qual)
            work.extend(info.calls - seen)
        return seen
