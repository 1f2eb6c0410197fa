"""Source model: parsed files, pragma suppressions, findings, report.

A :class:`SourceFile` is one parsed module with its dotted name relative
to the analysis root and its ``# staticcheck: ignore[...]`` pragma map.
A :class:`Finding` is one rule hit anchored to a line; the
:class:`CheckReport` aggregates the whole run and serializes to the JSON
schema documented in docs/staticcheck.md.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.staticcheck.rules import RULES, Severity, resolve

#: version of the ``--json`` payload layout (bump on breaking changes)
REPORT_SCHEMA_VERSION = 2

#: ``# staticcheck: ignore`` (whole line) or ``ignore[DT101, set-iteration]``
_PRAGMA = re.compile(
    r"#\s*staticcheck:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")

#: the pragma token that suppresses every rule on the line
ALL_RULES = "*"


class PragmaError(ValueError):
    """A pragma names a rule the registry does not know."""


def parse_pragmas(text: str, path: str = "<source>") -> Dict[int, Set[str]]:
    """Line number -> suppressed rule IDs (``{"*"}`` = all rules).

    Pragmas are real ``#`` comments (docstrings that merely *mention*
    the syntax do not count).  A trailing pragma suppresses findings on
    its own line; a pragma inside a comment-only block also covers the
    first code line after the block, so a multi-line justification can
    sit above the code it excuses.  When that first code line is a
    decorator, :func:`attach_decorator_pragmas` extends the coverage to
    the decorated ``def``/``class`` line itself — findings anchor there,
    not on the ``@`` line.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError):
        return suppressions      # the ast parse will report the real error
    comment_only = {
        token.start[0] for token in tokens
        if token.type == tokenize.COMMENT
        and token.line[: token.start[1]].strip() == ""
    }
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA.search(token.string)
        if not match:
            continue
        lineno = token.start[0]
        spec = match.group("rules")
        if spec is None:
            rules = {ALL_RULES}
        else:
            try:
                rules = {resolve(t) for t in spec.split(",") if t.strip()}
            except ValueError as exc:
                raise PragmaError(f"{path}:{lineno}: {exc}") from None
            if not rules:
                rules = {ALL_RULES}
        suppressions.setdefault(lineno, set()).update(rules)
        if lineno in comment_only:
            # cover the rest of the comment block and the code line below
            covered = lineno + 1
            while covered in comment_only:
                suppressions.setdefault(covered, set()).update(rules)
                covered += 1
            suppressions.setdefault(covered, set()).update(rules)
    return suppressions


def attach_decorator_pragmas(tree: ast.Module,
                             suppressions: Dict[int, Set[str]]) -> None:
    """Extend pragmas on decorator lines to the decorated definition.

    A comment-block pragma above ``@dataclass`` lands on the ``@`` line,
    but findings for the class or (async) function anchor at the
    ``class``/``def`` line below the whole decorator stack.  Walking the
    AST instead of counting brackets keeps multi-line decorator calls
    and stacked decorators correct for free.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        rules: Set[str] = set()
        for decorator in node.decorator_list:
            rules.update(suppressions.get(decorator.lineno, set()))
        if rules:
            suppressions.setdefault(node.lineno, set()).update(rules)


@dataclass
class SourceFile:
    """One parsed module under analysis."""

    path: Path                    # absolute
    rel: str                      # posix path relative to the analysis root
    module: str                   # dotted name relative to the root
    text: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(root).as_posix()
        module = rel[:-3].replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(text, filename=str(path))
        suppressions = parse_pragmas(text, rel)
        attach_decorator_pragmas(tree, suppressions)
        return cls(path=path, rel=rel, module=module, text=text,
                   tree=tree, suppressions=suppressions)

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return bool(rules) and (rule in rules or ALL_RULES in rules)


@dataclass(frozen=True)
class Finding:
    """One rule hit, anchored to a source line."""

    rule: str
    path: str          # posix, relative to the analysis root
    line: int
    col: int
    message: str

    @property
    def severity(self) -> Severity:
        return RULES[self.rule].severity

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity.value:<7} {self.rule} "
                f"[{RULES[self.rule].name}] {self.message}")

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": RULES[self.rule].name,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class CheckReport:
    """Everything one staticcheck run found."""

    root: str
    files: int = 0
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0          # pragma-suppressed finding count

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def ok(self, strict: bool = False) -> bool:
        if self.errors:
            return False
        return not (strict and self.warnings)

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "root": self.root,
            "files": self.files,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "suppressed": self.suppressed,
            "findings": [f.to_json_dict() for f in self.findings],
        }

    def render(self, verbose: bool = False) -> str:
        lines = [f.render() for f in self.findings]
        status = ("clean" if not self.findings else
                  f"{len(self.errors)} error(s), "
                  f"{len(self.warnings)} warning(s)")
        suffix = (f" ({self.suppressed} pragma-suppressed)"
                  if self.suppressed else "")
        lines.append(f"staticcheck: {self.files} file(s), {status}{suffix}")
        if verbose and not self.findings:
            lines.insert(0, f"root: {self.root}")
        return "\n".join(lines)


def call_name(node: ast.AST) -> Optional[str]:
    """A dotted name for a call target, when statically evident.

    ``Name`` gives ``"f"``; nested ``Attribute`` chains over names give
    ``"a.b.c"``; anything computed gives ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_float_constant(node: ast.AST) -> bool:
    """A float literal, including a negated one (``-0.5``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)
