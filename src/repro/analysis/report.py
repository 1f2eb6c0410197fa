"""Diagnostics and the per-program analysis report.

Every pass emits :class:`Diagnostic` records with a stable machine code
(``E_*`` errors, ``W_*`` warnings, ``I_*`` informational notes) so the
suite lint gate and the CLI can filter by severity without string
matching.  :class:`AnalysisReport` aggregates one program's diagnostics
together with the static memory-dependence approximation and serializes
to the JSON schema documented in docs/analysis.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


#: Version of the per-program report JSON layout (and of the ``--json``
#: payload wrapping it) — bump on breaking changes.  v2 added the
#: per-program ``schema_version`` echo and the opt-in ``distances``
#: section (depgraph/distance passes).
REPORT_SCHEMA_VERSION = 2


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: Stable diagnostic codes (documented in docs/analysis.md).
E_EMPTY_PROGRAM = "E_EMPTY_PROGRAM"
E_BAD_TARGET = "E_BAD_TARGET"
E_NO_HALT = "E_NO_HALT"
E_OUT_OF_BOUNDS = "E_OUT_OF_BOUNDS"
E_MISALIGNED = "E_MISALIGNED"
E_NEVER_WRITTEN = "E_NEVER_WRITTEN"
W_DEAD_CODE = "W_DEAD_CODE"
W_FALL_OFF_END = "W_FALL_OFF_END"
W_REGION_CROSS = "W_REGION_CROSS"
W_RETURN_WITHOUT_CALL = "W_RETURN_WITHOUT_CALL"
W_SF_UNDERSIZED = "W_SF_UNDERSIZED"
W_DPNT_CONFLICT = "W_DPNT_CONFLICT"
I_MAYBE_UNINIT = "I_MAYBE_UNINIT"

_SEVERITY_OF_PREFIX = {
    "E": Severity.ERROR,
    "W": Severity.WARNING,
    "I": Severity.INFO,
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static pass, anchored to an instruction."""

    code: str
    message: str
    index: Optional[int] = None   # instruction index, None = whole program
    pc: Optional[int] = None

    @property
    def severity(self) -> Severity:
        return _SEVERITY_OF_PREFIX[self.code[0]]

    def render(self) -> str:
        where = f"@{self.pc:#x}" if self.pc is not None else "<program>"
        return f"{self.severity.value:<7} {self.code:<22} {where:>10}  {self.message}"


@dataclass
class AnalysisReport:
    """Everything the analyzer learned about one program.

    ``rar_pairs`` / ``raw_pairs`` are the static may-alias dependence pair
    sets over instruction addresses: ``(source_pc, sink_pc)`` with the
    source a load (RAR) or store (RAW) and the sink a load.  They
    over-approximate the paper's Section 3 dynamic dependence sets — every
    observable dynamic (source, sink) pair is intended to be present,
    while pairs that never materialize at runtime may also appear.
    """

    name: str
    instructions: int = 0
    blocks: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)
    loads: int = 0
    stores: int = 0
    rar_pairs: List[Tuple[int, int]] = field(default_factory=list)
    raw_pairs: List[Tuple[int, int]] = field(default_factory=list)
    addresses: Dict[int, dict] = field(default_factory=dict)  # pc -> descriptor
    #: Opt-in distance/synonym section — a
    #: :class:`repro.analysis.distance.DistanceReport` when
    #: ``analyze_program(..., distances=True)`` ran, else ``None``.
    distances: Optional[object] = None

    # -- severity views ---------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def ok(self, strict: bool = False) -> bool:
        """True when the program is clean (under ``strict``: no warnings)."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """The stable JSON schema (see docs/analysis.md)."""
        out = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "name": self.name,
            "instructions": self.instructions,
            "blocks": self.blocks,
            "loads": self.loads,
            "stores": self.stores,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity.value,
                    "index": d.index,
                    "pc": d.pc,
                    "message": d.message,
                }
                for d in self.diagnostics
            ],
            "rar_pairs": [list(p) for p in self.rar_pairs],
            "raw_pairs": [list(p) for p in self.raw_pairs],
            "addresses": {
                f"{pc:#x}": desc for pc, desc in sorted(self.addresses.items())
            },
        }
        if self.distances is not None:
            out["distances"] = self.distances.to_json_dict()
        return out

    def render(self, verbose: bool = False) -> str:
        """A human-readable summary (the CLI's default output)."""
        status = "clean" if self.ok(strict=True) else (
            "ERRORS" if self.errors else "warnings")
        lines = [
            f"{self.name}: {status} — {self.instructions} instructions, "
            f"{self.blocks} blocks, {self.loads} loads / {self.stores} stores, "
            f"{len(self.rar_pairs)} static RAR / {len(self.raw_pairs)} static "
            f"RAW pairs"
        ]
        if self.distances is not None:
            lines.append("  " + self.distances.render_summary())
        shown = self.diagnostics if verbose else [
            d for d in self.diagnostics if d.severity is not Severity.INFO]
        lines.extend("  " + d.render() for d in shown)
        return "\n".join(lines)
