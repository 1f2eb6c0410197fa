"""The static memory pass: address derivation, checks, and pair sets.

Every reachable load/store is assigned an *address descriptor* from the
abstract value of its base register:

* ``exact``  — the effective byte address is statically known (base
  traced to a ``la``/``li`` constant with a known offset);
* ``region`` — the access lands somewhere inside one data label's region
  (base traced to a label, offset loop-variant);
* ``unknown`` — the base is not derivable (e.g. a pointer loaded from
  memory); the access may touch anything.

Exact accesses are checked against the assembled data image (bounds and
alignment — the two faults the interpreter would raise at runtime) and
against their own label's region (crossing into a neighbouring label is
legal but almost always a mis-encoded kernel, so it warns).

The pair sets are the DDT's dependences, approximated statically at the
DDT's word granularity: two accesses *may alias* when their descriptors
can touch a common word.  Static RAR pairs are all ordered load pairs
(including self-pairs — a loop-resident load is its own RAR source) and
static RAW pairs all store→load pairs that may alias.  The approximation
is one-sided by construction: it over-counts (no path or intervening
-store reasoning) but should never miss a dynamically observable pair —
``repro.experiments.ext_static_distance`` checks exactly that.

:func:`may_alias` itself supports two granularities.  The default is the
*byte* intervals the descriptors carry — precise for subword accesses,
where adjacent ``lb``/``sb`` within one word do **not** overlap.  The DDT
however detects dependences at *word* granularity (Section 5.6.1), so
every DDT-mirroring consumer (the pair sets here, the synonym sets of
:mod:`repro.analysis.depgraph`) passes ``word_granular=True``; dropping
to byte granularity there would un-soundly miss dynamically observed
same-word pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import DataflowResult, is_const, is_ptr
from repro.analysis.report import (
    Diagnostic,
    E_MISALIGNED,
    E_OUT_OF_BOUNDS,
    W_REGION_CROSS,
)
from repro.isa.instructions import OpClass
from repro.isa.program import DATA_BASE, Program

#: Access width in bytes by mnemonic.
_SIZES = {"lw": 4, "lf": 4, "sw": 4, "sf": 4,
          "lh": 2, "lhu": 2, "sh": 2,
          "lb": 1, "lbu": 1, "sb": 1}


@dataclass(frozen=True)
class Region:
    """One labelled slice of the data image: ``[lo, hi)`` bytes."""

    label: str
    lo: int
    hi: int


@dataclass(frozen=True)
class AddrDescriptor:
    """Where one static memory instruction can reach.

    ``kind`` is ``exact`` / ``region`` / ``unknown``; ``lo``/``hi`` bound
    the touched *byte* interval (inclusive lo, exclusive hi) when known.
    """

    kind: str
    size: int
    lo: Optional[int] = None
    hi: Optional[int] = None
    label: Optional[str] = None

    def word_interval(self) -> Optional[Tuple[int, int]]:
        """Inclusive word-address interval, or None for ``unknown``."""
        if self.kind == "unknown":
            return None
        return (self.lo >> 2, (self.hi - 1) >> 2)

    def byte_interval(self) -> Optional[Tuple[int, int]]:
        """Inclusive byte-address interval, or None for ``unknown``."""
        if self.kind == "unknown":
            return None
        return (self.lo, self.hi - 1)

    def to_json_dict(self) -> dict:
        out: Dict[str, object] = {"kind": self.kind, "size": self.size}
        if self.kind != "unknown":
            out["lo"] = self.lo
            out["hi"] = self.hi
        if self.label is not None:
            out["label"] = self.label
        return out


def data_regions(program: Program) -> List[Region]:
    """The labelled regions of the data image, in address order."""
    if not program.data_labels:
        return []
    items = sorted(program.data_labels.items(), key=lambda kv: (kv[1], kv[0]))
    regions = []
    for i, (label, lo) in enumerate(items):
        hi = program.data_end
        for _, later in items[i + 1:]:
            if later > lo:
                hi = later
                break
        regions.append(Region(label, lo, max(hi, lo)))
    return regions


def may_alias(a: AddrDescriptor, b: AddrDescriptor, *,
              word_granular: bool = False) -> bool:
    """Can the two accesses overlap?

    By default the *byte* intervals are compared, so two subword accesses
    packed into one word (``sb 0(r1)`` vs ``lb 1(r1)``) do not alias.
    ``word_granular=True`` compares inclusive word intervals instead —
    the DDT's detection granularity, under which those accesses *do*
    share a dependence; anything modelling the DDT must use it.
    """
    if word_granular:
        ia, ib = a.word_interval(), b.word_interval()
    else:
        ia, ib = a.byte_interval(), b.byte_interval()
    if ia is None or ib is None:
        return True
    return ia[0] <= ib[1] and ib[0] <= ia[1]


@dataclass
class MemoryAnalysis:
    """Descriptors, diagnostics and the static pair sets of one program."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    descriptors: Dict[int, AddrDescriptor] = field(default_factory=dict)
    load_pcs: List[int] = field(default_factory=list)
    store_pcs: List[int] = field(default_factory=list)
    rar_pairs: List[Tuple[int, int]] = field(default_factory=list)
    raw_pairs: List[Tuple[int, int]] = field(default_factory=list)


def _describe(base: tuple, disp: int, size: int,
              regions_by_label: Dict[str, Region]) -> AddrDescriptor:
    if is_const(base):
        addr = base[1] + disp
        return AddrDescriptor("exact", size, addr, addr + size)
    if is_ptr(base):
        region = regions_by_label.get(base[1])
        if region is None:
            return AddrDescriptor("unknown", size)
        offset = base[2]
        if offset is not None:
            addr = region.lo + offset + disp
            return AddrDescriptor("exact", size, addr, addr + size,
                                  label=base[1])
        # An in-bounds pointer touches at most [lo+disp, hi+disp): the
        # last valid access starts ``size`` bytes before the region end.
        return AddrDescriptor("region", size, region.lo + disp,
                              region.hi + disp, label=base[1])
    return AddrDescriptor("unknown", size)


def analyze_memory(cfg: CFG, dataflow: DataflowResult) -> MemoryAnalysis:
    """Derive addresses, run the checks and build the pair sets."""
    result = MemoryAnalysis()
    program = cfg.program
    regions = data_regions(program)
    regions_by_label = {r.label: r for r in regions}
    data_lo, data_hi = DATA_BASE, max(program.data_end, DATA_BASE)

    reachable = cfg.reachable_indices()
    for i in sorted(dataflow.base_values):
        if i not in reachable:
            continue
        inst = program.instructions[i]
        pc = program.pc_of(i)
        size = _SIZES[inst.opcode]
        desc = _describe(dataflow.base_values[i], inst.imm or 0, size,
                         regions_by_label)
        result.descriptors[pc] = desc
        if inst.opclass == OpClass.LOAD:
            result.load_pcs.append(pc)
        else:
            result.store_pcs.append(pc)

        if desc.kind == "exact":
            if size > 1 and desc.lo % size:
                result.diagnostics.append(Diagnostic(
                    E_MISALIGNED,
                    f"{inst.opcode} effective address {desc.lo:#x} is not "
                    f"{size}-byte aligned (the interpreter would fault)",
                    index=i, pc=pc))
            if desc.label is not None:
                # Base traced to a data label: the address must stay in the
                # data image, and normally within its own label's region.
                if desc.lo < data_lo or desc.hi > data_hi:
                    result.diagnostics.append(Diagnostic(
                        E_OUT_OF_BOUNDS,
                        f"{inst.opcode} at {desc.lo:#x} is outside the data "
                        f"image [{data_lo:#x}, {data_hi:#x})",
                        index=i, pc=pc))
                else:
                    region = regions_by_label[desc.label]
                    if desc.lo < region.lo or desc.hi > region.hi:
                        result.diagnostics.append(Diagnostic(
                            W_REGION_CROSS,
                            f"{inst.opcode} at {desc.lo:#x} reaches outside "
                            f"its label {desc.label!r} region "
                            f"[{region.lo:#x}, {region.hi:#x})",
                            index=i, pc=pc))
            elif desc.lo < 0:
                result.diagnostics.append(Diagnostic(
                    E_OUT_OF_BOUNDS,
                    f"{inst.opcode} effective address {desc.lo:#x} is "
                    f"negative (the interpreter would fault)",
                    index=i, pc=pc))

    # Static pair sets at the DDT's word granularity (byte granularity
    # would miss dynamically observed same-word subword pairs).
    loads = [(pc, result.descriptors[pc]) for pc in result.load_pcs]
    stores = [(pc, result.descriptors[pc]) for pc in result.store_pcs]
    for src_pc, src_desc in loads:
        for sink_pc, sink_desc in loads:
            if may_alias(src_desc, sink_desc, word_granular=True):
                result.rar_pairs.append((src_pc, sink_pc))
    for src_pc, src_desc in stores:
        for sink_pc, sink_desc in loads:
            if may_alias(src_desc, sink_desc, word_granular=True):
                result.raw_pairs.append((src_pc, sink_pc))
    return result
