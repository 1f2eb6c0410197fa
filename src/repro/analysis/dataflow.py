"""Dataflow passes over the CFG: register values and definite assignment.

Two forward fixpoint analyses share the worklist here:

* **Abstract register values** (may-analysis).  Each register holds one
  of ``Const(k)`` (exact integer), ``Ptr(label, offset)`` (points
  ``offset`` bytes into the data region of ``label``; ``offset=None``
  when loop-variant) or ``TOP`` (unknown).  Constant arithmetic mirrors
  the interpreter's semantics exactly (wrapping shifts/multiplies,
  truncating division), so a derivable effective address is the address
  the interpreter will compute.  Loaded values are ``TOP`` — memory
  contents are out of scope for the static pass.

* **Definite assignment** (must-analysis).  A register read on a path
  where no write dominates it is flagged: as an error when the register
  is written *nowhere* in the program (the read can only ever observe the
  interpreter's implicit zero — almost certainly a mis-encoded kernel),
  or as an informational note when only *some* path misses the write
  (loop-carried first-iteration reads are routinely fine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.report import (
    Diagnostic,
    E_NEVER_WRITTEN,
    I_MAYBE_UNINIT,
)
from repro.isa.instructions import Instruction, OpClass
from repro.isa.registers import NUM_REGS, ZERO_REG, register_name

# -- the abstract value domain ------------------------------------------

TOP = ("top",)


def const(value: int) -> tuple:
    return ("const", value)


def ptr(label: str, offset: Optional[int]) -> tuple:
    return ("ptr", label, offset)


def is_const(v: tuple) -> bool:
    return v[0] == "const"


def is_ptr(v: tuple) -> bool:
    return v[0] == "ptr"


def join(a: tuple, b: tuple) -> tuple:
    """Least upper bound of two abstract values."""
    if a == b:
        return a
    if is_ptr(a) and is_ptr(b) and a[1] == b[1]:
        return ptr(a[1], None)
    return TOP


_INT32_MASK = 0xFFFFFFFF


def _wrap32(value: int) -> int:
    value &= _INT32_MASK
    return value - (1 << 32) if value & 0x80000000 else value


def _fold(opcode: str, a: int, b: int) -> int:
    """Constant-fold one binary integer op with interpreter semantics."""
    if opcode == "add" or opcode == "addi":
        return a + b
    if opcode == "sub":
        return a - b
    if opcode == "and" or opcode == "andi":
        return a & b
    if opcode == "or" or opcode == "ori":
        return a | b
    if opcode == "xor" or opcode == "xori":
        return a ^ b
    if opcode == "slt" or opcode == "slti":
        return 1 if a < b else 0
    if opcode == "seq":
        return 1 if a == b else 0
    if opcode == "sne":
        return 1 if a != b else 0
    if opcode == "sll":
        return _wrap32(a << b)
    if opcode == "srl":
        return (a & _INT32_MASK) >> b
    if opcode == "sra":
        return a >> b
    if opcode == "mul":
        return _wrap32(a * b)
    if opcode == "div":
        return int(a / b) if b else 0
    if opcode == "rem":
        return a - int(a / b) * b if b else 0
    raise KeyError(opcode)


_IMM_OPS = frozenset(("addi", "andi", "ori", "xori", "slti", "sll", "srl",
                      "sra"))
_REG_OPS = frozenset(("add", "sub", "and", "or", "xor", "slt", "seq", "sne",
                      "mul", "div", "rem"))


def transfer(inst: Instruction, state: List[tuple]) -> None:
    """Apply one instruction to the abstract register state, in place."""
    rd = inst.rd
    if rd is None or rd == ZERO_REG:
        return
    opcode = inst.opcode
    result = TOP
    if opcode == "li":
        result = const(inst.imm)
    elif opcode == "la":
        result = ptr(inst.data_label, 0)
    elif opcode == "mov":
        result = state[inst.srcs[0]]
    elif opcode in _IMM_OPS:
        src = state[inst.srcs[0]]
        if is_const(src):
            result = const(_fold(opcode, src[1], inst.imm))
        elif is_ptr(src) and opcode == "addi":
            off = src[2]
            result = ptr(src[1], off + inst.imm if off is not None else None)
    elif opcode in _REG_OPS:
        a, b = state[inst.srcs[0]], state[inst.srcs[1]]
        if is_const(a) and is_const(b):
            result = const(_fold(opcode, a[1], b[1]))
        elif opcode == "add" and is_ptr(a) and is_const(b):
            off = a[2]
            result = ptr(a[1], off + b[1] if off is not None else None)
        elif opcode == "add" and is_const(a) and is_ptr(b):
            off = b[2]
            result = ptr(b[1], off + a[1] if off is not None else None)
        elif opcode == "sub" and is_ptr(a) and is_const(b):
            off = a[2]
            result = ptr(a[1], off - b[1] if off is not None else None)
        elif (opcode == "sub" and is_ptr(a) and is_ptr(b) and a[1] == b[1]
              and a[2] is not None and b[2] is not None):
            result = const(a[2] - b[2])
        elif opcode == "add" and is_ptr(a) != is_ptr(b):
            # Pointer plus a computed (loop-variant) index: still a pointer
            # into the same region, at an unknown offset.  This assumes the
            # index keeps the access in bounds — the assumption the
            # ext_static_distance soundness gate checks empirically.
            result = ptr(a[1] if is_ptr(a) else b[1], None)
        elif opcode == "sub" and is_ptr(a):
            result = ptr(a[1], None)
    # Everything else (loads, fp ops, jal's return address) is TOP.
    state[rd] = result


@dataclass
class DataflowResult:
    """Outcome of the combined fixpoint over one CFG."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: memory-op instruction index -> abstract value of its base register
    base_values: Dict[int, tuple] = field(default_factory=dict)
    #: instruction index -> registers read there without a dominating write
    maybe_uninit: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def _entry_state() -> List[tuple]:
    state: List[tuple] = [TOP] * NUM_REGS
    state[ZERO_REG] = const(0)
    return state


def analyze_dataflow(cfg: CFG) -> DataflowResult:
    """Run both fixpoints and collect per-memory-op base values."""
    result = DataflowResult()
    program = cfg.program
    instructions = program.instructions
    if not instructions or not cfg.blocks:
        return result

    written_somewhere: Set[int] = {ZERO_REG}
    for inst in instructions:
        if inst.rd is not None:
            written_somewhere.add(inst.rd)

    # Forward fixpoint; both analyses iterate to convergence together.
    values_in: Dict[int, List[tuple]] = {0: _entry_state()}
    defined_in: Dict[int, Set[int]] = {0: {ZERO_REG}}
    work = [0]
    in_work = {0}
    while work:
        bid = work.pop(0)
        in_work.discard(bid)
        block = cfg.blocks[bid]
        state = list(values_in[bid])
        defined = set(defined_in[bid])
        for i in block.indices():
            inst = instructions[i]
            transfer(inst, state)
            if inst.rd is not None:
                defined.add(inst.rd)
        for succ in block.successors:
            changed = False
            if succ not in values_in:
                values_in[succ] = list(state)
                defined_in[succ] = set(defined)
                changed = True
            else:
                succ_values = values_in[succ]
                for r in range(NUM_REGS):
                    merged = join(succ_values[r], state[r])
                    if merged != succ_values[r]:
                        succ_values[r] = merged
                        changed = True
                succ_defined = defined_in[succ]
                narrowed = succ_defined & defined
                if narrowed != succ_defined:
                    defined_in[succ] = narrowed
                    changed = True
            if changed and succ not in in_work:
                work.append(succ)
                in_work.add(succ)

    # Final walk: per-instruction queries against the converged states.
    never_written_reported: Set[int] = set()
    for bid in sorted(cfg.reachable):
        if bid not in values_in:      # reachable only through dead edges
            continue
        block = cfg.blocks[bid]
        state = list(values_in[bid])
        defined = set(defined_in[bid])
        for i in block.indices():
            inst = instructions[i]
            unset = tuple(r for r in inst.srcs if r not in defined)
            if unset:
                result.maybe_uninit[i] = unset
                for r in unset:
                    if r in written_somewhere:
                        result.diagnostics.append(Diagnostic(
                            I_MAYBE_UNINIT,
                            f"{register_name(r)} may be read before its "
                            f"first write (loop-carried or branch-dependent "
                            f"initialization)",
                            index=i, pc=program.pc_of(i)))
                    elif r not in never_written_reported:
                        never_written_reported.add(r)
                        result.diagnostics.append(Diagnostic(
                            E_NEVER_WRITTEN,
                            f"{register_name(r)} is read but never written "
                            f"anywhere in the program",
                            index=i, pc=program.pc_of(i)))
            if inst.opclass in (OpClass.LOAD, OpClass.STORE):
                result.base_values[i] = state[inst.srcs[0]]
            transfer(inst, state)
            if inst.rd is not None:
                defined.add(inst.rd)
    return result
