"""Functional execution of assembled programs.

The interpreter executes a :class:`~repro.isa.program.Program` and yields a
:class:`~repro.trace.records.DynInst` per committed instruction.  It is a
generator so analyses can stream arbitrarily long traces without
materializing them.

Semantics notes:

* ``r0`` reads as zero; writes to it are discarded (as on MIPS).
* Integer multiplication wraps to signed 32 bits; integer and floating
  division by zero produce 0 (synthetic kernels never rely on trapping).
* Memory is word addressed; word and halfword accesses must be aligned.
  Uninitialized memory reads as integer 0.  Byte/halfword accesses pack
  into their containing word.
* ``jal`` writes the return address (the PC of the following instruction)
  to ``r31``; ``jr`` jumps to a byte-address PC held in a register.

For speed the instruction list is pre-decoded once per :meth:`run` into
flat tuples with small-integer operation codes, so the hot loop performs
no attribute lookups or string comparisons.  Semantics are pinned by the
test suite and by per-workload trace fingerprints
(``tests/test_workload_goldens.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.isa.instructions import OpClass  # noqa: F401 (re-export convenience)
from repro.isa.program import WORD_SIZE, Program
from repro.isa.registers import NUM_REGS, ZERO_REG

if False:  # pragma: no cover - type-checking only (avoids a package cycle)
    from repro.trace.records import DynInst

_INT32_MASK = 0xFFFFFFFF
_INT32_SIGN = 0x80000000


def _wrap32(value: int) -> int:
    value &= _INT32_MASK
    return value - (1 << 32) if value & _INT32_SIGN else value


class ExecutionError(RuntimeError):
    """Raised on runtime faults: bad PC, misaligned access, negative address."""


# Dense operation codes for the pre-decoded dispatch.  Grouped by class so
# the hot loop can branch on ranges: IALU <= 17 < loads <= 22 < stores
# <= 25 < branches <= 33 < control <= 38 < mul/div <= 41 < fp.
_OP_CODES: Dict[str, int] = {
    "add": 0, "sub": 1, "and": 2, "or": 3, "xor": 4, "slt": 5, "seq": 6,
    "sne": 7, "addi": 8, "andi": 9, "ori": 10, "xori": 11, "slti": 12,
    "sll": 13, "srl": 14, "sra": 15, "mov": 16, "li": 17, "la": 17,
    "lw": 18, "lf": 18, "lb": 19, "lbu": 20, "lh": 21, "lhu": 22,
    "sw": 23, "sf": 23, "sb": 24, "sh": 25,
    "beq": 26, "bne": 27, "blt": 28, "bge": 29, "blez": 30, "bgtz": 31,
    "bltz": 32, "bgez": 33,
    "j": 34, "jal": 35, "jr": 36, "halt": 37, "nop": 38,
    "mul": 39, "div": 40, "rem": 41,
    "fadd.s": 42, "fadd.d": 42, "fsub.s": 43, "fsub.d": 43,
    "fmul.s": 44, "fmul.d": 44, "fdiv.s": 45, "fdiv.d": 45,
    "fclt": 46, "fcle": 47, "fceq": 48, "fmov": 49, "fneg": 50,
    "fabs": 51, "itof": 52, "ftoi": 53, "fli": 54,
}

_LOAD_SIZE = {18: 4, 19: 1, 20: 1, 21: 2, 22: 2}
_STORE_SIZE = {23: 4, 24: 1, 25: 2}


def _decode(program: Program) -> List[Tuple]:
    """Pre-decode instructions into flat dispatch tuples.

    Tuple layout: ``(code, opclass, rd, s0, s1, srcs, imm, fimm, target, pc)``
    where ``s0``/``s1`` are the first/second source register ids (or -1).
    """
    decoded = []
    base = program.text_base
    for index, inst in enumerate(program.instructions):
        code = _OP_CODES[inst.opcode]
        srcs = inst.srcs
        s0 = srcs[0] if len(srcs) > 0 else -1
        s1 = srcs[1] if len(srcs) > 1 else -1
        decoded.append((code, inst.opclass, inst.rd, s0, s1, srcs,
                        inst.imm, inst.fimm, inst.target,
                        base + WORD_SIZE * index))
    return decoded


class Interpreter:
    """Executes a program, yielding the committed dynamic instruction stream."""

    def __init__(self, program: Program, max_instructions: Optional[int] = None) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.registers: List[object] = [0] * NUM_REGS
        self.memory: Dict[int, object] = {
            addr >> 2: value for addr, value in program.data.items()
        }
        self.executed = 0
        self.halted = False

    def load_word(self, byte_addr: int) -> object:
        """Read memory at a byte address (must be word aligned)."""
        self._check_addr(byte_addr)
        return self.memory.get(byte_addr >> 2, 0)

    def _check_addr(self, byte_addr: int, size: int = WORD_SIZE) -> None:
        if byte_addr < 0:
            raise ExecutionError(f"negative address {byte_addr:#x}")
        if byte_addr % size:
            raise ExecutionError(
                f"misaligned {size}-byte access at {byte_addr:#x}")

    def _load_subword(self, addr: int, size: int, signed: bool) -> int:
        """Read a byte or halfword out of the containing word."""
        self._check_addr(addr, size)
        word = self.memory.get(addr >> 2, 0)
        if not isinstance(word, int):
            raise ExecutionError(
                f"sub-word read of non-integer data at {addr:#x}")
        shift = (addr & 3) * 8
        mask = (1 << (size * 8)) - 1
        value = (word >> shift) & mask
        if signed and value & (1 << (size * 8 - 1)):
            value -= 1 << (size * 8)
        return value

    def _store_subword(self, addr: int, size: int, value: int) -> int:
        """Merge a byte or halfword into the containing word; returns the
        stored (truncated) value."""
        self._check_addr(addr, size)
        word_index = addr >> 2
        word = self.memory.get(word_index, 0)
        if not isinstance(word, int):
            raise ExecutionError(
                f"sub-word write over non-integer data at {addr:#x}")
        shift = (addr & 3) * 8
        mask = (1 << (size * 8)) - 1
        truncated = value & mask
        self.memory[word_index] = (word & ~(mask << shift)) | (truncated << shift)
        return truncated

    def run(self) -> "Iterator[DynInst]":
        """Execute until ``halt``, falling off the program, or the cap."""
        # Imported here rather than at module scope: repro.trace.records
        # depends on repro.isa.instructions, so a top-level import would
        # close an import cycle through the two packages' __init__ modules.
        from repro.trace.records import DynInst

        program = self.program
        decoded = _decode(program)
        num_instructions = len(decoded)
        regs = self.registers
        memory = self.memory
        memory_get = memory.get
        text_base = program.text_base
        limit = self.max_instructions
        index = 0
        count = self.executed

        while 0 <= index < num_instructions:
            if limit is not None and count >= limit:
                break
            (code, cls, rd, s0, s1, srcs, imm, fimm, target,
             pc) = decoded[index]
            next_index = index + 1

            if code <= 17:  # IALU
                if code == 0:
                    result = regs[s0] + regs[s1]
                elif code == 8:
                    result = regs[s0] + imm
                elif code == 17:
                    result = imm
                elif code == 13:
                    result = _wrap32(regs[s0] << imm)
                elif code == 1:
                    result = regs[s0] - regs[s1]
                elif code == 2:
                    result = regs[s0] & regs[s1]
                elif code == 3:
                    result = regs[s0] | regs[s1]
                elif code == 4:
                    result = regs[s0] ^ regs[s1]
                elif code == 5:
                    result = 1 if regs[s0] < regs[s1] else 0
                elif code == 6:
                    result = 1 if regs[s0] == regs[s1] else 0
                elif code == 7:
                    result = 1 if regs[s0] != regs[s1] else 0
                elif code == 9:
                    result = regs[s0] & imm
                elif code == 10:
                    result = regs[s0] | imm
                elif code == 11:
                    result = regs[s0] ^ imm
                elif code == 12:
                    result = 1 if regs[s0] < imm else 0
                elif code == 14:
                    result = (regs[s0] & _INT32_MASK) >> imm
                elif code == 15:
                    result = regs[s0] >> imm
                else:  # 16: mov
                    result = regs[s0]
                if rd != ZERO_REG:
                    regs[rd] = result
                record = DynInst(count, pc, cls, rd=rd, srcs=srcs)

            elif code <= 22:  # loads
                addr = regs[s0] + imm
                if code == 18:
                    if addr < 0 or addr & 3:
                        self._check_addr(addr)
                    value = memory_get(addr >> 2, 0)
                    size = 4
                elif code <= 20:
                    value = self._load_subword(addr, 1, signed=(code == 19))
                    size = 1
                else:
                    value = self._load_subword(addr, 2, signed=(code == 21))
                    size = 2
                if rd != ZERO_REG:
                    regs[rd] = value
                record = DynInst(count, pc, cls, rd=rd, srcs=srcs,
                                 addr=addr, value=value, size=size)

            elif code <= 25:  # stores
                addr = regs[s0] + imm
                value = regs[s1]
                if code == 23:
                    if addr < 0 or addr & 3:
                        self._check_addr(addr)
                    memory[addr >> 2] = value
                    size = 4
                elif code == 24:
                    value = self._store_subword(addr, 1, value)
                    size = 1
                else:
                    value = self._store_subword(addr, 2, value)
                    size = 2
                record = DynInst(count, pc, cls, srcs=srcs, addr=addr,
                                 value=value, size=size)

            elif code <= 33:  # conditional branches
                a = regs[s0]
                if code == 26:
                    taken = a == regs[s1]
                elif code == 27:
                    taken = a != regs[s1]
                elif code == 28:
                    taken = a < regs[s1]
                elif code == 29:
                    taken = a >= regs[s1]
                elif code == 30:
                    taken = a <= 0
                elif code == 31:
                    taken = a > 0
                elif code == 32:
                    taken = a < 0
                else:
                    taken = a >= 0
                target_pc = text_base + WORD_SIZE * target
                if taken:
                    next_index = target
                record = DynInst(count, pc, cls, srcs=srcs, taken=taken,
                                 target_pc=target_pc)

            elif code == 34:  # j
                next_index = target
                record = DynInst(count, pc, cls, taken=True,
                                 target_pc=text_base + WORD_SIZE * target)

            elif code == 35:  # jal
                regs[rd] = text_base + WORD_SIZE * (index + 1)
                next_index = target
                record = DynInst(count, pc, cls, rd=rd, taken=True,
                                 target_pc=text_base + WORD_SIZE * target)

            elif code == 36:  # jr
                target_pc = regs[s0]
                next_index = program.index_of(target_pc)
                record = DynInst(count, pc, cls, srcs=srcs, taken=True,
                                 target_pc=target_pc)

            elif code == 37:  # halt
                self.halted = True
                break

            elif code == 38:  # nop
                record = DynInst(count, pc, cls)

            elif code == 39:  # mul
                result = _wrap32(regs[s0] * regs[s1])
                if rd != ZERO_REG:
                    regs[rd] = result
                record = DynInst(count, pc, cls, rd=rd, srcs=srcs)

            elif code <= 41:  # div / rem
                divisor = regs[s1]
                if code == 40:
                    result = int(regs[s0] / divisor) if divisor else 0
                else:
                    a = regs[s0]
                    result = a - int(a / divisor) * divisor if divisor else 0
                if rd != ZERO_REG:
                    regs[rd] = result
                record = DynInst(count, pc, cls, rd=rd, srcs=srcs)

            else:  # floating point
                if code == 42:
                    result = regs[s0] + regs[s1]
                elif code == 43:
                    result = regs[s0] - regs[s1]
                elif code == 44:
                    result = regs[s0] * regs[s1]
                elif code == 45:
                    divisor = regs[s1]
                    result = regs[s0] / divisor if divisor else 0.0
                elif code == 46:
                    result = 1 if regs[s0] < regs[s1] else 0
                elif code == 47:
                    result = 1 if regs[s0] <= regs[s1] else 0
                elif code == 48:
                    result = 1 if regs[s0] == regs[s1] else 0
                elif code == 49:
                    result = regs[s0]
                elif code == 50:
                    result = -regs[s0]
                elif code == 51:
                    result = abs(regs[s0])
                elif code == 52:
                    result = float(regs[s0])
                elif code == 53:
                    result = int(regs[s0])
                else:  # 54: fli
                    result = fimm
                if rd != ZERO_REG:
                    regs[rd] = result
                record = DynInst(count, pc, cls, rd=rd, srcs=srcs)

            index = next_index
            count += 1
            self.executed = count
            yield record

        self.executed = count
