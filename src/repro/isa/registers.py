"""Register file naming for the mini ISA.

Thirty-two integer registers ``r0``-``r31`` occupy ids 0-31 (``r0`` is
hardwired to zero, as on MIPS) and thirty-two floating-point registers
``f0``-``f31`` occupy ids 32-63.  A single flat id space keeps dependence
tracking in the pipeline model trivial.

Conventions used by the workload kernels (not enforced by hardware):
``r29`` is the stack pointer, ``r31`` holds the return address written by
``jal``.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32
FP_REG_BASE = NUM_INT_REGS
NUM_REGS = NUM_INT_REGS + NUM_FP_REGS

ZERO_REG = 0
STACK_POINTER = 29
RETURN_ADDRESS = 31


def reg(index: int) -> int:
    """The flat register id of integer register ``r<index>``."""
    if not 0 <= index < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {index}")
    return index


def fp(index: int) -> int:
    """The flat register id of floating-point register ``f<index>``."""
    if not 0 <= index < NUM_FP_REGS:
        raise ValueError(f"fp register index out of range: {index}")
    return FP_REG_BASE + index


def register_name(regid: int) -> str:
    """Human-readable name of a flat register id."""
    if not 0 <= regid < NUM_REGS:
        raise ValueError(f"register id out of range: {regid}")
    if regid < FP_REG_BASE:
        return f"r{regid}"
    return f"f{regid - FP_REG_BASE}"


def parse_register(token: str) -> int:
    """Parse ``r12`` / ``f3`` into a flat register id."""
    token = token.strip().lower()
    if len(token) < 2 or token[0] not in ("r", "f") or not token[1:].isdigit():
        raise ValueError(f"not a register: {token!r}")
    index = int(token[1:])
    return reg(index) if token[0] == "r" else fp(index)
