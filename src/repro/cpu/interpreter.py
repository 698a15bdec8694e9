"""Fetch/decode/execute core.

The interpreter runs guest machine code against a :class:`AddressSpace`,
so every load, store, push, pop and instruction fetch is translated by
the simulated MMU — copy-on-write faults happen exactly where real guest
code would take them.

Execution proceeds until a *CPU exit*: a ``syscall`` or ``hlt``
instruction, an unresolvable fault, or the step budget.  The VMM layer
(:mod:`repro.vmm`) wraps these in VM exits for the libOS.

Instructions are not dispatched one at a time.  :meth:`Interpreter.run`
runs basic blocks that :mod:`repro.cpu.translate` compiled once into
Python functions, and steps through one-instruction blocks only for
:meth:`Interpreter.step`, for code it has not executed before and for
the tail of a step budget (a block runs only when it fits).  The decode
and block caches are a :class:`~repro.cpu.translate.CodeCache` that
belongs to the program being run.  It stays valid across snapshot
restore because .text is mapped read-execute: guest code physically
cannot modify itself without taking a protection fault.

Exits are exact at instruction granularity: a fault inside a block
reports the faulting instruction's rip and counts it as a step, a decode
or fetch fault counts no step, and every MMU access happens in the same
order as one instruction at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.cpu import isa
from repro.cpu.registers import RegisterFile
from repro.cpu.translate import BlockFault, CodeCache, DivideError
from repro.mem.addrspace import AddressSpace
from repro.mem.faults import PageFaultError

__all__ = [
    "CpuExit",
    "DivideError",
    "ExitReason",
    "Interpreter",
    "InvalidOpcodeError",
]


class InvalidOpcodeError(Exception):
    """Guest executed an undefined opcode byte (#UD)."""

    def __init__(self, rip: int, opcode: int):
        self.rip = rip
        self.opcode = opcode
        super().__init__(f"invalid opcode {opcode:#04x} at {rip:#x}")


class ExitReason(enum.Enum):
    """Why the CPU stopped executing."""

    SYSCALL = "syscall"
    HLT = "hlt"
    FAULT = "fault"
    STEP_LIMIT = "step_limit"


@dataclass
class CpuExit:
    """One CPU exit event."""

    reason: ExitReason
    steps: int
    fault: Optional[Exception] = None


class Interpreter:
    """Executes decoded instructions over an address space.

    Parameters
    ----------
    space:
        The guest address space (swappable via :meth:`attach_space` when
        the scheduler restores a snapshot).
    regs:
        The mutable register file (default: fresh zeroed file).
    code:
        The decode and block caches of the program being run (default: a
        fresh cache).  Engines pass one per program, shared by every vCPU
        and snapshot restore that runs it.
    """

    def __init__(
        self,
        space: AddressSpace,
        regs: Optional[RegisterFile] = None,
        code: Optional[CodeCache] = None,
    ):
        self.space = space
        self.regs = regs if regs is not None else RegisterFile()
        self.code = code if code is not None else CodeCache()
        #: Total instructions executed over this interpreter's lifetime.
        self.instructions_executed = 0

    def attach_space(self, space: AddressSpace,
                     code: Optional[CodeCache] = None) -> None:
        """Point the CPU at a different address space (snapshot restore),
        and at *code* when given (a different program)."""
        self.space = space
        if code is not None:
            self.code = code

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def _decode(self, rip: int) -> tuple:
        space = self.space
        opcode = space.fetch(rip, 1)[0]
        spec = isa.OPCODES.get(opcode)
        if spec is None:
            raise InvalidOpcodeError(rip, opcode)
        length = isa.insn_length(opcode)
        raw = space.fetch(rip + 1, length - 1) if length > 1 else b""
        next_rip = rip + length
        pos = 0
        fields: list[int] = [opcode]
        for kind in spec.layout:
            if kind in ("r", "c"):
                if kind == "r" and raw[pos] >= 16:
                    # A register operand outside r0..r15 is an invalid
                    # encoding, not a host error.
                    raise InvalidOpcodeError(rip, opcode)
                fields.append(raw[pos])
                pos += 1
            elif kind == "i":
                fields.append(int.from_bytes(raw[pos : pos + 8], "little"))
                pos += 8
            elif kind == "s" or kind == "d":
                fields.append(
                    int.from_bytes(raw[pos : pos + 4], "little", signed=True)
                )
                pos += 4
            else:  # "t": branch target, pre-resolved to absolute
                rel = int.from_bytes(raw[pos : pos + 4], "little", signed=True)
                fields.append(next_rip + rel)
                pos += 4
        fields.append(next_rip)
        return tuple(fields)

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------

    def step(self) -> CpuExit:
        """Execute exactly one instruction (a one-instruction block)."""
        return self.run(max_steps=1)

    def run(self, max_steps: Optional[int] = None) -> CpuExit:
        """Run until syscall/hlt/fault or *max_steps* instructions."""
        regs = self.regs
        g = regs.gprs
        space = self.space
        code = self.code
        blocks = code.blocks
        fallback = code.fallback
        decode = self._decode
        read_word = space.read_word
        write_word = space.write_word
        read_byte = space.read_byte
        write_byte = space.write_byte
        rip = regs.rip
        zf, sf, cf, of = regs.zf, regs.sf, regs.cf, regs.of
        budget = max_steps if max_steps is not None and max_steps >= 0 else _UNBOUNDED
        left = budget
        reason = ExitReason.STEP_LIMIT
        fault: Optional[Exception] = None
        try:
            while left:
                block = blocks.get(rip)
                if block is None or block[0] > left:
                    # A decode or fetch fault here counts no step.
                    block = fallback(rip, left, decode)
                n, run_block, stop, _ = block
                rip, zf, sf, cf, of = run_block(
                    g, zf, sf, cf, of, read_word, write_word, read_byte, write_byte
                )
                left -= n
                if stop:
                    reason = _STOP_REASONS[stop]
                    break
        except BlockFault as bf:
            # The faulting instruction counts as a step; rip points at it.
            left -= bf.at + 1
            rip = block[3][bf.at]
            zf, sf, cf, of = bf.flags
            reason, fault = ExitReason.FAULT, bf.fault
        except (PageFaultError, InvalidOpcodeError) as exc:
            reason, fault = ExitReason.FAULT, exc
        regs.rip = rip
        regs.zf, regs.sf, regs.cf, regs.of = zf, sf, cf, of
        steps = budget - left
        self.instructions_executed += steps
        return CpuExit(reason, steps, fault=fault)


#: Effectively no step budget (``max_steps`` None or negative).
_UNBOUNDED = 1 << 62

_STOP_REASONS = {isa.SYSCALL: ExitReason.SYSCALL, isa.HLT: ExitReason.HLT}
