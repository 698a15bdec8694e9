"""The simulated CPU.

Extension steps in the paper "run as arbitrary x86 code" (§3.1); this
package provides the simulated equivalent: a small x86-64-flavoured ISA
with 16 general-purpose registers, flags, a two-pass assembler, and an
interpreter whose loads and stores go through :mod:`repro.mem` address
spaces — so guest code takes real COW page faults.

* :mod:`repro.cpu.registers` -- the register file (the immutable half of
  a snapshot together with the address space).
* :mod:`repro.cpu.isa` -- opcode definitions and encoding layout.
* :mod:`repro.cpu.assembler` -- text assembly -> :class:`Program`.
* :mod:`repro.cpu.translate` -- each opcode's semantics as a source
  template, and the per-program cache of decoded instructions and basic
  blocks compiled from them.
* :mod:`repro.cpu.interpreter` -- fetch/decode and the dispatch loop
  over translated blocks; stops with typed :class:`CpuExit` events
  (syscall, halt, fault, step budget) that the VMM layer turns into VM
  exits.
"""

from repro.cpu.assembler import AssemblyError, Program, assemble
from repro.cpu.interpreter import CpuExit, ExitReason, Interpreter
from repro.cpu.registers import REG_NAMES, RegisterFile

__all__ = [
    "AssemblyError",
    "CpuExit",
    "ExitReason",
    "Interpreter",
    "Program",
    "REG_NAMES",
    "RegisterFile",
    "assemble",
]
