"""Virtual CPU: the VM-entry/VM-exit boundary.

A :class:`VCpu` owns an interpreter and presents the libOS with the
hardware-virtualization contract: call :meth:`VCpu.enter` (VMRESUME), get
back a :class:`VmExit` naming why the guest stopped.  System calls, halts,
page faults the MMU could not resolve, CPU exceptions and step-budget
expiry all surface as exits; the libOS decides what happens next.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.interpreter import (
    CpuExit,
    DivideError,
    ExitReason,
    Interpreter,
    InvalidOpcodeError,
)
from repro.cpu.registers import RegisterFile
from repro.cpu.translate import CodeCache
from repro.mem.addrspace import AddressSpace
from repro.mem.faults import PageFaultError


class Ring(enum.Enum):
    """Privilege levels of the Figure 2 architecture."""

    ROOT_RING0 = "root-ring0"          # host Linux kernel
    NON_ROOT_RING0 = "non-root-ring0"  # the backtracking libOS
    NON_ROOT_RING3 = "non-root-ring3"  # the guest application


class VmExitReason(enum.Enum):
    """Why control returned from the guest to the libOS."""

    SYSCALL = "syscall"
    HLT = "hlt"
    PAGE_FAULT = "page_fault"
    CPU_EXCEPTION = "cpu_exception"
    STEP_LIMIT = "step_limit"


@dataclass
class VmExit:
    """One VM exit event, with its qualification payload."""

    reason: VmExitReason
    steps: int
    #: For PAGE_FAULT / CPU_EXCEPTION: the underlying exception object.
    fault: Optional[Exception] = None


@dataclass
class Vmcs:
    """The software VMCS: per-vCPU control and accounting state."""

    current_ring: Ring = Ring.NON_ROOT_RING0
    entries: int = 0
    exits: int = 0
    exit_counts: Counter = field(default_factory=Counter)
    guest_instructions: int = 0


class VCpu:
    """One virtual CPU running a guest at non-root ring 3."""

    def __init__(self, cpu_id: int = 0):
        self.cpu_id = cpu_id
        self.vmcs = Vmcs()
        self.regs = RegisterFile()
        self._interp: Optional[Interpreter] = None

    def attach(self, space: AddressSpace,
               code: Optional[CodeCache] = None) -> None:
        """Point the vCPU at a guest address space (e.g. after restore)
        and at the code cache of the program it holds.  Without *code*
        the vCPU keeps its current cache (a private one at first)."""
        if self._interp is None:
            self._interp = Interpreter(space, self.regs, code)
        else:
            self._interp.attach_space(space, code)

    @property
    def space(self) -> AddressSpace:
        if self._interp is None:
            raise RuntimeError("no address space attached")
        return self._interp.space

    def enter(self, max_steps: Optional[int] = None) -> VmExit:
        """VMRESUME: run the guest until the next VM exit."""
        if self._interp is None:
            raise RuntimeError("no address space attached")
        self.vmcs.entries += 1
        self.vmcs.current_ring = Ring.NON_ROOT_RING3
        cpu_exit = self._interp.run(max_steps=max_steps)
        self.vmcs.current_ring = Ring.NON_ROOT_RING0
        self.vmcs.exits += 1
        self.vmcs.guest_instructions += cpu_exit.steps
        vm_exit = _translate(cpu_exit)
        self.vmcs.exit_counts[vm_exit.reason] += 1
        return vm_exit


def _translate(cpu_exit: CpuExit) -> VmExit:
    if cpu_exit.reason is ExitReason.SYSCALL:
        return VmExit(VmExitReason.SYSCALL, cpu_exit.steps)
    if cpu_exit.reason is ExitReason.HLT:
        return VmExit(VmExitReason.HLT, cpu_exit.steps)
    if cpu_exit.reason is ExitReason.STEP_LIMIT:
        return VmExit(VmExitReason.STEP_LIMIT, cpu_exit.steps)
    fault = cpu_exit.fault
    if isinstance(fault, PageFaultError):
        return VmExit(VmExitReason.PAGE_FAULT, cpu_exit.steps, fault=fault)
    if isinstance(fault, (DivideError, InvalidOpcodeError)):
        return VmExit(VmExitReason.CPU_EXCEPTION, cpu_exit.steps, fault=fault)
    raise AssertionError(f"unmapped CPU exit {cpu_exit!r}")  # pragma: no cover
