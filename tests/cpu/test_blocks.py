"""Block-boundary exactness: running translated blocks is indistinguishable
from stepping one instruction at a time.

Every program in the corpus runs under each total budget ``k`` from 1
to past its end, once through ``Interpreter.run`` (blocks, cut to fit the
budget) and once through ``k`` calls of ``Interpreter.step``, each step
checked against the architectural rules.  Both must agree on every exit
(reason, cumulative steps, rip, fault), the final registers and flags,
memory, and the TLB, fault and frame counters.

Each pair runs twice: with a cold code cache, as a fresh program does
(first executions decode and single-step, later ones run blocks), and
with a cache warmed by an earlier complete run, where every block is
translated before the first step and faults land mid-block.
"""

import dataclasses

import pytest

from repro.core.sysno import SYS_EXIT, SYS_GUESS, SYS_GUESS_FAIL, SYS_WRITE
from repro.cpu import Interpreter, assemble, isa
from repro.cpu.interpreter import ExitReason, InvalidOpcodeError
from repro.cpu import translate as translate_module
from repro.cpu.translate import CodeCache, translate
from repro.mem.faults import AccessKind
from repro.mem.layout import STACK_TOP
from repro.workloads.nqueens import nqueens_asm

from tests.cpu.conftest import load

FIVE_QUEENS = nqueens_asm(5)

RECURSION = """
    mov rdi, 6
    call fib
    hlt
fib:                    ; rax = fib(rdi), naive recursion
    cmp rdi, 2
    jb fib_base
    push rdi
    sub rdi, 1
    call fib
    pop rdi
    push rax
    push rdi
    sub rdi, 2
    call fib
    pop rdi
    pop rcx
    add rax, rcx
    ret
fib_base:
    mov rax, rdi
    ret
"""

# The store walks up one page per iteration and faults on the first
# unmapped page, mid-block, right after a CMP whose flags (sf, cf set)
# differ from those the rest of the loop leaves.
STORE_TO_UNMAPPED = """
    .data
    buf: .zero 8192
    .text
    mov rbx, buf
    mov rcx, 5
loop:
    add rcx, 1
    cmp rcx, 100
    mov [rbx + 8], rcx
    add rbx, 4096
    jmp loop
"""

# A counted loop, then straight-line code that runs into a 0xff byte.
INVALID_AFTER_PREFIX = """
    mov rcx, 3
loop:
    dec rcx
    jne loop
    add rax, 1
    nop
"""

# The divisor counts down to zero inside the loop body; as above, the
# CMP before the faulting UDIV leaves flags nothing else in the loop sets.
DIVIDE_BY_ZERO = """
    mov rax, 1000
    mov rcx, 3
loop:
    mov rdx, rax
    cmp rdx, 5000
    udiv rdx, rcx
    sub rcx, 1
    add rax, rdx
    jmp loop
"""

JMP_LOOP = """
    mov rax, 0
loop:
    add rax, 1
    jmp loop
"""


def _with_invalid_tail(program):
    return dataclasses.replace(program, text=program.text + b"\xff")


#: name -> (program, guesses fed to sys_guess, largest budget tried).
#: Every program but the JMP loop ends within its largest budget, with
#: room for the longest block to fit whole at the last exit.
CORPUS = {
    "5-queens": (assemble(FIVE_QUEENS), (0, 2, 4, 1, 3), 290),
    "5-queens-fail": (assemble(FIVE_QUEENS), (0, 1), 100),
    "call-ret-recursion": (assemble(RECURSION), (), 240),
    "store-to-unmapped": (assemble(STORE_TO_UNMAPPED), (), 30),
    "invalid-after-prefix": (
        _with_invalid_tail(assemble(INVALID_AFTER_PREFIX)), (), 20,
    ),
    "divide-by-zero": (assemble(DIVIDE_BY_ZERO), (), 40),
    "jmp-loop": (assemble(JMP_LOOP), (), 30),
}


def _syscall(cpu, guesses) -> bool:
    """Answer the syscall the guest just made; False when the path ends."""
    regs = cpu.regs
    number = regs.rax
    if number in (SYS_EXIT, SYS_GUESS_FAIL) or (
        number == SYS_GUESS and not guesses
    ):
        return False
    if number == SYS_GUESS:
        regs.rax = guesses.pop(0)
    elif number == SYS_WRITE:
        regs.rax = regs.rdx
    else:
        regs.rax = 0
    return True


def _checked_step(cpu):
    """One ``step()``, checked against the architectural rules rather
    than against the interpreter's own fault bookkeeping: a faulting
    instruction changes no register and counts as a step unless it could
    not be fetched or decoded; any other step counts one."""
    before = cpu.regs.frozen()
    ev = cpu.step()
    if ev.reason is ExitReason.FAULT:
        assert cpu.regs.frozen() == before
        fetch = isinstance(ev.fault, InvalidOpcodeError) or (
            getattr(ev.fault, "access", None) is AccessKind.EXECUTE
        )
        assert ev.steps == (0 if fetch else 1)
    else:
        assert ev.steps == 1
    return ev


def drive(program, guesses, budget, code, one_at_a_time):
    """Run *program* for at most *budget* instructions; returns what an
    observer can see of the run."""
    space = load(program)
    cpu = Interpreter(space, code=code)
    cpu.regs.rip = program.entry
    cpu.regs.rsp = STACK_TOP
    guesses = list(guesses)
    exits = []
    done = 0
    last = ExitReason.STEP_LIMIT
    while done < budget:
        if one_at_a_time:
            ev = _checked_step(cpu)
        else:
            ev = cpu.run(max_steps=budget - done)
        done += ev.steps
        last = ev.reason
        if ev.reason is ExitReason.STEP_LIMIT:
            continue
        exits.append((ev.reason, done, cpu.regs.rip, repr(ev.fault)))
        if ev.reason is not ExitReason.SYSCALL or not _syscall(cpu, guesses):
            break
    regs = cpu.regs
    return {
        "exits": exits,
        "last": last,
        "steps": done,
        "executed": cpu.instructions_executed,
        "rip": regs.rip,
        "flags": (regs.zf, regs.sf, regs.cf, regs.of),
        "gprs": list(regs.gprs),
        "memory": dict(space.iter_pages()),
        "tlb": dataclasses.asdict(space.tlb.stats),
        "tlb_entries": {
            vpn: (e.frame.pfn, e.perms, e.writable)
            for vpn, e in space.tlb._entries.items()
        },
        "faults": space.faults.snapshot(),
        "frames": dataclasses.asdict(space.pool.stats),
    }


@pytest.fixture(autouse=True, scope="module")
def memo_translate():
    """Compile each distinct block once for the whole module.

    ``translate`` is a pure function of its instructions, so sharing its
    results across the many fresh caches of the cold battery changes no
    behaviour; the caches still decode, count and look up on their own.
    """
    compiled = {}

    def memo(insns, next_rip):
        key = (tuple(insns), next_rip)
        if key not in compiled:
            compiled[key] = translate(insns, next_rip)
        return compiled[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translate_module, "translate", memo)
        yield


def warm_cache(program, guesses) -> CodeCache:
    code = CodeCache()
    drive(program, guesses, 1_000_000, code, one_at_a_time=False)
    return code


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_budget_matches_single_stepping(name, warm):
    program, guesses, most = CORPUS[name]
    code = warm_cache(program, guesses) if warm else None
    for budget in range(1, most + 1):
        # A cold run starts from an empty cache every time.
        blocks = drive(program, guesses, budget,
                       code if warm else CodeCache(), one_at_a_time=False)
        steps = drive(program, guesses, budget,
                      code if warm else CodeCache(), one_at_a_time=True)
        assert blocks == steps, f"{name}: budget {budget}"


@pytest.mark.parametrize("name", sorted(set(CORPUS) - {"jmp-loop"}))
def test_corpus_programs_end_within_their_budget(name):
    program, guesses, most = CORPUS[name]
    run = drive(program, guesses, most, CodeCache(), one_at_a_time=False)
    assert run["last"] is not ExitReason.STEP_LIMIT
    assert run["steps"] + 8 <= most


def test_warm_corpus_runs_multi_instruction_blocks():
    """The warm battery exercises real blocks, faults inside them included."""
    for name in ("store-to-unmapped", "divide-by-zero", "5-queens"):
        program, guesses, _ = CORPUS[name]
        code = warm_cache(program, guesses)
        assert max(block[0] for block in code.blocks.values()) > 3, name


@pytest.mark.parametrize("name,faulting_op", [
    ("store-to-unmapped", isa.STORE),
    ("divide-by-zero", isa.UDIVRR),
])
def test_fault_mid_block_names_the_faulting_instruction(name, faulting_op):
    program, guesses, _ = CORPUS[name]
    code = warm_cache(program, guesses)
    cpu = Interpreter(load(program), code=code)
    cpu.regs.rip = program.entry
    cpu.regs.rsp = STACK_TOP
    ev = cpu.run()
    assert ev.reason is ExitReason.FAULT
    assert code.decoded[cpu.regs.rip][0] == faulting_op


def test_invalid_opcode_counts_no_step():
    program, _, _ = CORPUS["invalid-after-prefix"]
    cpu = Interpreter(load(program))
    cpu.regs.rip = program.entry
    ev = cpu.run()
    assert ev.reason is ExitReason.FAULT
    assert ev.fault.rip == cpu.regs.rip == program.text_base + len(program.text) - 1
    # mov, 3 x (dec, jne), add, nop: the undecodable byte is not a step.
    assert ev.steps == 9
