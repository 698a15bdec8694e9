"""Unit tests for the interpreter: semantics of every instruction class."""

import pytest

from repro.cpu import Interpreter, assemble
from repro.cpu.interpreter import DivideError, ExitReason, InvalidOpcodeError
from repro.cpu.registers import MASK64, FrozenRegisters
from repro.mem.faults import PageFaultError
from repro.mem.layout import DATA_BASE

from tests.cpu.conftest import load, run_asm


def final(source, reg="rax", **kw):
    exit_event, cpu, _ = run_asm(source + "\nhlt", **kw)
    assert exit_event.reason is ExitReason.HLT, exit_event
    return cpu.regs[reg]


class TestDataMovement:
    def test_mov_imm(self):
        assert final("mov rax, 123") == 123

    def test_mov_reg(self):
        assert final("mov rbx, 9\nmov rax, rbx") == 9

    def test_store_load_roundtrip(self):
        src = """
        mov rbx, 0x600000
        mov rcx, 0xdead
        mov [rbx+8], rcx
        mov rax, [rbx+8]
        """
        assert final(src) == 0xDEAD

    def test_byte_store_truncates(self):
        src = """
        mov rbx, 0x600000
        mov rcx, 0x1ff
        movb [rbx], rcx
        movb rax, [rbx]
        """
        assert final(src) == 0xFF

    def test_indexed_addressing(self):
        src = """
        .data
        table: .quad 10, 20, 30
        .text
        mov rbx, table
        mov rcx, 2
        mov rax, [rbx + rcx*8]
        """
        assert final(src) == 30

    def test_indexed_store(self):
        src = """
        mov rbx, 0x600000
        mov rcx, 3
        mov rdx, 77
        mov [rbx + rcx*8 + 8], rdx
        mov rax, [rbx + 32]
        """
        assert final(src) == 77

    def test_lea(self):
        assert final("mov rbx, 100\nlea rax, [rbx+28]") == 128

    def test_lea_indexed(self):
        assert final("mov rbx, 100\nmov rcx, 4\nlea rax, [rbx+rcx*8+4]") == 136


class TestArithmetic:
    def test_add(self):
        assert final("mov rax, 2\nadd rax, 3") == 5

    def test_add_wraps(self):
        assert final("mov rax, -1\nadd rax, 2") == 1

    def test_sub(self):
        assert final("mov rax, 10\nsub rax, 4") == 6

    def test_sub_underflow_wraps(self):
        assert final("mov rax, 0\nsub rax, 1") == MASK64

    def test_imul(self):
        assert final("mov rax, 7\nmov rbx, -3\nimul rax, rbx") == (-21) & MASK64

    def test_imul_imm(self):
        assert final("mov rax, 6\nimul rax, 7") == 42

    def test_logic(self):
        assert final("mov rax, 0b1100\nand rax, 0b1010") == 0b1000
        assert final("mov rax, 0b1100\nor rax, 0b1010") == 0b1110
        assert final("mov rax, 0b1100\nxor rax, 0b1010") == 0b0110

    def test_shifts(self):
        assert final("mov rax, 3\nshl rax, 4") == 48
        assert final("mov rax, 48\nshr rax, 4") == 3

    def test_neg_not(self):
        assert final("mov rax, 5\nneg rax") == (-5) & MASK64
        assert final("mov rax, 0\nnot rax") == MASK64

    def test_inc_dec(self):
        assert final("mov rax, 5\ninc rax\ninc rax\ndec rax") == 6

    def test_udiv_umod(self):
        assert final("mov rax, 17\nmov rbx, 5\nudiv rax, rbx") == 3
        assert final("mov rax, 17\nmov rbx, 5\numod rax, rbx") == 2

    def test_divide_by_zero_faults(self):
        exit_event, _, _ = run_asm("mov rax, 1\nmov rbx, 0\nudiv rax, rbx\nhlt")
        assert exit_event.reason is ExitReason.FAULT
        assert isinstance(exit_event.fault, DivideError)


class TestBranches:
    @pytest.mark.parametrize(
        "a,b,jcc,taken",
        [
            (1, 1, "je", True), (1, 2, "je", False),
            (1, 2, "jne", True), (1, 1, "jne", False),
            (1, 2, "jl", True), (2, 1, "jl", False), (-1, 1, "jl", True),
            (1, 1, "jle", True), (2, 1, "jle", False),
            (2, 1, "jg", True), (1, 1, "jg", False), (1, -1, "jg", True),
            (1, 1, "jge", True), (-2, -1, "jge", False),
            (1, 2, "jb", True), (-1, 1, "jb", False),  # unsigned: -1 is huge
            (2, 1, "jae", True), (1, 2, "jae", False),
        ],
    )
    def test_conditional_branches(self, a, b, jcc, taken):
        src = f"""
        mov rcx, {a}
        mov rdx, {b}
        mov rax, 0
        cmp rcx, rdx
        {jcc} yes
        jmp done
        yes: mov rax, 1
        done:
        """
        assert final(src) == (1 if taken else 0)

    def test_test_sets_zf(self):
        src = """
        mov rcx, 4
        mov rdx, 3
        mov rax, 0
        test rcx, rdx
        jne done
        mov rax, 1
        done:
        """
        assert final(src) == 1

    def test_loop(self):
        src = """
        mov rax, 0
        mov rcx, 10
        loop:
        add rax, rcx
        dec rcx
        cmp rcx, 0
        jne loop
        """
        assert final(src) == 55


class TestStackAndCalls:
    def test_push_pop(self):
        assert final("mov rbx, 42\npush rbx\npop rax") == 42

    def test_push_moves_rsp_down(self):
        src = "mov rbx, rsp\npush rbx\nmov rax, rbx\nsub rax, rsp"
        assert final(src) == 8

    def test_call_ret(self):
        src = """
        _start:
        call fn
        add rax, 1
        hlt
        fn:
        mov rax, 10
        ret
        """
        exit_event, cpu, _ = run_asm(src)
        assert exit_event.reason is ExitReason.HLT
        assert cpu.regs.rax == 11

    def test_nested_calls(self):
        src = """
        _start:
        call a
        hlt
        a:
        call b
        add rax, 1
        ret
        b:
        mov rax, 100
        ret
        """
        exit_event, cpu, _ = run_asm(src)
        assert cpu.regs.rax == 101

    def test_recursion_factorial(self):
        src = """
        _start:
        mov rdi, 10
        call fact
        hlt
        fact:
        cmp rdi, 1
        jg rec
        mov rax, 1
        ret
        rec:
        push rdi
        sub rdi, 1
        call fact
        pop rdi
        imul rax, rdi
        ret
        """
        exit_event, cpu, _ = run_asm(src)
        assert cpu.regs.rax == 3628800


class TestExits:
    def test_syscall_exit(self):
        exit_event, cpu, _ = run_asm("mov rax, 60\nsyscall\nhlt")
        assert exit_event.reason is ExitReason.SYSCALL
        assert cpu.regs.rax == 60

    def test_rip_points_after_syscall(self):
        exit_event, cpu, space = run_asm("syscall\nmov rax, 7\nhlt")
        assert exit_event.reason is ExitReason.SYSCALL
        # Resuming runs the rest of the program.
        resumed = __import__("repro.cpu", fromlist=["Interpreter"])
        cont = cpu.run()
        assert cont.reason is ExitReason.HLT
        assert cpu.regs.rax == 7

    def test_step_limit(self):
        exit_event, cpu, _ = run_asm("loop: jmp loop", max_steps=50)
        assert exit_event.reason is ExitReason.STEP_LIMIT
        assert exit_event.steps == 50

    def test_unmapped_access_faults(self):
        exit_event, _, _ = run_asm("mov rbx, 0x123450000\nmov rax, [rbx]\nhlt")
        assert exit_event.reason is ExitReason.FAULT
        assert isinstance(exit_event.fault, PageFaultError)

    def test_write_to_code_faults(self):
        exit_event, _, _ = run_asm(
            "mov rbx, 0x400000\nmov rcx, 1\nmov [rbx], rcx\nhlt"
        )
        assert exit_event.reason is ExitReason.FAULT

    def test_execute_data_faults(self):
        exit_event, _, _ = run_asm("mov rbx, 0x600000\njmp next\nnext: hlt",
                                   setup=_jump_to_data)
        assert exit_event.reason is ExitReason.FAULT

    def test_invalid_opcode(self):
        def poke(cpu, space, program):
            pass

        exit_event, cpu, space = run_asm("nop\nhlt")
        # Directly decode garbage: write an undefined opcode into data and
        # point rip at an RX page containing 0xFF is not constructible via
        # the assembler, so decode from a handwritten program instead.
        from repro.cpu import Interpreter
        from repro.mem import AddressSpace, FramePool, Permission

        pool = FramePool()
        s = AddressSpace(pool)
        s.map_region(0x400000, 4096, Permission.RX, data=b"\xff")
        cpu2 = Interpreter(s)
        cpu2.regs.rip = 0x400000
        ev = cpu2.run()
        assert ev.reason is ExitReason.FAULT
        assert isinstance(ev.fault, InvalidOpcodeError)

    def test_instruction_count_accumulates(self):
        exit_event, cpu, _ = run_asm("nop\nnop\nnop\nhlt")
        assert cpu.instructions_executed == 4


def _jump_to_data(cpu, space, program):
    cpu.regs.rip = DATA_BASE


class TestCowIntegration:
    def test_guest_writes_cow_after_fork(self):
        src = """
        mov rbx, 0x600000
        mov rcx, 111
        mov [rbx], rcx
        syscall          ; pause so the host can fork
        mov rcx, 222
        mov [rbx], rcx
        hlt
        """
        exit_event, cpu, space = run_asm(src)
        assert exit_event.reason is ExitReason.SYSCALL
        frozen = cpu.regs.frozen()
        snap_space = space.fork_cow()

        # Continue original: writes 222.
        cont = cpu.run()
        assert cont.reason is ExitReason.HLT
        assert space.read_u64(0x600000) == 222
        # Snapshot still sees 111.
        assert snap_space.read_u64(0x600000) == 111

        # Resume from the snapshot in a second interpreter: also writes 222
        # into its own fork, never touching snap_space.
        from repro.cpu import Interpreter

        replay_space = snap_space.fork_cow()
        cpu2 = Interpreter(replay_space)
        cpu2.regs.load(frozen)
        again = cpu2.run()
        assert again.reason is ExitReason.HLT
        assert replay_space.read_u64(0x600000) == 222
        assert snap_space.read_u64(0x600000) == 111


# -- flag exactness at edge operands -------------------------------------

_SIGN = 1 << 63
_EDGES = (0, 1, _SIGN - 1, _SIGN, MASK64)
#: Immediates are sign-extended imm32: the edges that encode, plus the
#: imm32 extremes.
_IMM_EDGES = (0, 1, -1, 2**31 - 1, -(2**31))
_SHIFTS = (0, 1, 63, 64, -1)


def _s(value):
    return value - (1 << 64) if value & _SIGN else value


def _zs(res):
    return {"zf": res == 0, "sf": res >= _SIGN}


def _fits(value):
    return -_SIGN <= value < _SIGN


def _spec(mnemonic, a, b):
    """(result or None for CMP/TEST, the flags the op sets) in terms of
    unsigned and signed arithmetic on unbounded ints."""
    if mnemonic in ("add", "sub", "cmp"):
        full = a + b if mnemonic == "add" else a - b
        signed = _s(a) + _s(b) if mnemonic == "add" else _s(a) - _s(b)
        res = full % (1 << 64)
        return (None if mnemonic == "cmp" else res), {
            **_zs(res), "cf": not 0 <= full <= MASK64, "of": not _fits(signed),
        }
    if mnemonic in ("and", "or", "xor", "test"):
        res = {"and": a & b, "test": a & b, "or": a | b, "xor": a ^ b}[mnemonic]
        return (None if mnemonic == "test" else res), {
            **_zs(res), "cf": False, "of": False,
        }
    if mnemonic == "imul":
        res = (_s(a) * _s(b)) % (1 << 64)
        return res, _zs(res)
    if mnemonic == "shl":
        res = (a << (b % 64)) % (1 << 64)
        return res, _zs(res)
    if mnemonic == "shr":
        res = a >> (b % 64)
        return res, _zs(res)
    if mnemonic == "neg":
        res = -a % (1 << 64)
        return res, {**_zs(res), "cf": a != 0}
    res = (a + (1 if mnemonic == "inc" else -1)) % (1 << 64)
    return res, _zs(res)


def _run_flags(body, before):
    """Run *body* (then hlt) from flags *before*, twice: the first run
    single-steps fresh code, the second runs it as one translated block.
    Both must agree; returns (rax, flags)."""
    program = assemble(body + "\nhlt")
    space = load(program)
    cpu = Interpreter(space)
    results = []
    for _ in range(2):
        cpu.regs.load(FrozenRegisters((0,) * 16, program.entry, *before))
        assert cpu.run().reason is ExitReason.HLT
        regs = cpu.regs
        results.append((regs.rax, dict(zf=regs.zf, sf=regs.sf, cf=regs.cf,
                                       of=regs.of)))
    assert max(block[0] for block in cpu.code.blocks.values()) > 1
    assert results[0] == results[1]
    return results[0]


_FLAG_OPS = [
    ("add", "rr"), ("add", "ri"), ("sub", "rr"), ("sub", "ri"),
    ("cmp", "rr"), ("cmp", "ri"), ("test", "rr"), ("imul", "rr"),
    ("imul", "ri"), ("and", "rr"), ("and", "ri"), ("or", "rr"),
    ("or", "ri"), ("xor", "rr"), ("xor", "ri"), ("shl", "ri"),
    ("shr", "ri"), ("neg", "r"), ("inc", "r"), ("dec", "r"),
]


@pytest.mark.parametrize("mnemonic,form", _FLAG_OPS)
def test_flags_at_edge_operands(mnemonic, form):
    if form == "r":
        cases = [(a, None) for a in _EDGES]
    elif form == "rr":
        cases = [(a, b) for a in _EDGES for b in _EDGES]
    else:
        imms = _SHIFTS if mnemonic in ("shl", "shr") else _IMM_EDGES
        cases = [(a, b) for a in _EDGES for b in imms]
    for a, b in cases:
        if form == "r":
            body = f"mov rax, {a}\n{mnemonic} rax"
        elif form == "rr":
            body = f"mov rax, {a}\nmov rbx, {b}\n{mnemonic} rax, rbx"
        else:
            body = f"mov rax, {a}\n{mnemonic} rax, {b}"
        # Immediates are sign-extended to 64 bits (shift counts are not
        # extended beyond the count's low six bits, so either view holds).
        operand = None if b is None else b % (1 << 64)
        want_rax, want_flags = _spec(mnemonic, a, operand)
        if want_rax is None:
            want_rax = a
        for before in ((False,) * 4, (True,) * 4):
            rax, flags = _run_flags(body, before)
            expected = dict(zip(("zf", "sf", "cf", "of"), before))
            expected.update(want_flags)
            assert (rax, flags) == (want_rax, expected), (body, before)
