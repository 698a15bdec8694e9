"""Basic-block translation: each opcode's semantics, written once.

The interpreter does not dispatch per instruction.  It runs *blocks*:
straight-line runs of decoded instructions compiled once into one Python
function each, the way hardware virtualization runs guest code natively
and steps in only at exits.  A block

* ends at a conditional branch, CALL, RET, SYSCALL or HLT, and before an
  instruction that has not been decoded yet;
* follows an unconditional JMP into its target unless the target is
  already in the block;
* takes the gprs list, the four flags and the address space's
  ``read_word``/``write_word``/``read_byte``/``write_byte`` as arguments,
  and returns ``(rip, zf, sf, cf, of)``.  It holds no reference to a
  vCPU, register file or address space, so one translation serves every
  vCPU, restore and :meth:`RegisterFile.load <repro.cpu.registers.RegisterFile.load>`.

Blocks are built only from instructions already in the decode cache, and
an instruction is decoded only when it is first executed (by a
one-instruction block, see :meth:`CodeCache.fallback`).  Translating
therefore never touches guest memory: every fetch, TLB lookup and fault
happens exactly where instruction-at-a-time execution has it.

A fault inside a block (a page fault from a load or store, or a divide
by zero) surfaces as :class:`BlockFault`, carrying the index of the
faulting instruction and the flags as they stood before it; registers
are already exact, because every instruction writes its register after
its last access that can fault.

The generated source interpolates only the integers :meth:`Interpreter._decode
<repro.cpu.interpreter.Interpreter._decode>` produced (register numbers,
immediates, displacements, scales and absolute targets), never guest
bytes as text.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.cpu import isa
from repro.cpu.registers import MASK64
from repro.mem.faults import PageFaultError

_FLAGS = ("zf", "sf", "cf", "of")


class DivideError(Exception):
    """Guest divided by zero (#DE)."""


class BlockFault(Exception):
    """A guest fault inside a block: the ``at``-th instruction (0-based)
    faulted, and the flags are those before it."""

    def __init__(self, at: int, zf, sf, cf, of, fault: Exception):
        super().__init__(at, fault)
        self.at = at
        self.flags = (zf, sf, cf, of)
        self.fault = fault


def _div0(rip: int) -> None:
    raise DivideError(f"division by zero at {rip:#x}")


class _Sem(NamedTuple):
    """One opcode's semantics as source.

    ``body`` is the statement template, ``flags`` maps each flag the op
    sets to its expression (dropped where a later op overwrites the flag
    first), ``end`` is the next-rip expression of an op that ends a block
    and ``faults`` marks ops whose memory access or check can fault.
    Placeholders: ``{1}``, ``{2}``, ... are the decoded fields, ``{m}``
    is field 2 masked to 64 bits, ``{sh}`` field 2 as a shift count and
    ``{rip}`` the instruction's address.  Temporaries: ``a``/``b`` are
    the operands, ``r`` the unmasked result and ``x`` the result.
    """

    body: str = ""
    flags: dict = {}
    end: Optional[str] = None
    faults: bool = False


_M = str(MASK64)
_S = str(MASK64 >> 1)  # x > _S  <=>  bit 63 of x is set

_ZS = {"zf": "x == 0", "sf": f"x > {_S}"}
_LOGIC = {**_ZS, "cf": "False", "of": "False"}
_ADD = {**_ZS, "cf": f"r > {_M}", "of": f"(~(a ^ b) & (a ^ x)) > {_S}"}
_SUB = {**_ZS, "cf": "a < b", "of": f"((a ^ b) & (a ^ x)) > {_S}"}

def _alu(rr: int, ri: int, body: str, flags: dict) -> dict:
    """The RR and RI forms of one ALU op; ``{B}`` is the source operand."""
    return {
        rr: _Sem(body.replace("{B}", "g[{2}]"), flags),
        ri: _Sem(body.replace("{B}", "{m}"), flags),
    }


def _jcc(cond: str) -> _Sem:
    return _Sem(end=f"({{1}} if {cond} else {{2}})")


#: opcode -> semantics.  The translator emits nothing else.
SEMANTICS: dict[int, _Sem] = {
    isa.MOVI: _Sem("g[{1}] = {2}"),
    isa.MOVR: _Sem("g[{1}] = g[{2}]"),
    isa.LOAD: _Sem(f"g[{{1}}] = rw((g[{{2}}] + {{3}}) & {_M})", faults=True),
    isa.STORE: _Sem(f"ww((g[{{1}}] + {{2}}) & {_M}, g[{{3}}])", faults=True),
    isa.LOADB: _Sem(f"g[{{1}}] = rb((g[{{2}}] + {{3}}) & {_M})", faults=True),
    isa.STOREB: _Sem(f"wb((g[{{1}}] + {{2}}) & {_M}, g[{{3}}])", faults=True),
    isa.LOADX: _Sem(
        f"g[{{1}}] = rw((g[{{2}}] + g[{{3}}] * {{4}} + {{5}}) & {_M})",
        faults=True,
    ),
    isa.STOREX: _Sem(
        f"ww((g[{{1}}] + g[{{2}}] * {{3}} + {{4}}) & {_M}, g[{{5}}])",
        faults=True,
    ),
    isa.LOADBX: _Sem(
        f"g[{{1}}] = rb((g[{{2}}] + g[{{3}}] * {{4}} + {{5}}) & {_M})",
        faults=True,
    ),
    isa.STOREBX: _Sem(
        f"wb((g[{{1}}] + g[{{2}}] * {{3}} + {{4}}) & {_M}, g[{{5}}])",
        faults=True,
    ),
    isa.LEA: _Sem(f"g[{{1}}] = (g[{{2}}] + {{3}}) & {_M}"),
    isa.LEAX: _Sem(f"g[{{1}}] = (g[{{2}}] + g[{{3}}] * {{4}} + {{5}}) & {_M}"),
    **_alu(isa.ADDRR, isa.ADDRI,
           f"a = g[{{1}}]\nb = {{B}}\nr = a + b\ng[{{1}}] = x = r & {_M}", _ADD),
    **_alu(isa.SUBRR, isa.SUBRI,
           f"a = g[{{1}}]\nb = {{B}}\ng[{{1}}] = x = (a - b) & {_M}", _SUB),
    **_alu(isa.CMPRR, isa.CMPRI,
           f"a = g[{{1}}]\nb = {{B}}\nx = (a - b) & {_M}", _SUB),
    # The low 64 bits of a product are the same for signed and unsigned
    # operands, so IMUL multiplies the unsigned values.
    **_alu(isa.IMULRR, isa.IMULRI,
           f"g[{{1}}] = x = (g[{{1}}] * {{B}}) & {_M}", _ZS),
    **_alu(isa.ANDRR, isa.ANDRI, "g[{1}] = x = g[{1}] & {B}", _LOGIC),
    **_alu(isa.ORRR, isa.ORRI, "g[{1}] = x = g[{1}] | {B}", _LOGIC),
    **_alu(isa.XORRR, isa.XORRI, "g[{1}] = x = g[{1}] ^ {B}", _LOGIC),
    isa.TESTRR: _Sem("x = g[{1}] & g[{2}]", _LOGIC),
    isa.SHLI: _Sem(f"g[{{1}}] = x = (g[{{1}}] << {{sh}}) & {_M}", _ZS),
    isa.SHRI: _Sem("g[{1}] = x = g[{1}] >> {sh}", _ZS),
    isa.NEG: _Sem(f"g[{{1}}] = x = -g[{{1}}] & {_M}", {**_ZS, "cf": "x != 0"}),
    isa.NOT: _Sem(f"g[{{1}}] ^= {_M}"),
    isa.INC: _Sem(f"g[{{1}}] = x = (g[{{1}}] + 1) & {_M}", _ZS),
    isa.DEC: _Sem(f"g[{{1}}] = x = (g[{{1}}] - 1) & {_M}", _ZS),
    isa.UDIVRR: _Sem("b = g[{2}]\nif b == 0:\n    _div0({rip})\ng[{1}] //= b",
                     faults=True),
    isa.UMODRR: _Sem("b = g[{2}]\nif b == 0:\n    _div0({rip})\ng[{1}] %= b",
                     faults=True),
    isa.JMP: _Sem(end="{1}"),
    isa.JE: _jcc("zf"),
    isa.JNE: _jcc("not zf"),
    isa.JL: _jcc("sf != of"),
    isa.JLE: _jcc("zf or sf != of"),
    isa.JG: _jcc("not zf and sf == of"),
    isa.JGE: _jcc("sf == of"),
    isa.JB: _jcc("cf"),
    isa.JAE: _jcc("not cf"),
    isa.CALL: _Sem(f"a = (g[4] - 8) & {_M}\nww(a, {{2}})\ng[4] = a",
                   end="{1}", faults=True),
    isa.RET: _Sem(f"a = g[4]\nr = rw(a)\ng[4] = (a + 8) & {_M}",
                  end="r", faults=True),
    isa.PUSH: _Sem(f"a = (g[4] - 8) & {_M}\nww(a, g[{{1}}])\ng[4] = a",
                   faults=True),
    isa.POP: _Sem(f"a = g[4]\ng[{{1}}] = rw(a)\ng[4] = (a + 8) & {_M}",
                  faults=True),
    isa.NOP: _Sem(),
    isa.SYSCALL: _Sem(end="{1}"),  # resume after the syscall instruction
    isa.HLT: _Sem(end="{1}"),
}

#: Ops that end a block (JMP only when its target cannot be followed).
_ENDS_BLOCK = frozenset(
    op for op, sem in SEMANTICS.items() if sem.end is not None
) - {isa.JMP}

#: Ops whose block hands control back to the caller.
_STOPS = frozenset({isa.SYSCALL, isa.HLT})

_NAMESPACE = {"_BlockFault": BlockFault, "_div0": _div0,
              "_FAULTS": (PageFaultError, DivideError)}

#: A translated block: ``(n, fn, stop, rips)``.  ``n`` instructions run
#: when ``fn(g, zf, sf, cf, of, rw, ww, rb, wb)`` returns ``(rip, zf, sf,
#: cf, of)``; ``stop`` is the last op when it is SYSCALL or HLT (else 0)
#: and ``rips`` the address of each instruction.
Block = tuple


def translate(insns: list[tuple[int, tuple]], next_rip: int) -> Block:
    """Compile ``(rip, decoded)`` pairs, run in order, into one block.

    *next_rip* is where control goes after the last instruction when
    that instruction does not name its own successor.
    """
    live = set(_FLAGS)
    live_after = []
    for _, d in reversed(insns):
        live_after.append(live)
        sem = SEMANTICS[d[0]]
        live = set(_FLAGS) if sem.faults else live.difference(sem.flags)
    live_after.reverse()

    lines = []
    faults = False
    last = len(insns) - 1
    for i, (rip, d) in enumerate(insns):
        if any(type(v) is not int for v in d):  # pragma: no cover
            raise TypeError(f"non-integer decoded field at {rip:#x}: {d!r}")
        sem = SEMANTICS[d[0]]
        operand = d[2] if len(d) > 2 else 0
        fmt = dict(m=operand & MASK64, sh=operand & 63, rip=rip)
        if sem.faults:
            faults = True
            lines.append(f"at = {i}")
        if sem.body:
            lines.extend(sem.body.format(*d, **fmt).split("\n"))
        lines.extend(
            f"{flag} = {sem.flags[flag]}"
            for flag in _FLAGS
            if flag in sem.flags and flag in live_after[i]
        )
        if i == last:
            end = sem.end.format(*d, **fmt) if sem.end else str(next_rip)
            lines.append(f"return {end}, zf, sf, cf, of")

    if faults:
        body = (["try:"] + ["    " + line for line in lines]
                + ["except _FAULTS as e:",
                   "    raise _BlockFault(at, zf, sf, cf, of, e)"])
    else:
        body = lines
    first = insns[0][0]
    source = "def _block(g, zf, sf, cf, of, rw, ww, rb, wb):\n" + "".join(
        f"    {line}\n" for line in body
    )
    namespace = dict(_NAMESPACE)
    exec(compile(source, f"<block {first:#x}>", "exec"), namespace)
    op = insns[-1][1][0]
    return (len(insns), namespace["_block"], op if op in _STOPS else 0,
            tuple(rip for rip, _ in insns))


class CodeCache:
    """The decoded instructions and translated blocks of one program.

    It belongs to the program being run: engines make one per program
    and share it across vCPUs and restores, and a new program gets a new
    cache.  ``blocks`` holds the longest block starting at each rip,
    ``singles`` the one-instruction block at each rip (for ``step()``
    and for the tail of a step budget), ``translated`` counts the blocks
    compiled.
    """

    def __init__(self) -> None:
        self.decoded: dict[int, tuple] = {}
        self.blocks: dict[int, Block] = {}
        self.singles: dict[int, Block] = {}
        self.translated = 0

    def fallback(self, rip: int, left: int,
                 decode: Callable[[int], tuple]) -> Block:
        """The block to run at *rip* when ``blocks`` has none that fits
        in *left* steps: translate one if *rip* is decoded (and more than
        one step is left), else run the one-instruction block, decoding
        *rip* first (which may fault)."""
        block = self.blocks.get(rip)
        if block is None and left > 1 and rip in self.decoded:
            block = self.blocks[rip] = self._translate(rip)
            if block[0] <= left:
                return block
        single = self.singles.get(rip)
        if single is None:
            d = self.decoded.get(rip)
            if d is None:
                d = self.decoded[rip] = decode(rip)
            single = self.singles[rip] = self._compile([(rip, d)], d[-1])
        return single

    def _translate(self, rip: int) -> Block:
        """The longest block at decoded *rip*."""
        insns = []
        seen = set()
        decoded = self.decoded
        while rip not in seen:
            d = decoded.get(rip)
            if d is None:
                break
            insns.append((rip, d))
            seen.add(rip)
            op = d[0]
            if op in _ENDS_BLOCK:
                break
            rip = d[1] if op == isa.JMP else d[-1]
        if len(insns) == 1 and insns[0][0] in self.singles:
            return self.singles[insns[0][0]]
        return self._compile(insns, rip)

    def _compile(self, insns: list, next_rip: int) -> Block:
        self.translated += 1
        return translate(insns, next_rip)
