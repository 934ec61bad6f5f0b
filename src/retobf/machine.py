"""Deterministic interpreter for the Thumb subset.

Serves as the semantic oracle: it proves transforms behavior-preserving and
demonstrates where return addresses land on the stack.  Condition flags are
not modeled (nothing in the subset branches on them), and there is no cycle
accuracy; a step budget bounds every run.

Memory model: a read-only flash region holding the firmware image and a
read-write scratch RAM region, laid out by the image's RAM map
(``image.SRAM_SIZE`` bytes from ``sram_base``).  The top
``image.STACK_RESERVE`` bytes of RAM are the stack; the RAM below them,
from the table base up to ``stack_limit``, holds the rebuilt instruction
table.  Execution is allowed from flash and from that table region only.

An untraced run executes a block at a time: a straight run of code
compiled to ops.  The image keeps the blocks of every state of it, and no
instructions: ``blocks`` per flash pc (flash is read-only), and
``table_blocks`` per table pc, each kept with the RAM bytes it was compiled
from and reused only while RAM holds them.  Only ``write_table`` writes
below ``stack_limit`` (a run keeps sp in the stack), so table code cannot
change during a run.  Traced runs, blocks over the step budget and fetches
that fault or decode to ``Unknown`` are stepped, decoding afresh.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from . import isa
from .image import SRAM_SIZE
from .isa import Instruction, decode

#: Address used as the "caller" a harnessed call returns to.
SENTINEL = 0x000E0000

DEFAULT_STEP_BUDGET = 100_000

#: Step budget of one gadget check, and the base of the values seeded into
#: the stack words a gadget consumes.
GADGET_STEP_BUDGET = 2000
GADGET_FILLER = 0x40404040

#: Bytes of pre-seeded caller stack left above the initial sp, and the
#: words seeded there.
CALLER_STACK_BYTES = 64
_CALLER_STACK = b"".join(
    (0xCA000000 + i).to_bytes(4, "little") for i in range(CALLER_STACK_BYTES // 4)
)

MASK32 = 0xFFFFFFFF


class FaultKind(enum.Enum):
    UNDECODABLE = "undecodable instruction"
    BAD_PC = "pc outside executable regions or misaligned"
    MEMORY = "access outside mapped regions or read-only write"
    STACK = "sp left the stack region or misaligned"
    INTERWORK = "branch to a non-thumb address"
    INVALID = "architecturally invalid instruction"
    BUDGET = "step budget exceeded"


class MachineFault(Exception):
    def __init__(self, kind: FaultKind, detail: str = ""):
        self.kind = kind
        super().__init__(f"{kind.value}{': ' + detail if detail else ''}")


@dataclass
class TraceEvent:
    pc: int
    insn: Instruction
    sp_before: int

    def line(self) -> str:
        return f"step pc=0x{self.pc:08x} sp=0x{self.sp_before:08x} {self.insn.text()}"


@dataclass
class MachineState:
    """One core's architectural state plus its two memory regions."""

    regs: list[int]
    flash_base: int
    flash: bytes
    sram_base: int
    sram: bytearray
    table_base: int
    stack_limit: int
    stack_top: int
    step_count: int = 0
    #: The image's block memos: ``pc -> (ops, end)`` in flash, and
    #: ``pc -> (bytes, ops, bytes, ops, ...)`` in the table region.
    flash_blocks: dict = field(default_factory=dict, repr=False)
    table_blocks: dict = field(default_factory=dict, repr=False)

    @property
    def pc(self) -> int:
        return self.regs[isa.PC]

    @pc.setter
    def pc(self, value: int) -> None:
        self.regs[isa.PC] = value & MASK32

    @property
    def sp(self) -> int:
        return self.regs[isa.SP]

    @sp.setter
    def sp(self, value: int) -> None:
        self.regs[isa.SP] = value & MASK32

    @property
    def lr(self) -> int:
        return self.regs[isa.LR]

    @lr.setter
    def lr(self, value: int) -> None:
        self.regs[isa.LR] = value & MASK32

    def in_flash(self, addr: int, size: int = 1) -> bool:
        return self.flash_base <= addr and addr + size <= self.flash_base + len(self.flash)

    def in_sram(self, addr: int, size: int = 1) -> bool:
        return self.sram_base <= addr and addr + size <= self.sram_base + len(self.sram)

    def read(self, addr: int, size: int) -> int:
        if self.in_flash(addr, size):
            raw = self.flash[addr - self.flash_base : addr - self.flash_base + size]
        elif self.in_sram(addr, size):
            raw = self.sram[addr - self.sram_base : addr - self.sram_base + size]
        else:
            raise MachineFault(FaultKind.MEMORY, f"read of {size} at 0x{addr:08x}")
        return int.from_bytes(raw, "little")

    def write(self, addr: int, size: int, value: int) -> None:
        if self.in_flash(addr, size):
            raise MachineFault(FaultKind.MEMORY, f"write to flash at 0x{addr:08x}")
        if not self.in_sram(addr, size):
            raise MachineFault(FaultKind.MEMORY, f"write of {size} at 0x{addr:08x}")
        self.sram[addr - self.sram_base : addr - self.sram_base + size] = value.to_bytes(
            size, "little"
        )

    def write_table(self, addr: int, data: bytes) -> None:
        """Write a table image at ``addr`` in one slice; it must lie wholly
        in the table region, ``[table_base, stack_limit)``."""
        if not self.table_base <= addr <= addr + len(data) <= self.stack_limit:
            raise MachineFault(
                FaultKind.MEMORY,
                f"table of {len(data)} bytes at 0x{addr:08x} outside the table region "
                f"0x{self.table_base:08x}..0x{self.stack_limit:08x}",
            )
        lo = addr - self.sram_base
        self.sram[lo : lo + len(data)] = data


def make_state(image, table=None, *, regs: dict[int, int] | None = None) -> MachineState:
    """Build a fresh state for ``image`` with ``table`` installed in RAM.

    The RAM map (``sram_base``, ``table_base``, ``stack_limit`` and
    ``stack_top``) comes from ``image``; ``table`` is installed via its
    ``install`` hook when given.
    """
    state = MachineState(
        regs=[0] * 16,
        flash_base=image.base,
        flash=image.data,
        sram_base=image.sram_base,
        sram=bytearray(SRAM_SIZE),
        table_base=image.table_base,
        stack_limit=image.stack_limit,
        stack_top=image.stack_top,
        flash_blocks=image.blocks,
        table_blocks=image.table_blocks,
    )
    if table is not None:
        table.install(state)
    if regs:
        for idx, value in regs.items():
            state.regs[idx] = value & MASK32
    return state


def _fetch(state: MachineState, pc: int) -> tuple[Instruction, int]:
    if pc % 2:
        raise MachineFault(FaultKind.BAD_PC, f"misaligned pc 0x{pc:08x}")
    if state.in_flash(pc, 2):
        data, off = state.flash, pc - state.flash_base
    elif state.table_base <= pc < state.stack_limit and state.in_sram(pc, 2):
        data, off = state.sram, pc - state.sram_base
    else:
        raise MachineFault(FaultKind.BAD_PC, f"pc 0x{pc:08x} not executable")
    try:
        return decode(data, off, pc)
    except isa.TruncatedStreamError as exc:
        raise MachineFault(FaultKind.UNDECODABLE, str(exc)) from exc


def _check_sp(state: MachineState) -> None:
    if state.sp % 4:
        raise MachineFault(FaultKind.STACK, f"sp misaligned 0x{state.sp:08x}")
    if not state.stack_limit <= state.sp <= state.stack_top:
        raise MachineFault(FaultKind.STACK, f"sp 0x{state.sp:08x} outside stack region")


def _interwork_target(value: int) -> int:
    """The pc a ``bx``-style branch to ``value`` lands on."""
    if not value & 1:
        raise MachineFault(FaultKind.INTERWORK, f"target 0x{value:08x} lacks thumb bit")
    return value & ~1


#: ``struct`` layouts of 0..16 little-endian words, for push and pop.
_WORDS = tuple(struct.Struct(f"<{n}I") for n in range(17))


# Handlers: the instructions that touch memory or may fault.  Each takes the
# state and the argument its op carries; one that branches returns the next
# pc.  The caller has set pc to the instruction's address, so a fault leaves
# pc there.


def _invalid(state: MachineState, detail: str) -> None:
    raise MachineFault(FaultKind.INVALID, detail)


def _push(state: MachineState, regs_pushed: tuple[int, ...]) -> None:
    regs, n = state.regs, len(regs_pushed)
    sp = regs[isa.SP] = (regs[isa.SP] - 4 * n) & MASK32
    _check_sp(state)
    lo = sp - state.sram_base
    if lo + 4 * n <= len(state.sram):
        _WORDS[n].pack_into(state.sram, lo, *[regs[r] for r in regs_pushed])
    else:  # the words run past RAM: write them in order up to the fault
        for i, reg in enumerate(regs_pushed):
            state.write(sp + 4 * i, 4, regs[reg])


def _pop(state: MachineState, regs_popped: tuple[int, ...]) -> int | None:
    regs, n = state.regs, len(regs_popped)
    sp = regs[isa.SP]
    lo = sp - state.sram_base
    if 0 <= lo and lo + 4 * n <= len(state.sram):
        values = _WORDS[n].unpack_from(state.sram, lo)
    else:
        values = [state.read(sp + 4 * i, 4) for i in range(n)]
    regs[isa.SP] = (sp + 4 * n) & MASK32
    _check_sp(state)
    to_pc = regs_popped[-1] == isa.PC  # pc, the highest register, is popped last
    for reg, value in zip(regs_popped[:-1] if to_pc else regs_popped, values):
        regs[reg] = value
    return _interwork_target(values[-1]) if to_pc else None


def _bx_lr(state: MachineState, arg: None) -> int:
    return _interwork_target(state.regs[isa.LR])


def _ldr_literal(state: MachineState, addr: int) -> None:
    state.regs[0] = state.read(addr, 4)


def _str_sp_rel(state: MachineState, arg: tuple[int, int]) -> None:
    rt, offset = arg
    state.write(state.regs[isa.SP] + offset, 4, state.regs[rt])


def _ldr_sp_rel(state: MachineState, arg: tuple[int, int]) -> None:
    rt, offset = arg
    state.regs[rt] = state.read(state.regs[isa.SP] + offset, 4)


def _move_sp(state: MachineState, delta: int) -> None:
    state.regs[isa.SP] = (state.regs[isa.SP] + delta) & MASK32
    _check_sp(state)


# Op kinds.  Register ops run inline in ``_execute`` (a ``_NOP`` matches
# none of its tests); ``_CALL`` and ``_JUMP`` ops, ``(kind, pc, handler,
# arg, index)``, run a handler, and a ``_JUMP`` handler branches.  ``index``
# is the op's place in its block.
_SET, _SUB, _ADD, _MOV, _CALL, _JUMP, _ADDI, _MOV_PC, _BL, _B, _NOP = range(11)
#: The kinds that branch, and so end a block.
_BRANCHES = frozenset((_BL, _B, _MOV_PC, _JUMP))


def _ldr_literal_op(state: MachineState, insn: isa.LdrLitR0, pc: int, index: int) -> tuple:
    addr = ((pc + 4) & ~3) + insn.offset
    if not state.in_flash(addr, 4):
        return (_CALL, pc, _ldr_literal, addr, index)
    return (_SET, 0, state.read(addr, 4))  # flash is read-only: a constant


def _push_op(state: MachineState, insn: isa.Push, pc: int, index: int) -> tuple:
    if insn.regs.is_empty or insn.regs.has_pc:
        return (_CALL, pc, _invalid, f"push {insn.regs}", index)
    return (_CALL, pc, _push, insn.regs.indices(), index)


def _pop_op(state: MachineState, insn: isa.Pop, pc: int, index: int) -> tuple:
    if insn.regs.is_empty:
        return (_CALL, pc, _invalid, "pop {}", index)
    return (_JUMP if insn.regs.has_pc else _CALL, pc, _pop, insn.regs.indices(), index)


#: The op builder of each executable instruction type:
#: ``(state, insn, pc, index) -> op``.  ``Unknown`` (and the emission-only
#: ``RawWord``) have none: fetching one faults UNDECODABLE.  The decoder
#: keeps ``mov`` operands within r0-r12, so a ``_MOV`` never reads pc.
OPS = {
    isa.MovImm: lambda state, insn, pc, index: (_SET, insn.rd, insn.imm),
    isa.MovReg: lambda state, insn, pc, index: (_MOV, insn.rd, insn.rm),
    isa.AddReg: lambda state, insn, pc, index: (_ADD, insn.rd, insn.rn, insn.rm),
    isa.SubReg: lambda state, insn, pc, index: (_SUB, insn.rd, insn.rn, insn.rm),
    isa.AddsImmR0: lambda state, insn, pc, index: (_ADDI, 0, insn.imm),
    isa.Nop: lambda state, insn, pc, index: (_NOP,),
    isa.LdrLitR0: _ldr_literal_op,
    isa.Bl: lambda state, insn, pc, index: (_BL, (pc + 4) | 1, insn.target & ~1),
    isa.BranchW: lambda state, insn, pc, index: (_B, insn.target & ~1),
    isa.MovPcR0: lambda state, insn, pc, index: (_MOV_PC,),
    isa.Push: _push_op,
    isa.Pop: _pop_op,
    isa.BxLr: lambda state, insn, pc, index: (_JUMP, pc, _bx_lr, None, index),
    isa.StrSpRel: lambda state, insn, pc, index: (
        _CALL, pc, _str_sp_rel, (insn.rt, insn.offset), index),
    isa.LdrSpRel: lambda state, insn, pc, index: (
        _CALL, pc, _ldr_sp_rel, (insn.rt, insn.offset), index),
    isa.AddSpImm: lambda state, insn, pc, index: (_CALL, pc, _move_sp, insn.imm, index),
    isa.SubSpImm: lambda state, insn, pc, index: (_CALL, pc, _move_sp, -insn.imm, index),
}


def _execute(state: MachineState, ops: tuple, end: int) -> None:
    """Run ``ops`` in order, then set pc to ``end`` or to the target of the
    branch that ends them, counting one step per op.  On a fault, pc is at
    the faulting instruction and ``step_count`` counts the ops before it."""
    regs = state.regs
    try:
        for op in ops:
            kind = op[0]
            if kind == _SET:
                regs[op[1]] = op[2]
            elif kind == _SUB:
                regs[op[1]] = (regs[op[2]] - regs[op[3]]) & MASK32
            elif kind == _ADD:
                regs[op[1]] = (regs[op[2]] + regs[op[3]]) & MASK32
            elif kind == _MOV:
                regs[op[1]] = regs[op[2]]
            elif kind == _CALL:
                regs[isa.PC] = op[1]
                op[2](state, op[3])
            elif kind == _JUMP:
                regs[isa.PC] = op[1]
                end = op[2](state, op[3])
            elif kind == _ADDI:
                regs[op[1]] = (regs[op[1]] + op[2]) & MASK32
            elif kind == _MOV_PC:
                # ALU writes to pc branch without interworking; bit 0 is dropped.
                end = regs[0] & ~1
            elif kind == _BL:
                regs[isa.LR] = op[1]
                end = op[2]
            elif kind == _B:
                end = op[1]
    except MachineFault:
        state.step_count += op[4]
        raise
    regs[isa.PC] = end & MASK32
    state.step_count += len(ops)


def step(state: MachineState) -> Instruction:
    """Execute one instruction, mutating ``state``; returns the instruction."""
    pc = state.regs[isa.PC]
    insn, length = _fetch(state, pc)
    build = OPS.get(type(insn))
    if build is None:
        raise MachineFault(FaultKind.UNDECODABLE, f"at 0x{pc:08x}: {insn.text()}")
    _execute(state, (build(state, insn, pc, 0),), pc + length)
    return insn


#: The block of a pc that is not code: step it.
_STEP = ((), 0)


def _compile(state: MachineState, pc: int, limit: int) -> tuple[tuple, int]:
    """The ops of the straight run of code from ``pc`` up to and including
    its first branch, and the address after the run.  The run stops early
    before an instruction that does not end by ``limit``, faults on fetch
    or has no op, and before ``SENTINEL``."""
    ops: list = []
    addr = pc
    while addr < limit:
        try:
            insn, length = _fetch(state, addr)
        except MachineFault:
            break
        build = OPS.get(type(insn))
        if build is None or addr + length > limit:
            break
        ops.append(build(state, insn, addr, len(ops)))
        addr += length
        if ops[-1][0] in _BRANCHES or addr == SENTINEL:
            break
    return tuple(ops), addr


def _block_at(state: MachineState, pc: int) -> tuple[tuple, int]:
    """The block at ``pc`` from the image's memos, compiled on a miss.  A
    table block ends by ``stack_limit``, so it never reads the stack, and
    is reused only while RAM holds the bytes it was compiled from.  Any
    other pc gets ``_STEP``."""
    if pc % 2:
        return _STEP
    if state.in_flash(pc, 2):
        block = state.flash_blocks[pc] = _compile(state, pc, state.flash_base + len(state.flash))
        return block
    if not state.table_base <= pc < state.stack_limit:
        return _STEP
    sram, lo = state.sram, pc - state.sram_base
    runs = state.table_blocks.get(pc, ())
    for i in range(0, len(runs), 2):
        if sram.startswith(runs[i], lo):
            return runs[i + 1], pc + len(runs[i])
    ops, end = _compile(state, pc, state.stack_limit)
    if ops:
        state.table_blocks[pc] = (*runs, bytes(sram[lo : end - state.sram_base]), ops)
    return ops, end


def _run(state: MachineState, budget: int, trace: list[TraceEvent] | None = None) -> None:
    """Run ``state`` until control reaches ``SENTINEL``, appending one event
    per step to ``trace`` when given.  Raises ``MachineFault`` on any fault,
    including exhausting the step budget.

    An untraced run executes a block at a time while the whole block fits
    the budget; it steps blocks that would overrun the budget, and
    instructions that fault on fetch or have no op."""
    regs = state.regs
    blocks = state.flash_blocks
    while (pc := regs[isa.PC]) != SENTINEL:
        if trace is None:
            ops, end = blocks.get(pc) or _block_at(state, pc)
            if ops and state.step_count + len(ops) <= budget:
                _execute(state, ops, end)
                continue
        if state.step_count >= budget:
            raise MachineFault(FaultKind.BUDGET, f"after {budget} steps")
        sp = regs[isa.SP]
        insn = step(state)
        if trace is not None:
            trace.append(TraceEvent(pc, insn, sp))


@dataclass
class CallResult:
    state: MachineState
    trace: list[TraceEvent]

    def trace_lines(self) -> list[str]:
        return [event.line() for event in self.trace]


def call(
    image,
    table=None,
    entry: int | None = None,
    regs: dict[int, int] | None = None,
    *,
    budget: int = DEFAULT_STEP_BUDGET,
    keep_trace: bool = True,
) -> CallResult:
    """Run a function at ``entry`` until it returns to ``SENTINEL``.

    The callee sees lr holding the sentinel (thumb bit set) and a small
    pre-seeded caller stack above sp.  The trace holds one event per step
    when ``keep_trace`` is set and is empty otherwise.  Raises
    ``MachineFault`` on any fault, including exhausting the step budget.
    """
    state = make_state(image, table, regs=regs)
    state.sp = state.stack_top - CALLER_STACK_BYTES
    state.sram[state.sp - state.sram_base : state.stack_top - state.sram_base] = _CALLER_STACK
    state.lr = SENTINEL | 1
    state.pc = (entry if entry is not None else image.base) & ~1
    trace: list[TraceEvent] = []
    _run(state, budget, trace if keep_trace else None)
    return CallResult(state, trace)


def check_gadget(image, table, start: int, stack_delta: int, pc_slot_index: int | None) -> bool:
    """Verify one gadget candidate by running it.

    The stack words the gadget will consume are seeded with filler values,
    the designated slot (or lr, for bx-lr gadgets) receives the sentinel,
    and the candidate passes when control reaches the sentinel with sp
    advanced by exactly ``stack_delta`` within ``GADGET_STEP_BUDGET`` steps.
    It fails when the seeded words do not fit the stack.
    """
    state = make_state(image, table)
    if not 0 <= stack_delta <= state.stack_top - state.stack_limit:
        return False
    words = stack_delta // 4
    state.sp = state.stack_top - stack_delta
    for i in range(words):
        value = (SENTINEL | 1) if i == pc_slot_index else (GADGET_FILLER + i)
        state.write(state.sp + 4 * i, 4, value)
    if pc_slot_index is None:
        state.lr = SENTINEL | 1
    sp0 = state.sp
    state.pc = start & ~1
    try:
        _run(state, GADGET_STEP_BUDGET)
    except MachineFault:
        return False
    return state.sp == sp0 + stack_delta


def states_equivalent(a: MachineState, b: MachineState) -> bool:
    """Caller-observable equivalence of two final states.

    Compares the callee-saved registers (r4-r11), sp, and the caller-visible
    stack bytes at and above sp.  pc, lr and the step count are excluded, as
    are the caller-saved registers r0-r3/r12 (dead across a return under the
    procedure-call standard; the table detour clobbers r0 by design) and the
    table region (only one of the two runs may have one installed).
    """
    if a.sp != b.sp:
        return False
    if any(a.regs[i] != b.regs[i] for i in isa.CALLEE_SAVED):
        return False
    if a.stack_top != b.stack_top or a.sram_base != b.sram_base:
        return False
    lo_a, hi_a = a.sp - a.sram_base, a.stack_top - a.sram_base
    lo_b, hi_b = b.sp - b.sram_base, b.stack_top - b.sram_base
    return a.sram[lo_a:hi_a] == b.sram[lo_b:hi_b]
