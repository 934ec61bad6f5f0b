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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

#: Bytes of pre-seeded caller stack left above the initial sp.
CALLER_STACK_BYTES = 64

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


def make_state(image, table=None, *, regs: dict[int, int] | None = None) -> MachineState:
    """Build a fresh state for ``image`` with ``table`` installed in RAM.

    The RAM map (``sram_base``, ``table_base``, ``stack_limit`` and
    ``stack_top``) comes from ``image``; ``table`` is installed via its
    ``install`` hook when given.
    """
    state = MachineState(
        regs=[0] * 16,
        flash_base=image.base,
        flash=bytes(image.data),
        sram_base=image.sram_base,
        sram=bytearray(SRAM_SIZE),
        table_base=image.table_base,
        stack_limit=image.stack_limit,
        stack_top=image.stack_top,
    )
    if table is not None:
        table.install(state)
    if regs:
        for idx, value in regs.items():
            state.regs[idx] = value & MASK32
    return state


def _fetch(state: MachineState) -> tuple[Instruction, int]:
    pc = state.pc
    if pc % 2:
        raise MachineFault(FaultKind.BAD_PC, f"misaligned pc 0x{pc:08x}")
    in_table = state.table_base <= pc < state.stack_limit
    if state.in_flash(pc, 2):
        data, off = state.flash, pc - state.flash_base
    elif in_table and state.in_sram(pc, 2):
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


def _branch_interwork(state: MachineState, value: int) -> None:
    if not value & 1:
        raise MachineFault(FaultKind.INTERWORK, f"target 0x{value:08x} lacks thumb bit")
    state.pc = value & ~1


def step(state: MachineState) -> Instruction:
    """Execute one instruction, mutating ``state``; returns the instruction."""
    insn, length = _fetch(state)
    pc = state.pc
    next_pc = pc + length

    if isinstance(insn, isa.Push):
        if insn.regs.is_empty or insn.regs.has_pc:
            raise MachineFault(FaultKind.INVALID, f"push {insn.regs}")
        count = len(insn.regs)
        state.sp = state.sp - 4 * count
        _check_sp(state)
        for i, reg in enumerate(insn.regs):
            state.write(state.sp + 4 * i, 4, state.regs[reg])
    elif isinstance(insn, isa.Pop):
        if insn.regs.is_empty:
            raise MachineFault(FaultKind.INVALID, "pop {}")
        values = [state.read(state.sp + 4 * i, 4) for i in range(len(insn.regs))]
        state.sp = state.sp + 4 * len(insn.regs)
        _check_sp(state)
        for reg, value in zip(insn.regs, values):
            if reg == isa.PC:
                _branch_interwork(state, value)
            else:
                state.regs[reg] = value
        if insn.regs.has_pc:
            next_pc = state.pc
    elif isinstance(insn, isa.BxLr):
        _branch_interwork(state, state.lr)
        next_pc = state.pc
    elif isinstance(insn, isa.LdrLitR0):
        state.regs[0] = state.read(((pc + 4) & ~3) + insn.offset, 4)
    elif isinstance(insn, isa.AddsImmR0):
        state.regs[0] = (state.regs[0] + insn.imm) & MASK32
    elif isinstance(insn, isa.MovPcR0):
        # ALU writes to pc branch without interworking; bit 0 is dropped.
        next_pc = state.regs[0] & ~1
    elif isinstance(insn, isa.Bl):
        state.lr = (pc + 4) | 1
        next_pc = insn.target & ~1
    elif isinstance(insn, isa.BranchW):
        next_pc = insn.target & ~1
    elif isinstance(insn, isa.MovImm):
        state.regs[insn.rd] = insn.imm
    elif isinstance(insn, isa.MovReg):
        state.regs[insn.rd] = state.regs[insn.rm]
    elif isinstance(insn, isa.AddReg):
        state.regs[insn.rd] = (state.regs[insn.rn] + state.regs[insn.rm]) & MASK32
    elif isinstance(insn, isa.SubReg):
        state.regs[insn.rd] = (state.regs[insn.rn] - state.regs[insn.rm]) & MASK32
    elif isinstance(insn, isa.StrSpRel):
        state.write(state.sp + insn.offset, 4, state.regs[insn.rt])
    elif isinstance(insn, isa.LdrSpRel):
        state.regs[insn.rt] = state.read(state.sp + insn.offset, 4)
    elif isinstance(insn, isa.AddSpImm):
        state.sp = state.sp + insn.imm
        _check_sp(state)
    elif isinstance(insn, isa.SubSpImm):
        state.sp = state.sp - insn.imm
        _check_sp(state)
    elif isinstance(insn, isa.Nop):
        pass
    else:  # Unknown / RawWord
        raise MachineFault(FaultKind.UNDECODABLE, f"at 0x{pc:08x}: {insn.text()}")

    state.pc = next_pc
    state.step_count += 1
    return insn


def _run(state: MachineState, budget: int, trace: list[TraceEvent] | None = None) -> None:
    """Step ``state`` until control reaches ``SENTINEL``, appending one event
    per step to ``trace`` when given.  Raises ``MachineFault`` on any fault,
    including exhausting the step budget."""
    while state.pc != SENTINEL:
        if state.step_count >= budget:
            raise MachineFault(FaultKind.BUDGET, f"after {budget} steps")
        if trace is None:
            step(state)
        else:
            pc, sp = state.pc, state.sp
            trace.append(TraceEvent(pc, step(state), sp))


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
    for i in range(CALLER_STACK_BYTES // 4):
        state.write(state.sp + 4 * i, 4, 0xCA000000 + i)
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
    """
    state = make_state(image, table)
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
