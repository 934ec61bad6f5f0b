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

Flash is read-only, so each flash address is decoded once, into the image's
``decoded`` map, and reused by every state of that image.  The table region
is RAM: it is decoded from the state's current bytes on every fetch.
"""

from __future__ import annotations

import enum
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
    #: ``pc -> (instruction, length)`` for fetched flash addresses; shared
    #: with every state of the same image.
    flash_decoded: dict = field(default_factory=dict, repr=False)

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
        flash_decoded=image.decoded,
    )
    if table is not None:
        table.install(state)
    if regs:
        for idx, value in regs.items():
            state.regs[idx] = value & MASK32
    return state


def _fetch(state: MachineState, pc: int) -> tuple[Instruction, int]:
    hit = state.flash_decoded.get(pc)
    if hit is not None:
        return hit
    if pc % 2:
        raise MachineFault(FaultKind.BAD_PC, f"misaligned pc 0x{pc:08x}")
    in_flash = state.in_flash(pc, 2)
    if in_flash:
        data, off = state.flash, pc - state.flash_base
    elif state.table_base <= pc < state.stack_limit and state.in_sram(pc, 2):
        data, off = state.sram, pc - state.sram_base
    else:
        raise MachineFault(FaultKind.BAD_PC, f"pc 0x{pc:08x} not executable")
    try:
        decoded = decode(data, off, pc)
    except isa.TruncatedStreamError as exc:
        raise MachineFault(FaultKind.UNDECODABLE, str(exc)) from exc
    if in_flash:
        state.flash_decoded[pc] = decoded
    return decoded


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


# Instruction handlers: each executes one instruction fetched at ``pc`` and
# returns the next pc (``next_pc`` unless the instruction branches).


def _push(state: MachineState, insn: isa.Push, pc: int, next_pc: int) -> int:
    if insn.regs.is_empty or insn.regs.has_pc:
        raise MachineFault(FaultKind.INVALID, f"push {insn.regs}")
    regs = insn.regs.indices()
    state.sp = state.sp - 4 * len(regs)
    _check_sp(state)
    for i, reg in enumerate(regs):
        state.write(state.sp + 4 * i, 4, state.regs[reg])
    return next_pc


def _pop(state: MachineState, insn: isa.Pop, pc: int, next_pc: int) -> int:
    if insn.regs.is_empty:
        raise MachineFault(FaultKind.INVALID, "pop {}")
    regs = insn.regs.indices()
    values = [state.read(state.sp + 4 * i, 4) for i in range(len(regs))]
    state.sp = state.sp + 4 * len(regs)
    _check_sp(state)
    for reg, value in zip(regs, values):
        if reg == isa.PC:
            next_pc = _interwork_target(value)
        else:
            state.regs[reg] = value
    return next_pc


def _bx_lr(state: MachineState, insn: isa.BxLr, pc: int, next_pc: int) -> int:
    return _interwork_target(state.lr)


def _ldr_lit_r0(state: MachineState, insn: isa.LdrLitR0, pc: int, next_pc: int) -> int:
    state.regs[0] = state.read(((pc + 4) & ~3) + insn.offset, 4)
    return next_pc


def _adds_imm_r0(state: MachineState, insn: isa.AddsImmR0, pc: int, next_pc: int) -> int:
    state.regs[0] = (state.regs[0] + insn.imm) & MASK32
    return next_pc


def _mov_pc_r0(state: MachineState, insn: isa.MovPcR0, pc: int, next_pc: int) -> int:
    # ALU writes to pc branch without interworking; bit 0 is dropped.
    return state.regs[0] & ~1


def _bl(state: MachineState, insn: isa.Bl, pc: int, next_pc: int) -> int:
    state.lr = (pc + 4) | 1
    return insn.target & ~1


def _branch_w(state: MachineState, insn: isa.BranchW, pc: int, next_pc: int) -> int:
    return insn.target & ~1


def _mov_imm(state: MachineState, insn: isa.MovImm, pc: int, next_pc: int) -> int:
    state.regs[insn.rd] = insn.imm
    return next_pc


def _mov_reg(state: MachineState, insn: isa.MovReg, pc: int, next_pc: int) -> int:
    state.regs[insn.rd] = state.regs[insn.rm]
    return next_pc


def _add_reg(state: MachineState, insn: isa.AddReg, pc: int, next_pc: int) -> int:
    state.regs[insn.rd] = (state.regs[insn.rn] + state.regs[insn.rm]) & MASK32
    return next_pc


def _sub_reg(state: MachineState, insn: isa.SubReg, pc: int, next_pc: int) -> int:
    state.regs[insn.rd] = (state.regs[insn.rn] - state.regs[insn.rm]) & MASK32
    return next_pc


def _str_sp_rel(state: MachineState, insn: isa.StrSpRel, pc: int, next_pc: int) -> int:
    state.write(state.sp + insn.offset, 4, state.regs[insn.rt])
    return next_pc


def _ldr_sp_rel(state: MachineState, insn: isa.LdrSpRel, pc: int, next_pc: int) -> int:
    state.regs[insn.rt] = state.read(state.sp + insn.offset, 4)
    return next_pc


def _add_sp_imm(state: MachineState, insn: isa.AddSpImm, pc: int, next_pc: int) -> int:
    state.sp = state.sp + insn.imm
    _check_sp(state)
    return next_pc


def _sub_sp_imm(state: MachineState, insn: isa.SubSpImm, pc: int, next_pc: int) -> int:
    state.sp = state.sp - insn.imm
    _check_sp(state)
    return next_pc


def _nop(state: MachineState, insn: isa.Nop, pc: int, next_pc: int) -> int:
    return next_pc


#: The handler of each executable instruction type.  ``Unknown`` (and the
#: emission-only ``RawWord``) have none: fetching one faults UNDECODABLE.
HANDLERS = {
    isa.Push: _push,
    isa.Pop: _pop,
    isa.BxLr: _bx_lr,
    isa.LdrLitR0: _ldr_lit_r0,
    isa.AddsImmR0: _adds_imm_r0,
    isa.MovPcR0: _mov_pc_r0,
    isa.Bl: _bl,
    isa.BranchW: _branch_w,
    isa.MovImm: _mov_imm,
    isa.MovReg: _mov_reg,
    isa.AddReg: _add_reg,
    isa.SubReg: _sub_reg,
    isa.StrSpRel: _str_sp_rel,
    isa.LdrSpRel: _ldr_sp_rel,
    isa.AddSpImm: _add_sp_imm,
    isa.SubSpImm: _sub_sp_imm,
    isa.Nop: _nop,
}


def step(state: MachineState) -> Instruction:
    """Execute one instruction, mutating ``state``; returns the instruction."""
    pc = state.regs[isa.PC]
    insn, length = _fetch(state, pc)
    handler = HANDLERS.get(type(insn))
    if handler is None:
        raise MachineFault(FaultKind.UNDECODABLE, f"at 0x{pc:08x}: {insn.text()}")
    state.regs[isa.PC] = handler(state, insn, pc, pc + length) & MASK32
    state.step_count += 1
    return insn


def _run(state: MachineState, budget: int, trace: list[TraceEvent] | None = None) -> None:
    """Step ``state`` until control reaches ``SENTINEL``, appending one event
    per step to ``trace`` when given.  Raises ``MachineFault`` on any fault,
    including exhausting the step budget."""
    regs = state.regs
    while regs[isa.PC] != SENTINEL:
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
