"""A slow reference interpreter for checking ``retobf.machine``'s fast path.

It decodes every fetch afresh from the state's bytes, dispatches through an
``isinstance`` chain, installs a table entry by entry and seeds the caller
stack word by word, as the interpreter did before it kept a flash decode
map, a per-table RAM image, flash blocks and an op table.  ``reference_run``
drives it exactly like ``machine.call``, but returns the final state and the
fault kind instead of raising, so faulting runs can be compared too;
``reference_check_gadget`` drives it like ``machine.check_gadget``.
"""

from retobf import isa
from retobf.image import SRAM_SIZE
from retobf.isa import decode
from retobf.machine import (
    CALLER_STACK_BYTES,
    GADGET_FILLER,
    GADGET_STEP_BUDGET,
    MASK32,
    SENTINEL,
    FaultKind,
    MachineFault,
    MachineState,
)


def reference_state(image, table=None, regs=None) -> MachineState:
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
        for entry in table.entries:
            lo = table.base - state.sram_base + entry.offset
            state.sram[lo : lo + len(entry.data)] = entry.data
    for idx, value in (regs or {}).items():
        state.regs[idx] = value & MASK32
    return state


def reference_fetch(state: MachineState):
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


def reference_step(state: MachineState):
    insn, length = reference_fetch(state)
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


def _reference_loop(state: MachineState, budget: int):
    """Step until pc reaches ``SENTINEL``; returns the fault kind or None."""
    try:
        while state.pc != SENTINEL:
            if state.step_count >= budget:
                raise MachineFault(FaultKind.BUDGET, f"after {budget} steps")
            reference_step(state)
    except MachineFault as exc:
        return exc.kind
    return None


def reference_run(image, table, entry: int, regs: dict[int, int], budget: int):
    """Run like ``machine.call``; returns (final state, fault kind or None)."""
    state = reference_state(image, table, regs)
    state.sp = state.stack_top - CALLER_STACK_BYTES
    for i in range(CALLER_STACK_BYTES // 4):
        state.write(state.sp + 4 * i, 4, 0xCA000000 + i)
    state.lr = SENTINEL | 1
    state.pc = entry & ~1
    return state, _reference_loop(state, budget)


def reference_check_gadget(image, table, start: int, stack_delta: int,
                           pc_slot_index: int | None):
    """Run like ``machine.check_gadget``; returns (final state, passed)."""
    state = reference_state(image, table)
    if not 0 <= stack_delta <= state.stack_top - state.stack_limit:
        return state, False
    state.sp = state.stack_top - stack_delta
    for i in range(stack_delta // 4):
        value = (SENTINEL | 1) if i == pc_slot_index else (GADGET_FILLER + i)
        state.write(state.sp + 4 * i, 4, value)
    if pc_slot_index is None:
        state.lr = SENTINEL | 1
    sp0 = state.sp
    state.pc = start & ~1
    fault = _reference_loop(state, GADGET_STEP_BUDGET)
    return state, fault is None and state.sp == sp0 + stack_delta
