"""Interpreter tests: stack semantics, faults, determinism, equivalence,
and the fast path (flash decode map, per-table RAM image, handler table)
against a reference stepper."""

import pytest
from conftest import KEY, crafted_images
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_machine import reference_run

from retobf import isa, machine
from retobf.harden import build_rotated_table
from retobf.image import STACK_RESERVE, FirmwareImage
from retobf.isa import (
    AddSpImm,
    Bl,
    BxLr,
    MovImm,
    Nop,
    Pop,
    Push,
    RegisterList,
    encode,
)
from retobf.machine import (
    CALLER_STACK_BYTES,
    GADGET_STEP_BUDGET,
    FaultKind,
    MachineFault,
    call,
    check_gadget,
    make_state,
    states_equivalent,
    step,
)
from retobf.obfuscation import (
    ObfuscationError,
    RamTable,
    RawSighting,
    build_table,
    entry_bytes_for,
    scan_trampolines,
)

R = RegisterList.of


def asm(*insns, base=0x40000):
    """Assemble a flat instruction sequence into an image."""
    out = bytearray()
    for insn in insns:
        out += encode(insn, address=base + len(out))
    return FirmwareImage(base, bytes(out))


def test_pop_stack_order_and_pc():
    # Stack [A, B, C, D] ascending: r4=A, r6=B, r7=C, pc=D, sp advances 16.
    img = asm(Pop(R("r4", "r6", "r7", "pc")))
    state = make_state(img)
    state.sp = state.stack_top - 16
    values = [0x11111110, 0x22222220, 0x33333330, 0x000E0001]
    for i, v in enumerate(values):
        state.write(state.sp + 4 * i, 4, v)
    state.pc = img.base
    sp_before = state.sp
    step(state)
    assert state.regs[4] == 0x11111110
    assert state.regs[6] == 0x22222220
    assert state.regs[7] == 0x33333330
    assert state.pc == 0x000E0000
    assert state.sp == sp_before + 16


def test_push_lowest_register_at_lowest_address():
    img = asm(Push(R("r4", "r6", "r7", "lr")))
    state = make_state(img)
    state.sp = state.stack_top
    state.regs[4], state.regs[6], state.regs[7] = 0xA4, 0xA6, 0xA7
    state.lr = 0xEE
    state.pc = img.base
    step(state)
    assert state.sp == state.stack_top - 16
    assert [state.read(state.sp + 4 * i, 4) for i in range(4)] == [0xA4, 0xA6, 0xA7, 0xEE]


def test_bl_sets_thumb_return_address():
    img = asm(Bl(0x40010), Nop(), Nop(), Nop(), Nop(), Nop(), Nop(), BxLr())
    state = make_state(img)
    state.sp = state.stack_top
    state.pc = img.base
    step(state)
    assert state.lr == img.base + 5  # return address with thumb bit
    assert state.pc == 0x40010


def test_empty_push_faults():
    state = make_state(FirmwareImage(0x40000, b"\x00\xb4"))  # push {} encoding
    state.sp = state.stack_top
    state.pc = 0x40000
    with pytest.raises(MachineFault) as err:
        step(state)
    assert err.value.kind == FaultKind.UNDECODABLE  # decoder rejects it first


def test_call_identity_function_balances_stack():
    img = asm(Push(R("r4", "lr")), MovImm(0, 5), Pop(R("r4", "pc")))
    result = call(img, entry=img.base)
    assert result.state.sp == result.state.stack_top - CALLER_STACK_BYTES
    assert result.state.regs[0] == 5
    assert [e.insn.text() for e in result.trace] == [
        "push {r4, lr}",
        "movs r0, #5",
        "pop {r4, pc}",
    ]


def test_trace_line_format():
    img = asm(Nop(), BxLr())
    result = call(img, entry=img.base)
    assert result.trace_lines()[0] == f"step pc=0x{img.base:08x} sp=0x{result.trace[0].sp_before:08x} nop"


def test_untraced_call_ends_in_the_traced_state():
    img = asm(Push(R("r4", "lr")), MovImm(4, 7), AddSpImm(0), Pop(R("r4", "pc")))
    traced = call(img, entry=img.base, regs={4: 0xAA})
    untraced = call(img, entry=img.base, regs={4: 0xAA}, keep_trace=False)
    assert untraced.trace == []
    assert len(traced.trace) == traced.state.step_count == untraced.state.step_count == 4
    assert untraced.state.regs == traced.state.regs
    assert untraced.state.sram == traced.state.sram


def test_check_gadget_fails_when_the_budget_runs_out():
    """A ``bx lr`` gadget behind nops passes while it returns within the
    gadget budget and fails once the nops alone use it up."""
    fits = asm(*[Nop()] * (GADGET_STEP_BUDGET - 1), BxLr())
    too_long = asm(*[Nop()] * GADGET_STEP_BUDGET, BxLr())
    assert check_gadget(fits, None, fits.base, 0, None)
    assert not check_gadget(too_long, None, too_long.base, 0, None)


def test_step_budget_fault():
    # An infinite loop: b.w to itself.
    img = asm(isa.BranchW(0x40000))
    with pytest.raises(MachineFault) as err:
        call(img, entry=img.base, budget=50)
    assert err.value.kind == FaultKind.BUDGET


def test_fault_kinds():
    img = asm(Nop(), Nop())
    # Undecodable pc target.
    state = make_state(FirmwareImage(0x40000, b"\xff\xde"))
    state.sp = state.stack_top
    state.pc = 0x40000
    with pytest.raises(MachineFault) as err:
        step(state)
    assert err.value.kind == FaultKind.UNDECODABLE
    # pc outside executable regions.
    state = make_state(img)
    state.pc = img.stack_limit  # stack area: not executable
    with pytest.raises(MachineFault) as err:
        step(state)
    assert err.value.kind == FaultKind.BAD_PC
    # sp leaving the stack region.
    state = make_state(asm(AddSpImm(64)))
    state.sp = state.stack_top
    state.pc = 0x40000
    with pytest.raises(MachineFault) as err:
        step(state)
    assert err.value.kind == FaultKind.STACK
    # Write to flash faults.
    state = make_state(img)
    with pytest.raises(MachineFault) as err:
        state.write(img.base, 4, 1)
    assert err.value.kind == FaultKind.MEMORY
    # Interworking branch to an even lr faults.
    state = make_state(asm(BxLr()))
    state.sp = state.stack_top
    state.pc = 0x40000
    state.lr = 0x40000
    with pytest.raises(MachineFault) as err:
        step(state)
    assert err.value.kind == FaultKind.INTERWORK


def test_execution_from_table_region():
    img = asm(Nop())
    state = make_state(img)
    state.sram[0:2] = encode(BxLr())
    state.sp = state.stack_top
    state.lr = 0x000E0001
    state.pc = img.table_base
    step(state)
    assert state.pc == 0x000E0000


def test_stack_reserve_does_not_move_with_the_table_base():
    """The stack is the top ``STACK_RESERVE`` bytes of RAM and the table
    region runs from the table base up to it, wherever the base sits."""
    code = asm(Push(R("r4", "lr")), MovImm(4, 1), Pop(R("r4", "pc")))
    img = FirmwareImage(code.base, code.data, table_base=code.sram_base + 0x6000)
    state = call(img).state
    assert state.stack_limit == state.stack_top - STACK_RESERVE
    assert state.sp == state.stack_top - CALLER_STACK_BYTES


def test_determinism():
    img = asm(Push(R("r4", "lr")), MovImm(2, 9), Pop(R("r4", "pc")))
    a = call(img, entry=img.base, regs={4: 0xAA})
    b = call(img, entry=img.base, regs={4: 0xAA})
    assert a.trace_lines() == b.trace_lines()
    assert states_equivalent(a.state, b.state)


def test_states_equivalent_rules():
    img = asm(Nop(), BxLr())
    a = call(img, entry=img.base).state
    b = call(img, entry=img.base).state
    assert states_equivalent(a, a)
    b.step_count += 10
    assert states_equivalent(a, b)  # step_count excluded
    b.regs[2] = 0xDEAD
    assert states_equivalent(a, b)  # caller-saved excluded
    b.regs[4] = 0xDEAD
    assert not states_equivalent(a, b)
    b.regs[4] = a.regs[4]
    b.sp -= 4
    assert not states_equivalent(a, b)


@given(
    mask=st.integers(1, (1 << 12) - 1),
    values=st.lists(st.integers(0, 0xFFFFFFFF), min_size=13, max_size=13),
)
@settings(max_examples=120, deadline=None)
def test_push_pop_duality(mask, values):
    regs = RegisterList(mask)
    img = asm(Push(regs), Pop(regs), BxLr())
    init = {i: values[i] for i in range(13)}
    result = call(img, entry=img.base, regs=init)
    state = result.state
    for i in range(13):
        assert state.regs[i] == values[i]
    assert state.sp == state.stack_top - CALLER_STACK_BYTES


# -- table install bound -----------------------------------------------------


def _table_at(base: int, *insns) -> RamTable:
    """A hand-built table at ``base`` with one entry at offset 0."""
    table = RamTable(base, 0x100)
    sighting = RawSighting(core=0x40000, adds_imm=0, literal_value=base)
    table.add(entry_bytes_for(list(insns), sighting, base))
    return table


def test_install_refuses_a_table_below_ram():
    img = asm(Nop())
    table = _table_at(img.sram_base - 16, BxLr(), BxLr())
    with pytest.raises(MachineFault) as err:
        make_state(img, table)
    assert err.value.kind == FaultKind.MEMORY


def test_install_refuses_a_table_crossing_the_stack_limit():
    img = asm(Nop())
    with pytest.raises(MachineFault) as err:
        make_state(img, _table_at(img.stack_limit - 2, BxLr(), BxLr()))
    assert err.value.kind == FaultKind.MEMORY
    state = make_state(img, _table_at(img.stack_limit - 4, BxLr(), BxLr()))
    assert state.sram[-STACK_RESERVE - 4 : -STACK_RESERVE] == encode(BxLr()) * 2


# -- fast path against the reference stepper ---------------------------------


def _fast_run(image, table, entry, regs, budget):
    """``call`` returning (final state, fault kind or None): the state is
    caught from ``make_state``, as a tracer would."""
    states = []

    def spy(*args, **kwargs):
        states.append(real(*args, **kwargs))
        return states[-1]

    real, machine.make_state = machine.make_state, spy
    try:
        call(image, table, entry, regs, budget=budget, keep_trace=False)
    except MachineFault as exc:
        return states[0], exc.kind
    finally:
        machine.make_state = real
    return states[0], None


def _assert_same_as_reference(image, table, entry, regs, budget):
    fast, fast_fault = _fast_run(image, table, entry, regs, budget)
    ref, ref_fault = reference_run(image, table, entry, regs, budget)
    assert fast_fault == ref_fault
    assert fast.step_count == ref.step_count
    assert fast.regs == ref.regs
    assert fast.sram == ref.sram
    return fast_fault


def _assert_trace_decodes(image, result):
    """Every traced instruction is what the flash or the current SRAM holds
    at its pc (a run never writes the table region, so the final RAM is the
    RAM each table fetch saw)."""
    state = result.state
    for event in result.trace:
        if state.in_flash(event.pc, 2):
            want = isa.decode(image.data, event.pc - image.base, event.pc)
        else:
            assert state.table_base <= event.pc < state.stack_limit
            want = isa.decode(state.sram, event.pc - state.sram_base, event.pc)
        assert event.insn == want[0]


_REGS = st.lists(st.integers(0, 0xFFFFFFFF), min_size=13, max_size=13).map(
    lambda values: dict(enumerate(values))
)


@given(image=crafted_images(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_fast_path_matches_reference_on_crafted_images(image, data):
    try:
        table = build_table(image, KEY)
    except ObfuscationError:
        table = None
    cores = [s.core for s in scan_trampolines(image.data, image.base)]
    offsets = st.integers(0, len(image.data) // 2 - 1).map(lambda i: image.base + 2 * i)
    entry = data.draw(st.sampled_from(cores) if cores and data.draw(st.booleans())
                      else offsets)
    regs = data.draw(_REGS)
    for _ in range(2):  # the second run reads the decode map the first filled
        fault = _assert_same_as_reference(image, table, entry, regs, budget=300)
    if fault is None:
        _assert_trace_decodes(image, call(image, table, entry, regs, budget=300))


@given(index=st.integers(0, 23), seed=st.integers(0, 7), regs=_REGS)
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_reference_on_a_corpus(corpus, obfuscated, hardened,
                                                 index, seed, regs):
    runs = [
        (corpus[0], None, corpus[1]),
        (obfuscated[0], build_table(obfuscated[0], KEY), obfuscated[1]),
        (hardened[0], build_rotated_table(hardened[0], hardened[1], KEY, seed), hardened[1]),
    ]
    for image, table, manifest in runs:
        entry = manifest.functions[index].start
        assert _assert_same_as_reference(image, table, entry, regs, budget=10_000) is None
        _assert_trace_decodes(image, call(image, table, entry, regs))


def test_each_table_runs_its_own_bytes(hardened):
    """One image run under two rotated tables, in turn, executes each
    table's entries: no decode of one table is reused under the other."""
    image, manifest, _ = hardened
    tables = [build_rotated_table(image, manifest, KEY, seed) for seed in (0, 1)]
    differs = [
        i for i, (a, b) in enumerate(zip(tables[0].draws, tables[1].draws))
        if a["slots"] and a["position"] != b["position"]
    ]
    assert differs
    entry = manifest.functions[differs[0]].start
    traces = []
    for table in (*tables, tables[0]):
        result = call(image, table, entry)
        _assert_trace_decodes(image, result)
        assert _assert_same_as_reference(image, table, entry, {}, budget=10_000) is None
        traces.append(result.trace_lines())
    assert traces[0] != traces[1] and traces[0] == traces[2]


@given(edits=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 255)), min_size=1))
@settings(max_examples=60, deadline=None)
def test_image_keeps_its_bytes_when_the_source_buffer_changes(edits):
    """Editing the buffer an image was built from, before its first run or
    after one filled its decode map, changes nothing the image runs."""
    code = asm(Push(R("r4", "lr")), MovImm(4, 3), Nop(), Pop(R("r4", "pc")))
    want = call(code, regs={4: 9})
    buffers = [bytearray(code.data), bytearray(code.data)]
    images = [FirmwareImage(code.base, buffer) for buffer in buffers]
    call(images[1], regs={4: 9})
    for buffer in buffers:
        for off, value in edits:
            buffer[off] = value
    for img in images:
        got = call(img, regs={4: 9})
        assert isinstance(img.data, bytes) and img.data == code.data
        assert got.trace_lines() == want.trace_lines()
        assert got.state.regs == want.state.regs
