"""Interpreter tests: stack semantics, faults, determinism, equivalence,
and the fast path (flash and table blocks, per-table RAM image, op table) against a
reference stepper."""

import dataclasses
import gc
import types

import pytest
from conftest import KEY, crafted_images, entry_bytes_for
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_machine import reference_check_gadget, reference_run, reference_step

from retobf import isa, machine
from retobf.attack import run_attack
from retobf.harden import build_rotated_table
from retobf.image import DEFAULT_BASE, DEFAULT_SRAM_BASE, STACK_RESERVE, FirmwareImage
from retobf.isa import (
    AddReg,
    AddSpImm,
    Bl,
    BxLr,
    LdrLitR0,
    LdrSpRel,
    MovImm,
    MovReg,
    Nop,
    Pop,
    Push,
    RegisterList,
    StrSpRel,
    SubSpImm,
    encode,
)
from retobf.machine import (
    CALLER_STACK_BYTES,
    GADGET_STEP_BUDGET,
    SENTINEL,
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
    TableEntry,
    build_table,
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


def _caught(run, *args, **kwargs):
    """``run(*args, **kwargs)`` returning (final state, fault kind or None,
    result): the state is caught from ``make_state``, as a tracer would."""
    states = []

    def spy(*args, **kwargs):
        states.append(real(*args, **kwargs))
        return states[-1]

    real, machine.make_state = machine.make_state, spy
    try:
        result = run(*args, **kwargs)
    except MachineFault as exc:
        return states[0], exc.kind, None
    finally:
        machine.make_state = real
    return states[0], None, result


def _fast_run(image, table, entry, regs, budget):
    """``call`` returning (final state, fault kind or None)."""
    state, fault, _ = _caught(call, image, table, entry, regs, budget=budget, keep_trace=False)
    return state, fault


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
    differs = [a["fn"] for a, b in zip(tables[0].draws, tables[1].draws)
               if a["position"] != b["position"]]
    assert differs
    entry = next(fn.start for fn in manifest.functions if fn.name == differs[0])
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
    after one filled its block memo, changes nothing the image runs."""
    code = asm(Push(R("r4", "lr")), MovImm(4, 3), Nop(), Pop(R("r4", "pc")))
    want = call(code, regs={4: 9})
    buffers = [bytearray(code.data), bytearray(code.data)]
    images = [FirmwareImage(code.base, buffer) for buffer in buffers]
    call(images[1], regs={4: 9}, keep_trace=False)
    for buffer in buffers:
        for off, value in edits:
            buffer[off] = value
    for img in images:
        got = call(img, regs={4: 9})
        assert isinstance(img.data, bytes) and img.data == code.data
        assert got.trace_lines() == want.trace_lines()
        assert got.state.regs == want.state.regs
        assert call(img, regs={4: 9}, keep_trace=False).state.regs == want.state.regs


def _instructions_in(obj) -> set[int]:
    """Ids of the instruction objects reachable from ``obj`` through its
    containers and instances; functions, modules and types end the walk."""
    opaque = (type, types.FunctionType, types.BuiltinFunctionType, types.ModuleType)
    seen, found, pending = set(), set(), [obj]
    while pending:
        item = pending.pop()
        if id(item) in seen or isinstance(item, opaque):
            continue
        seen.add(id(item))
        if isinstance(item, isa.Instruction):
            found.add(id(item))
        pending.extend(gc.get_referents(item))
    return found


def test_an_untraced_call_compiles_blocks_but_keeps_no_instructions(hardened):
    """Untraced calls of every function fill the image's block memo with ops
    and add no instruction object to any of its memos."""
    himg, hman, _ = hardened
    image = FirmwareImage(himg.base, himg.data, himg.sram_base, himg.table_base)
    table = build_rotated_table(image, hman, KEY, 3)
    memos = [f.name for f in dataclasses.fields(image) if not f.init]
    before = {name: _instructions_in(getattr(image, name)) for name in memos}
    for fn in hman.functions:
        call(image, table, entry=fn.start, keep_trace=False)
    assert image.blocks and before["blocks"] == set()
    assert {name: _instructions_in(getattr(image, name)) for name in memos} == before


def _steps_to_finish(image, table, entry, regs) -> int:
    state, _ = reference_run(image, table, entry, regs, budget=10_000)
    return state.step_count


def _assert_same_at_every_budget(image, table, entry, regs):
    """Budgets from 0 to one past the reference run's length cut the run
    before, inside and after every block; a large one lets every block run
    whole."""
    for budget in [*range(_steps_to_finish(image, table, entry, regs) + 2), 10_000]:
        _assert_same_as_reference(image, table, entry, regs, budget)


@pytest.mark.parametrize("which", ["plain", "obfuscated", "hardened"])
def test_every_budget_matches_reference(corpus, obfuscated, hardened, which):
    image, table, manifest = {
        "plain": lambda: (corpus[0], None, corpus[1]),
        "obfuscated": lambda: (obfuscated[0], build_table(obfuscated[0], KEY), obfuscated[1]),
        "hardened": lambda: (hardened[0], build_rotated_table(hardened[0], hardened[1], KEY, 3),
                             hardened[1]),
    }[which]()
    regs = {i: 0x01010101 * (i + 1) for i in range(13)}
    for fn in manifest.functions[::5]:
        _assert_same_at_every_budget(image, table, fn.start, regs)


R07 = R(*range(8))
#: ``sub sp`` steps from the caller's sp down to exactly ``stack_limit``.
_DOWN_TO_STACK_LIMIT = [SubSpImm(508)] * 32 + [
    SubSpImm(STACK_RESERVE - CALLER_STACK_BYTES - 32 * 508)]

#: Straight runs that fault part-way, or end otherwise than by a branch,
#: and the fault each ends in.
MID_BLOCK = {
    "str past RAM": (
        [MovImm(0, 5), MovImm(1, 7), StrSpRel(0, 1020), MovImm(2, 1), BxLr()], FaultKind.MEMORY),
    "ldr past RAM": (
        [MovImm(0, 5), AddReg(1, 0, 0), LdrSpRel(3, 1020), BxLr()], FaultKind.MEMORY),
    "push below the stack limit": (
        [MovImm(4, 9), *_DOWN_TO_STACK_LIMIT, Push(R("r4", "lr")), BxLr()], FaultKind.STACK),
    "pop {pc} of an even word": (
        [MovImm(4, 2), Push(R("r4")), Nop(), Pop(R("pc")), BxLr()], FaultKind.INTERWORK),
    "pop {r5, r6, pc} of an even word": (
        [MovImm(0, 3), MovImm(1, 4), MovImm(2, 6), Push(R("r0", "r1", "r2")),
         Pop(R("r5", "r6", "pc"))], FaultKind.INTERWORK),
    "pop past the stack top": (
        [Pop(R07), Pop(R07), MovImm(0, 1), Pop(R("r0")), BxLr()], FaultKind.MEMORY),
    "literal past the flash end": (
        [MovImm(1, 3), MovReg(9, 1), LdrLitR0(1020), BxLr()], FaultKind.MEMORY),
    "falls off the flash end": ([MovImm(1, 3), Nop(), Nop()], FaultKind.BAD_PC),
    "runs into an unknown halfword": (
        [MovImm(1, 3), Nop(), isa.Unknown(0xDEFF)], FaultKind.UNDECODABLE),
    "runs into a truncated wide prefix": (
        [MovImm(1, 3), Nop(), isa.Unknown(0xF000)], FaultKind.UNDECODABLE),
    "pushes and pops a full frame": (
        [Push(R(*range(13), "lr")), MovImm(4, 1), Pop(R(*range(13), "pc"))], None),
}


@pytest.mark.parametrize("name", MID_BLOCK)
def test_fast_path_matches_reference_on_mid_block_faults(name):
    insns, want = MID_BLOCK[name]
    image = asm(*insns)
    regs = {i: 0x10 * i + 1 for i in range(13)}
    for _ in range(2):  # cold, then with the image's memos filled
        _assert_same_at_every_budget(image, None, image.base, regs)
    assert _assert_same_as_reference(image, None, image.base, regs, budget=10_000) == want


def test_a_straight_run_stops_at_the_sentinel():
    """Flash that runs on through ``SENTINEL`` ends the call there, as the
    stepper does, and not at the block's end."""
    base = SENTINEL - 8
    image = FirmwareImage(base, b"".join(encode(Nop()) for _ in range(8)))
    _assert_same_at_every_budget(image, None, base, {})
    assert call(image, entry=base).state.step_count == 4


@pytest.mark.parametrize("insn,sp_above_top,want", [
    (Push(R("r4", "r5", "r6")), 4, FaultKind.MEMORY),  # writes the words that fit
    (Pop(R("r4", "r5", "pc")), -CALLER_STACK_BYTES - 2, FaultKind.STACK),  # misaligned sp
], ids=["push past RAM", "pop from a misaligned sp"])
def test_step_matches_reference_from_a_hand_set_sp(insn, sp_above_top, want):
    """A run keeps sp inside the stack; ``step`` from an sp set by hand
    faults as the reference stepper does, with the same partial effects."""
    img = asm(insn)
    states = []
    for run in (step, reference_step):
        state = make_state(img)
        state.regs[4:7] = [0xA4, 0xA5, 0xA6]
        state.sram[-CALLER_STACK_BYTES:] = bytes(range(CALLER_STACK_BYTES))
        state.sp = state.stack_top + sp_above_top
        state.pc = img.base
        with pytest.raises(MachineFault) as err:
            run(state)
        states.append((err.value.kind, state.regs, state.sram))
    assert states[0] == states[1]
    assert states[0][0] == want


def test_flash_running_into_the_table_region_runs_each_tables_bytes():
    """Flash that falls through into the table region ends its block at
    the flash end, so each table's own bytes run after it."""
    code = asm(MovImm(1, 3), Nop())
    image = FirmwareImage(code.base, code.data, sram_base=code.end, table_base=code.end)
    for imm in (1, 2, 1):
        table = RamTable(image.table_base, 0x100)
        sighting = RawSighting(core=image.base, adds_imm=0, literal_value=image.table_base)
        table.add(entry_bytes_for([MovImm(2, imm), BxLr()], sighting, image.table_base))
        _assert_same_at_every_budget(image, table, image.base, {})
        assert call(image, table, keep_trace=False).state.regs[2] == imm


def test_one_image_under_many_rotated_tables_matches_reference(hardened):
    """One image runs every function under six rotated tables in turn, so
    its table memo holds several runs at one pc; each call, and each call
    cut short by a smaller budget, matches the reference stepper."""
    himg, hman, _ = hardened
    image = FirmwareImage(himg.base, himg.data, himg.sram_base, himg.table_base)
    tables = [build_rotated_table(image, hman, KEY, seed) for seed in range(6)]
    regs = {i: 0x01010101 * (i + 1) for i in range(13)}
    for round_ in range(2):
        for fn in hman.functions:
            for table in tables:
                _assert_same_as_reference(image, table, fn.start, regs, budget=10_000)
        fn = hman.functions[round_ * 7]
        for table in tables[:2]:
            _assert_same_at_every_budget(image, table, fn.start, regs)
    assert max(len(runs) for runs in image.table_blocks.values()) > 2  # (bytes, ops) per run


def test_a_table_entry_rewritten_between_calls_matches_reference():
    """A hand-built table whose first entry is rewritten between calls, to
    other code, a shorter or longer run, or an undecodable halfword, runs
    each call's own bytes, as the reference stepper does."""
    base = DEFAULT_BASE
    code = asm(Push(R("lr")), Bl(DEFAULT_SRAM_BASE), Bl(DEFAULT_SRAM_BASE + 16),
               Pop(R("pc")), base=base)
    image = FirmwareImage(code.base, code.data)
    table = RamTable(image.table_base, 0x100)
    for offset, insns in ((0, [MovImm(2, 1), BxLr()]), (16, [MovImm(3, 7), BxLr()])):
        sighting = RawSighting(core=base, adds_imm=offset, literal_value=image.table_base)
        table.add(entry_bytes_for(insns, sighting, image.table_base))
    first = [[MovImm(2, 1), BxLr()], [MovImm(2, 5), AddReg(2, 2, 2), BxLr()],
             [MovImm(2, 1), Nop(), BxLr()], [MovImm(2, 9), isa.Unknown(0xDEFF)],
             [MovImm(2, 1), BxLr()], [Pop(R("r4", "pc"))]]
    faults = []
    for insns in first:
        data = b"".join(encode(insn) for insn in insns)
        table.entries[0] = TableEntry(0, data, "", base)
        table.image[0:16] = data.ljust(16, b"\0")
        for budget in (10_000, 4):
            faults.append(_assert_same_as_reference(image, table, base, {}, budget))
    assert faults == [None, FaultKind.BUDGET] * 3 + [FaultKind.UNDECODABLE] * 2 + [
        None, FaultKind.BUDGET, FaultKind.INTERWORK, FaultKind.INTERWORK]
    assert len(image.table_blocks[image.table_base]) == 2 * 5  # (bytes, ops) per run


def _load(rd: int, value: int) -> list:
    """Instructions leaving the 16-bit ``value`` in ``rd`` (r0 is scratch)."""
    return [MovImm(rd, value >> 8), *[AddReg(rd, rd, rd)] * 8,
            MovImm(0, value & 0xFF), AddReg(rd, rd, 0)]


def test_a_table_block_never_reads_the_stack():
    """A table entry ends in the first half of a wide ``pop.w`` at
    ``stack_limit - 2``, so its second half is the lowest stack halfword,
    which the entry's own ``push {r1}`` rewrites.  The block at the entry
    stops before the straddling instruction, which is stepped from the
    bytes the push left, as the reference stepper reads them."""
    base = DEFAULT_BASE
    probe = FirmwareImage(base, bytes(4))
    entry = probe.stack_limit - 4
    code = asm(*_load(2, 0x8110), *_load(1, 0x8210), *_DOWN_TO_STACK_LIMIT,
               StrSpRel(2, 0), AddSpImm(4), Bl(entry), base=base)
    image = FirmwareImage(base, code.data)
    table = RamTable(image.table_base, image.table_room)
    table.add(TableEntry(entry - image.table_base, encode(Push(R("r1"))) + b"\xbd\xe8", "",
                         base))
    regs = {8: 0x88, 9: 0x99}
    for _ in range(2):  # cold, then with the image's memos filled
        _assert_same_at_every_budget(image, table, base, regs)
    state, fault = _fast_run(image, table, base, regs, budget=10_000)
    assert fault == FaultKind.INTERWORK  # pop.w {r4, r9, pc} popped an even pc
    assert (state.regs[4], state.regs[8], state.regs[9]) == (0x8210, 0x88, 0)


def _assert_runs_keep_the_table_region(image, table, runs):
    """Each of ``runs`` ends, or faults, with the RAM below ``stack_limit``
    holding just what installing ``table`` wrote there."""
    installed = make_state(image, table).sram[: image.stack_limit - image.sram_base]
    for run in runs:
        state, _, _ = _caught(run)
        assert state.sram[: image.stack_limit - image.sram_base] == installed


@given(image=crafted_images(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_only_the_table_install_writes_below_the_stack_limit(image, data):
    """A run keeps sp inside the stack, so only ``write_table`` writes
    below ``stack_limit``: whatever a run does, and wherever it faults, the
    table region holds the bytes installed before it.  This is why a table
    block compiled from those bytes stays valid for the whole run."""
    try:
        table = build_table(image, KEY)
    except ObfuscationError:
        table = None
    entry = image.base + 2 * data.draw(st.integers(0, len(image.data) // 2 - 1))
    regs = data.draw(_REGS)
    delta, slot = 4 * data.draw(st.integers(0, 16)), data.draw(st.integers(0, 16))
    _assert_runs_keep_the_table_region(image, table, [
        lambda: call(image, table, entry, regs, budget=300, keep_trace=False),
        lambda: call(image, table, entry, regs, budget=300),
        lambda: check_gadget(image, table, entry, delta, slot),
    ])


@pytest.mark.parametrize("name", MID_BLOCK)
def test_runs_down_to_the_stack_limit_keep_the_table_region(name):
    """The same holds for runs that push, store and move sp at the stack's
    edges, with a table installed right below the stack."""
    image = asm(*MID_BLOCK[name][0])
    table = RamTable(image.table_base, image.table_room)
    table.add(TableEntry(image.table_room - 4, b"\xa5" * 4, "", image.base))
    regs = {i: 0x10 * i + 1 for i in range(13)}
    _assert_runs_keep_the_table_region(image, table, [
        lambda: call(image, table, image.base, regs, keep_trace=keep_trace)
        for keep_trace in (False, True)
    ])


def test_check_gadget_matches_reference_on_every_candidate(obfuscated):
    """Every catalog candidate of a small obfuscated image, most of them
    entered mid-block, checks like a reference-stepped gadget run; the
    catalog's own candidates all pass."""
    image = obfuscated[0]
    table = build_table(image, KEY)
    catalog = run_attack(image).catalog
    assert len(catalog) > 50 and any(c.instructions for c in catalog)
    for cand in catalog:
        args = (image, table, cand.start, cand.stack_delta, cand.pc_slot_index)
        fast, _, passed = _caught(check_gadget, *args)
        ref, ref_passed = reference_check_gadget(*args)
        assert passed == ref_passed
        assert (fast.step_count, fast.regs, fast.sram) == (ref.step_count, ref.regs, ref.sram)
    assert all(check_gadget(image, table, c.start, c.stack_delta, c.pc_slot_index)
               for c in catalog)


@pytest.mark.parametrize("delta", [-4, STACK_RESERVE + 4, 100_000])
def test_check_gadget_fails_when_the_seeded_words_do_not_fit(delta):
    img = asm(BxLr())
    assert check_gadget(img, None, img.base, delta, None) is False
    assert reference_check_gadget(img, None, img.base, delta, None)[1] is False


@pytest.mark.parametrize("insn", [Push(RegisterList(0)), Push(R("r4", "pc")), Pop(RegisterList(0))],
                         ids=str)
def test_invalid_register_lists_fault_on_both_paths(insn, monkeypatch):
    """The decoder never yields these lists; fed to the interpreter by a
    patched decoder, each faults INVALID at its own pc after the steps
    before it, stepped or run in a block."""
    img = asm(MovImm(1, 1), Nop(), BxLr())
    decode = machine.decode
    monkeypatch.setattr(machine, "decode", lambda data, off, pc: (
        (insn, 2) if pc == img.base + 2 else decode(data, off, pc)))
    for keep_trace in (True, False):
        with pytest.raises(MachineFault) as err:
            call(img, entry=img.base, keep_trace=keep_trace)
        assert err.value.kind == FaultKind.INVALID
    state, fault = _fast_run(img, None, img.base, {}, budget=100)
    assert (fault, state.step_count, state.pc) == (FaultKind.INVALID, 1, img.base + 2)
