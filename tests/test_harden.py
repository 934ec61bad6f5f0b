"""Hardening tests: rotation planning and semantics, register padding,
push sealing, per-boot table randomization."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scans as ref
from retobf import isa
from retobf.attack import evaluate_recovery, run_attack
from retobf.harden import (
    HardenError,
    build_rotated_table,
    encrypt_pushes,
    harden,
    pad_corpus,
    pad_registers,
    position_distribution,
)
from retobf.image import CorpusParams, FirmwareImage, FunctionRecord, generate_corpus
from retobf.isa import Pop, Push, RegisterList, encode
from retobf.machine import call, check_gadget, states_equivalent
from retobf.obfuscation import (
    build_table,
    obfuscate_returns,
    plan_rotation,
    trampoline_data_ranges,
)

from conftest import KEY

R = RegisterList.of


ROTATION_COLUMNS = [
    (3, ["pop {r4, r6, r7, pc}"], ["r4", "r6", "r7", "ret"]),
    (2, ["pop {r6, r7, lr}", "pop {r4}", "bx lr"], ["r6", "r7", "ret", "r4"]),
    (1, ["pop {r7, lr}", "pop {r4, r6}", "bx lr"], ["r7", "ret", "r4", "r6"]),
    (0, ["pop {lr}", "pop {r4, r6, r7}", "bx lr"], ["ret", "r4", "r6", "r7"]),
]


@pytest.mark.parametrize("position,pops,layout", ROTATION_COLUMNS)
def test_rotation_columns(position, pops, layout):
    plan = plan_rotation(R("r4", "r6", "r7"), position)
    assert [i.text() for i in plan.pop_sequence] == pops
    assert plan.layout == layout
    # Push side mirrors the layout: deepest slots pushed first.
    if position == 3:
        assert [i.text() for i in plan.push_sequence] == ["push {r4, r6, r7, lr}"]
    else:
        assert len(plan.push_sequence) == 2
        assert plan.push_sequence[-1].regs.has_lr


def test_rotation_position_bounds():
    with pytest.raises(HardenError):
        plan_rotation(R("r4"), 2)
    with pytest.raises(HardenError):
        plan_rotation(R("r4"), -1)
    degenerate = plan_rotation(RegisterList(0), 0)
    assert [i.text() for i in degenerate.pop_sequence] == ["pop {pc}"]


def _run_sequences(plan, regs_init):
    """Execute push_sequence then pop_sequence and return the final state."""
    insns = plan.push_sequence + [isa.Nop()] + plan.pop_sequence
    data = bytearray()
    base = 0x40000
    for insn in insns:
        data += encode(insn, address=base + len(data))
    image = FirmwareImage(base, bytes(data))
    return call(image, entry=base, regs=regs_init)


def _exhaustive_subsets(max_size):
    pool = list(isa.CALLEE_SAVED)
    for size in range(0, max_size + 1):
        yield from itertools.combinations(pool, size)


def test_rotation_semantic_equivalence_exhaustive_small():
    rng = random.Random(8)
    for subset in _exhaustive_subsets(3):
        regs = RegisterList.of(*subset)
        for position in range(len(regs) + 1):
            plan = plan_rotation(regs, position)
            init = {i: rng.randrange(1 << 32) for i in range(13)}
            result = _run_sequences(plan, init)
            state = result.state
            for reg in isa.CALLEE_SAVED:
                assert state.regs[reg] == init[reg], (subset, position, reg)
            assert state.sp == state.stack_top - 64


@given(
    mask=st.integers(0, 0xFF),
    position_seed=st.integers(0, 7),
    values=st.lists(st.integers(0, 0xFFFFFFFF), min_size=13, max_size=13),
)
@settings(max_examples=80, deadline=None)
def test_rotation_semantic_equivalence_randomized(mask, position_seed, values):
    regs = RegisterList(mask << 4)  # subsets of r4-r11
    position = position_seed % (len(regs) + 1)
    plan = plan_rotation(regs, position)
    init = {i: values[i] for i in range(13)}
    state = _run_sequences(plan, init).state
    for reg in isa.CALLEE_SAVED:
        assert state.regs[reg] == init[reg]


def test_rotation_slot_correctness():
    """Seeding the drawn slot with a sentinel steers the pop sequence there,
    and exactly (|regs|+1) words are consumed."""
    for subset in _exhaustive_subsets(3):
        regs = RegisterList.of(*subset)
        for position in range(len(regs) + 1):
            plan = plan_rotation(regs, position)
            data = bytearray()
            base = 0x40000
            for insn in plan.pop_sequence:
                data += encode(insn, address=base + len(data))
            image = FirmwareImage(base, bytes(data))
            delta = 4 * plan.stack_words
            assert check_gadget(image, None, base, delta, position), (subset, position)


def test_rotation_lists_stay_ascending():
    for subset in _exhaustive_subsets(4):
        regs = RegisterList.of(*subset)
        for position in range(len(regs) + 1):
            plan = plan_rotation(regs, position)
            for insn in plan.push_sequence + plan.pop_sequence:
                if isinstance(insn, (Push, Pop)):
                    idx = insn.regs.indices()
                    assert list(idx) == sorted(idx)
                    encode(insn)  # must be encodable


def test_pad_identity_when_kmax_zero(corpus):
    image, manifest = corpus
    padded, man2, plans = pad_corpus(image, manifest, key_seed=5, kmax=0)
    assert padded.data == image.data
    assert all(plan.extra.is_empty for plan in plans)
    assert all(fn.pad_registers.is_empty for fn in man2.functions)


def test_pad_draw_respects_bounds():
    fn = FunctionRecord(
        name="f", start=0, end=2, prologue_site=0, epilogue_sites=[0],
        true_pop=R("r7", "pc"), used_callee_saved=R("r7"),
    )
    rng = random.Random(1)
    seen = set()
    for _ in range(200):
        plan = pad_registers(fn, rng, kmax=2)
        assert plan.extra.intersection(fn.used_callee_saved).is_empty
        assert len(plan.extra) <= 2
        seen.add(len(plan.extra))
    assert seen == {0, 1, 2}
    # Truncation: only one register is free.
    crowded = FunctionRecord(
        name="g", start=0, end=2, prologue_site=0, epilogue_sites=[0],
        true_pop=R("r4", "r5", "r6", "r7", "r8", "r9", "r10", "pc"),
        used_callee_saved=R("r4", "r5", "r6", "r7", "r8", "r9", "r10"),
    )
    for _ in range(50):
        plan = pad_registers(crowded, rng, kmax=3)
        assert len(plan.extra) <= 1
        assert plan.extra.difference(R("r11")).is_empty


def test_pad_rewrites_pairs_and_preserves_behavior(corpus):
    image, manifest = corpus
    padded, man2, plans = pad_corpus(image, manifest, key_seed=11, kmax=3)
    assert any(not plan.extra.is_empty for plan in plans)
    # The function records hold the draws; the log entry restates none.
    assert man2.transform_log[-1] == {
        "pass": "pad_registers", "kmax": 3, "seed": 11, "image_sha256": padded.sha256()}
    for fn_old, fn_new, plan in zip(manifest.functions, man2.functions, plans):
        assert fn_new.pad_registers == fn_old.pad_registers.union(plan.extra)
    from retobf.isa import decode

    for fn in man2.functions:
        if fn.is_leaf:
            continue
        full = fn.used_callee_saved.union(fn.pad_registers)
        insn, _ = decode(padded.data, fn.prologue_site - padded.base)
        assert insn == Push(full.union(R("lr")))
        for site in fn.epilogue_sites:
            insn, _ = decode(padded.data, site - padded.base)
            assert insn == Pop(full.union(R("pc")))
        assert fn.true_pop == full.union(R("pc"))
    rng = random.Random(2)
    for fn_old, fn_new in zip(manifest.functions, man2.functions):
        regs = {i: rng.randrange(1 << 32) for i in range(13)}
        a = call(image, entry=fn_old.start, regs=regs)
        b = call(padded, entry=fn_new.start, regs=regs)
        assert states_equivalent(a.state, b.state), fn_old.name


def test_pad_multi_epilogue_rewrites_every_pop(multi_epilogue_corpus):
    image, manifest = multi_epilogue_corpus
    padded, man2, _ = pad_corpus(image, manifest, key_seed=3, kmax=3)
    from retobf.isa import decode

    multi = [fn for fn in man2.functions if len(fn.epilogue_sites) > 1]
    assert multi
    for fn in multi:
        for site in fn.epilogue_sites:
            insn, _ = decode(padded.data, site - padded.base)
            assert insn == Pop(fn.true_pop)
    rng = random.Random(14)
    for fn_old, fn_new in zip(manifest.functions, man2.functions):
        regs = {i: rng.randrange(1 << 32) for i in range(13)}
        a = call(image, entry=fn_old.start, regs=regs)
        b = call(padded, entry=fn_new.start, regs=regs)
        assert states_equivalent(a.state, b.state), fn_old.name


def test_pad_example_with_high_register():
    """A {r7} function padded with {r5, r8} gains a wide pair."""
    fn = FunctionRecord(
        name="f", start=0, end=2, prologue_site=0, epilogue_sites=[0],
        true_pop=R("r7", "pc"), used_callee_saved=R("r7"),
    )
    padded = fn.used_callee_saved.union(R("r5", "r8"))
    push = Push(padded.union(R("lr")))
    pop = Pop(padded.union(R("pc")))
    assert push.regs.names() == ("r5", "r7", "r8", "lr")
    assert pop.regs.names() == ("r5", "r7", "r8", "pc")
    assert push.byte_length() == 4 and pop.byte_length() == 4


def test_encrypt_pushes_eliminates_plaintext(corpus):
    image, manifest = corpus
    obf, man2, _ = obfuscate_returns(image, manifest, KEY)
    assert ref.sweep_plaintext(
        obf.data, trampoline_data_ranges(obf), want="pushes"
    )  # still visible after return obfuscation alone
    sealed, man3, records = encrypt_pushes(obf, man2, KEY)
    assert ref.sweep_plaintext(
        sealed.data, trampoline_data_ranges(sealed), want="pushes"
    ) == []
    non_leaf = sum(1 for fn in man3.functions if not fn.is_leaf)
    assert sum(1 for rec in records if rec.kind == "push") == non_leaf


def test_encrypt_pushes_preserves_behavior(corpus):
    image, manifest = corpus
    obf, man2, _ = obfuscate_returns(image, manifest, KEY)
    sealed, man3, _ = encrypt_pushes(obf, man2, KEY)
    table = build_table(sealed, KEY)
    rng = random.Random(4)
    for fn_old, fn_new in zip(manifest.functions, man3.functions):
        regs = {i: rng.randrange(1 << 32) for i in range(13)}
        a = call(image, entry=fn_old.start, regs=regs)
        b = call(sealed, table, entry=fn_new.start, regs=regs)
        assert states_equivalent(a.state, b.state), fn_old.name


def test_encrypt_pushes_empty_image():
    image, manifest = generate_corpus(CorpusParams(function_count=0, seed=1))
    sealed, _, records = encrypt_pushes(image, manifest, KEY)
    assert sealed.data == image.data
    assert records == []


def test_pushes_sealed_before_returns_get_their_own_table_room(corpus):
    """Whichever pass seals first, later sites reserve table room after the
    earlier ones, so the boot pass rebuilds one entry per site."""
    image, manifest = corpus
    img, man, _ = encrypt_pushes(image, manifest, KEY)
    img, man, records = obfuscate_returns(img, man, KEY)
    assert len(build_table(img, KEY).entries) == len(records)


def test_rotated_table_draws_differ_and_preserve_behavior(corpus, hardened):
    image, manifest = corpus
    himg, hman, _ = hardened
    tab_a = build_rotated_table(himg, hman, KEY, seed=100)
    tab_b = build_rotated_table(himg, hman, KEY, seed=101)
    assert tab_a.draws != tab_b.draws
    rng = random.Random(6)
    for seed in range(10):
        table = build_rotated_table(himg, hman, KEY, seed=seed)
        sample = rng.sample(range(len(manifest.functions)), 6)
        for idx in sample:
            fn_old, fn_new = manifest.functions[idx], hman.functions[idx]
            regs = {i: rng.randrange(1 << 32) for i in range(13)}
            a = call(image, entry=fn_old.start, regs=regs)
            b = call(himg, table, entry=fn_new.start, regs=regs)
            assert states_equivalent(a.state, b.state), (seed, fn_old.name)


def test_rotation_requires_sealed_pushes(corpus):
    image, manifest = corpus
    obf, man2, _ = obfuscate_returns(image, manifest, KEY, rotation_capable=True)
    with pytest.raises(HardenError):
        build_rotated_table(obf, man2, KEY, seed=1)


def test_rotation_requires_rotation_room(corpus):
    """The room check runs once per image, so it fails for every seed, not
    only for draws whose sequence happens not to fit."""
    image, manifest = corpus
    img, man, _ = harden(image, manifest, KEY, kmax=0, encrypt_push=True)
    for seed in range(21):
        with pytest.raises(HardenError, match="rotated sequence"):
            build_rotated_table(img, man, KEY, seed)


def test_rotation_fits_a_1000_function_corpus():
    """The table region is all the RAM below the stack reserve, so a large
    rotation-capable corpus seals and boots; the last functions' entries
    lie beyond the first 16 KiB of the table."""
    image, manifest = generate_corpus(CorpusParams(function_count=1000, seed=42))
    himg, hman, _ = harden(image, manifest, KEY, kmax=3, rotate=True)
    table = build_rotated_table(himg, hman, KEY, seed=1)
    assert table.size > 0x4000
    rng = random.Random(9)
    for idx in rng.sample(range(995), 3) + [997, 998, 999]:
        fn_old, fn_new = manifest.functions[idx], hman.functions[idx]
        regs = {i: rng.randrange(1 << 32) for i in range(13)}
        a = call(image, entry=fn_old.start, regs=regs)
        b = call(himg, table, entry=fn_new.start, regs=regs)
        assert states_equivalent(a.state, b.state), fn_old.name


def test_position_distribution(hardened):
    himg, hman, _ = hardened
    hist = position_distribution([build_rotated_table(himg, hman, KEY, s) for s in range(60)])
    for fn in hman.functions:
        entry = hist[fn.name]
        if fn.is_leaf:
            assert entry["slots"] == 0
            continue
        slots = len(fn.true_pop.without_flags()) + 1
        assert entry["slots"] == slots
        assert sum(entry["counts"]) == 60
        if slots == 1:
            assert entry["degenerate"]
            assert entry["counts"] == [60]
        else:
            assert len([c for c in entry["counts"] if c > 0]) > 1
    single = position_distribution([build_rotated_table(himg, hman, KEY, seed=1)])
    assert all(e["degenerate"] or e["slots"] == 0 for e in single.values()) or any(
        e["degenerate"] for e in single.values()
    )
    with pytest.raises(HardenError):
        position_distribution([])


def test_position_distribution_counts_the_tables_draws(hardened):
    """The histogram counts the positions the tables' JSON draws name, over
    each function's slots as its manifest ``true_pop`` sets them."""
    himg, hman, _ = hardened
    tables = [build_rotated_table(himg, hman, KEY, seed) for seed in (3, 8, 8, 21)]
    counts = {fn.name: [0] * (1 if fn.is_leaf else len(fn.true_pop.without_flags()) + 1)
              for fn in hman.functions}
    for table in tables:
        assert [d["fn"] for d in table.draws] == [f.name for f in hman.functions
                                                  if not f.is_leaf]
        for draw in table.draws:
            counts[draw["fn"]][draw["position"]] += 1
    hist = position_distribution(tables)
    assert {fn: entry["counts"] for fn, entry in hist.items()} == counts
    assert list(hist) == [fn.name for fn in hman.functions]


def test_padding_degrades_liveness_to_k0(hardened):
    himg, hman, _ = hardened
    result = run_attack(himg)
    report = evaluate_recovery(result, hman, himg)
    live = report.methods["liveness"]
    k0 = sum(
        1 for fn in hman.functions if not fn.is_leaf and fn.pad_registers.is_empty
    )
    non_leaf = sum(1 for fn in hman.functions if not fn.is_leaf)
    assert live.fn_exact_rate == k0 / non_leaf
    assert live.pad_predicted == 0
    # Symmetry is blind once pushes are sealed.
    sym = report.methods["symmetry"]
    assert sym.exact == 0 and sym.failures == sym.total_pop_sites


def test_harden_identity_knobs_match_plain_obfuscation(corpus, obfuscated):
    image, manifest = corpus
    plain_obf, _, _ = obfuscated
    hard, hman, plans = harden(image, manifest, KEY, kmax=0, rotate=False,
                               encrypt_push=False, seed=0)
    assert hard.data == plain_obf.data
    assert all(plan.extra.is_empty for plan in plans)


def test_harden_rotate_implies_sealed_pushes(corpus):
    image, manifest = corpus
    himg, hman, _ = harden(image, manifest, KEY, kmax=0, rotate=True, seed=1)
    assert hman.has_pass("encrypt_pushes")
    build_rotated_table(himg, hman, KEY, seed=3)  # capacities suffice
