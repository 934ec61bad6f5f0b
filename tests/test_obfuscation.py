"""Transform and boot-scan tests: sealing, trampoline layout, table
reconstruction, plaintext elimination, wrong-key behavior."""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_scans as ref
from retobf import isa
from retobf.image import (
    DEFAULT_BASE,
    DEFAULT_SRAM_BASE,
    SRAM_SIZE,
    STACK_RESERVE,
    CorpusParams,
    FirmwareImage,
    ImageError,
    generate_corpus,
)
from retobf.isa import BxLr, Pop, Push, RegisterList, decode, is_return
from retobf.machine import CALLER_STACK_BYTES, call, states_equivalent
from retobf.obfuscation import (
    IntegrityError,
    ObfuscationError,
    RamTable,
    RawSighting,
    TableCapacityError,
    build_table,
    decode_sealed,
    encrypt_bytes,
    encrypt_halfword,
    obfuscate_returns,
    scan_trampolines,
    sweep_plaintext,
    trampoline_data_ranges,
)

from conftest import KEY, crafted_images, entry_bytes_for, plant_signature

R = RegisterList.of


def test_cipher_examples():
    """The cipher is an involution: encrypting the ciphertext decrypts it."""
    assert encrypt_halfword(0xBD80, 0xA5A5) == 0x1825
    assert encrypt_halfword(0x1825, 0xA5A5) == 0xBD80
    assert encrypt_halfword(encrypt_halfword(0xBD80, 0xA5A5), 0xA5A5) == 0xBD80


@given(st.integers(0, 0xFFFF), st.integers(1, 0xFFFF))
@settings(max_examples=200)
def test_cipher_roundtrip_and_motion(hw, key):
    enc = encrypt_halfword(hw, key)
    assert encrypt_halfword(enc, key) == hw
    assert enc != hw  # nonzero key always moves the plaintext


def test_zero_key_rejected(corpus):
    image, manifest = corpus
    with pytest.raises(ObfuscationError):
        encrypt_halfword(0xBD80, 0)
    with pytest.raises(ObfuscationError):
        obfuscate_returns(image, manifest, 0)


def test_trampoline_bytes_fixed_shape(obfuscated):
    image, manifest, records = obfuscated
    for rec in records:
        off = rec.core - image.base
        ldr, _ = decode(image.data, off)
        adds, _ = decode(image.data, off + 2)
        mov, _ = decode(image.data, off + 4)
        assert ldr == isa.LdrLitR0(12)
        assert isinstance(adds, isa.AddsImmR0) and adds.imm == rec.adds_imm
        assert mov == isa.MovPcR0()
        # The literal sits exactly where the pc-relative load points.
        assert rec.literal_slot == ((rec.core + 4) & ~3) + 12
        lit = int.from_bytes(
            image.data[rec.literal_slot - image.base : rec.literal_slot - image.base + 4],
            "little",
        )
        assert lit == rec.literal_value
        # Offset soundness: literal + adds == table_base + table_offset.
        assert rec.literal_value + rec.adds_imm == image.table_base + rec.table_offset


@pytest.mark.parametrize("off", [0, 2])
def test_sighting_geometry_follows_the_literal_load(off):
    """Whatever the core's alignment, the literal slot is the word the
    ``ldr r0, [pc, #12]`` loads, and execution resumes right after it."""
    data = bytearray(64)
    assert plant_signature(data, DEFAULT_BASE, off, 0x10, 0x00240100)
    (s,) = scan_trampolines(bytes(data), DEFAULT_BASE)
    assert (s.core - DEFAULT_BASE) % 4 == off
    lo = s.literal_slot - DEFAULT_BASE
    assert int.from_bytes(data[lo : lo + 4], "little") == s.literal_value == 0x00240100
    assert s.resume == s.literal_slot + 4
    assert s.entry_address == 0x00240110


def test_encrypted_slot_follows_jump(obfuscated):
    image, manifest, records = obfuscated
    for rec in records:
        assert rec.enc_slot == rec.core + 6
        window = image.data[rec.enc_slot - image.base : rec.enc_slot - image.base + len(rec.enc)]
        assert window == rec.enc


def test_known_ciphertext(corpus):
    # A site holding pop {r7, pc} sealed with key 0xA5A5 carries 0x1825.
    image, manifest = corpus
    target = next(fn for fn in manifest.functions if fn.true_pop == R("r7", "pc"))
    obf, man2, records = obfuscate_returns(image, manifest, 0xA5A5)
    rec = next(r for r in records if r.fn == target.name)
    assert rec.enc == (0x1825).to_bytes(2, "little")


def test_plaintext_elimination(obfuscated):
    image, _, _ = obfuscated
    exclude = trampoline_data_ranges(image)
    assert sweep_plaintext(image.data, exclude=exclude) == []


def test_plain_image_has_returns(corpus):
    image, manifest = corpus
    hits = sweep_plaintext(image.data)
    assert len(hits) >= len(manifest.functions)


def test_obfuscate_empty_image():
    image, manifest = generate_corpus(CorpusParams(function_count=0, seed=1))
    obf, man2, records = obfuscate_returns(image, manifest, KEY)
    assert obf.data == image.data
    assert records == []
    assert build_table(obf, KEY).entries == []


def test_double_obfuscation_rejected(obfuscated):
    image, manifest, _ = obfuscated
    with pytest.raises(ObfuscationError):
        obfuscate_returns(image, manifest, KEY)


def test_obfuscate_rejects_non_return_site(corpus):
    import copy

    image, manifest = corpus
    broken = copy.deepcopy(manifest)
    fn = next(f for f in broken.functions if not f.is_leaf)
    fn.epilogue_sites[0] = fn.start  # points at the push, not the pop
    with pytest.raises(ObfuscationError):
        obfuscate_returns(image, broken, KEY)


def test_scan_matches_records(obfuscated):
    image, manifest, records = obfuscated
    sightings = scan_trampolines(image.data, image.base)
    assert len(sightings) == len(records)
    by_core = {s.core: s for s in sightings}
    for rec in records:
        s = by_core[rec.core]
        assert s.adds_imm == rec.adds_imm
        assert s.literal_value == rec.literal_value
        assert s.entry_address == image.table_base + rec.table_offset


def test_table_matches_ground_truth(obfuscated):
    image, manifest, records = obfuscated
    table = build_table(image, KEY)
    assert len(table.entries) == len(records)
    by_offset = {rec.table_offset: rec for rec in records}
    fn_by_name = {fn.name: fn for fn in manifest.functions}
    for entry in table.entries:
        rec = by_offset[entry.offset]
        fn = fn_by_name[rec.fn]
        insn, _ = decode(entry.data)
        if fn.is_leaf:
            assert insn == BxLr()
        else:
            assert insn == Pop(fn.true_pop)


def test_behavior_preservation(corpus, obfuscated):
    image, manifest = corpus
    obf, man2, _ = obfuscated
    table = build_table(obf, KEY)
    rng = random.Random(3)
    for fn_old, fn_new in zip(manifest.functions, man2.functions):
        regs = {i: rng.randrange(1 << 32) for i in range(13)}
        a = call(image, entry=fn_old.start, regs=regs)
        b = call(obf, table, entry=fn_new.start, regs=regs)
        assert states_equivalent(a.state, b.state), fn_old.name
        assert b.state.sp == b.state.stack_top - 64


def test_obfuscated_without_table_diverges(obfuscated):
    from retobf.machine import MachineFault

    image, manifest, _ = obfuscated
    fn = next(f for f in manifest.functions if not f.is_leaf)
    with pytest.raises(MachineFault):
        call(image, None, entry=fn.start, budget=5000)


def test_wrong_key_raises_integrity_error(obfuscated):
    image, _, _ = obfuscated
    rng = random.Random(10)
    errors = 0
    trials = 60
    for _ in range(trials):
        wrong = rng.randrange(1, 0x10000)
        if wrong == KEY:
            continue
        try:
            build_table(image, wrong)
        except IntegrityError:
            errors += 1
    assert errors >= trials * 0.99 - 1


@given(crafted_images())
@settings(max_examples=200, deadline=None)
def test_build_table_raises_only_typed_errors(image):
    """The boot pass on crafted bytes either builds a table or reports an
    integrity or capacity fault; no other exception escapes."""
    try:
        build_table(image, KEY)
    except (IntegrityError, TableCapacityError):
        pass


def test_table_add_checks_every_entry():
    """``RamTable.add`` refuses an entry outside the table, misaligned,
    overlapping the previous one, or running past the table's room."""
    base = DEFAULT_SRAM_BASE

    def entry(offset, *insns):
        sighting = RawSighting(core=DEFAULT_BASE, adds_imm=offset, literal_value=base)
        return entry_bytes_for(list(insns), sighting, base)

    wide_pop = Pop(R("r4", "r8", "pc"))
    table = RamTable(base, 16)
    table.add(entry(0, wide_pop))
    for bad, error in [
        (entry(2, BxLr()), IntegrityError),  # misaligned
        (entry(0, BxLr()), IntegrityError),  # overlaps the previous entry
        (entry(16, BxLr()), IntegrityError),  # outside the table
        (entry(12, Push(R("r4", "lr"))), TableCapacityError),  # push + b.w: past the room
    ]:
        with pytest.raises(error):
            table.add(bad)
    table.add(entry(8, BxLr()))
    assert [e.offset for e in table.entries] == [0, 8]
    assert bytes(table.image) == isa.encode(wide_pop) + bytes(4) + isa.encode(BxLr())


def test_halfword_validity_census():
    """Exhaustive 16-bit enumeration of the reference sweep's raw halfword
    classes: 256 pc-pops + 256 lr-pushes + bx lr, plus the two wide
    prefixes.  The narrow ones are exactly the halfwords ``isa.decode``
    reads as a return or an lr push, as the boot check decodes them."""
    accepted = [hw for hw in range(0x10000) if ref.classify_halfword(hw) in
                ("pop-pc", "bx-lr", "push-lr")]
    assert len(accepted) == 513

    def sealable(hw):
        insn = decode(hw.to_bytes(2, "little"))[0]
        return is_return(insn) or isinstance(insn, Push) and insn.regs.has_lr

    assert [hw for hw in range(0xE800) if sealable(hw)] == accepted
    wide_prefixes = [hw for hw in range(0x10000) if ref.classify_halfword(hw) == "wide-prefix"]
    assert wide_prefixes == [ref.WIDE_POP, ref.WIDE_PUSH]
    # Per-site acceptance of a random wrong key is therefore below 0.79%.
    assert (513 + 2) / 0x10000 < 0.0079


def test_offset_block_split():
    """Sites beyond the one-byte adds range move whole blocks into the
    literal; the add immediate never exceeds 255."""
    image, manifest = generate_corpus(CorpusParams(function_count=120, seed=13))
    obf, _, records = obfuscate_returns(image, manifest, KEY)
    assert max(rec.table_offset for rec in records) > 255
    for rec in records:
        assert 0 <= rec.adds_imm <= 255
        assert (rec.literal_value - image.table_base) % 256 == 0
        assert rec.literal_value + rec.adds_imm == image.table_base + rec.table_offset
    table = build_table(obf, KEY)
    assert len(table.entries) == len(records)


def test_site_count_matches_epilogues(obfuscated):
    image, manifest, records = obfuscated
    expected = sum(len(fn.epilogue_sites) for fn in manifest.functions)
    assert len(records) == expected
    assert len(build_table(image, KEY).entries) == expected


def test_decode_sealed_accepts_exactly_decoded_returns_and_pushes():
    """Exhaustive over the first halfword, with second halfwords that make a
    valid wide pop, a valid wide push, and neither: the boot check accepts
    exactly what ``isa.decode`` reads as a return or an lr-pushing push."""
    accepted = {}
    for hw2 in (0x8110, 0x4110, 0x0000):
        accepted[hw2] = []
        for hw in range(0x10000):
            plain = hw.to_bytes(2, "little") + hw2.to_bytes(2, "little")
            insn = decode(plain)[0]
            want = is_return(insn) or (isinstance(insn, Push) and insn.regs.has_lr)
            sighting = RawSighting(core=DEFAULT_BASE + 2, adds_imm=0,
                                   enc_window=encrypt_bytes(plain + bytes(4), KEY))
            try:
                got = decode_sealed(KEY, sighting)
            except IntegrityError:
                assert not want, hex(hw)
            else:
                assert want and got == insn, hex(hw)
                accepted[hw2].append(hw)
    assert len(accepted[0x0000]) == 513  # 256 pc-pops, 256 lr-pushes, bx lr
    assert sorted(set(accepted[0x8110]) - set(accepted[0x0000])) == [0xE8BD]
    assert sorted(set(accepted[0x4110]) - set(accepted[0x0000])) == [0xE92D]


STACK_LIMIT = DEFAULT_SRAM_BASE + SRAM_SIZE - STACK_RESERVE


@given(st.integers(-0x40, (SRAM_SIZE >> 2)).map(lambda w: DEFAULT_SRAM_BASE + 4 * w))
@example(DEFAULT_SRAM_BASE - 4)
@example(STACK_LIMIT - 4)
@example(STACK_LIMIT)
@settings(max_examples=40, deadline=None)
def test_table_base_runs_or_fails_in_one_typed_error(corpus, table_base):
    """Wherever the table base sits, the image is rejected, sealing runs out
    of table room, or the boot table makes every function behave as before."""
    image, manifest = corpus
    try:
        moved = FirmwareImage(image.base, image.data, image.sram_base, table_base)
    except ImageError:
        assert not DEFAULT_SRAM_BASE <= table_base < STACK_LIMIT
        return
    try:
        obf, man2, _ = obfuscate_returns(
            moved, dataclasses.replace(manifest, table_base=table_base), KEY
        )
    except TableCapacityError:
        return
    table = build_table(obf, KEY)
    for fn_old, fn_new in zip(manifest.functions, man2.functions):
        regs = {i: 0x1000 + i for i in range(13)}
        a = call(image, entry=fn_old.start, regs=regs)
        b = call(obf, table, entry=fn_new.start, regs=regs)
        assert states_equivalent(a.state, b.state), (hex(table_base), fn_old.name)
        assert b.state.sp == b.state.stack_top - CALLER_STACK_BYTES
