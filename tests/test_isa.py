"""Codec tests: frozen vectors, exhaustive cross-checks against the
independent reference disassembler and the previous decoder, and round-trip
properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retobf import isa
from retobf.isa import (
    AddReg,
    AddSpImm,
    AddsImmR0,
    Bl,
    BranchW,
    BxLr,
    EncodingError,
    LdrLitR0,
    LdrSpRel,
    MovImm,
    MovPcR0,
    MovReg,
    Nop,
    Pop,
    Push,
    RawWord,
    RegisterList,
    StrSpRel,
    SubReg,
    SubSpImm,
    TruncatedStreamError,
    Unknown,
    decode,
    encode,
    is_return,
)

import reference_decode
import reference_disasm as ref

R = RegisterList.of


# Frozen encodings, each hand-derived from the architecture bit patterns and
# cross-checked against the reference table below.
VECTORS = [
    (Push(R("r4", "r6", "r7", "lr")), "d0b5"),  # halfword 0xB5D0
    (Push(R("r7", "lr")), "80b5"),  # 0xB580
    (Push(R("lr")), "00b5"),
    (Pop(R("r7", "pc")), "80bd"),  # 0xBD80
    (Pop(R("r4", "r6", "r7", "pc")), "d0bd"),  # 0xBDD0
    (Pop(R("pc")), "00bd"),
    (Pop(R("r4", "r6")), "50bc"),
    (BxLr(), "7047"),
    (LdrLitR0(12), "0348"),
    (AddsImmR0(36), "2430"),
    (MovPcR0(), "8746"),
    (MovImm(2, 7), "0722"),
    (MovReg(9, 1), "8946"),
    (AddReg(1, 2, 3), "d118"),
    (SubReg(0, 0, 4), "001b"),
    (StrSpRel(1, 8), "0291"),
    (LdrSpRel(3, 4), "019b"),
    (AddSpImm(16), "04b0"),
    (SubSpImm(16), "84b0"),
    (Nop(), "00bf"),
    (Push(R("r4", "r8", "lr")), "2de9 1041"),
    (Pop(R("r4", "r8", "pc")), "bde8 1081"),
    (Pop(R("r6", "r7", "lr")), "bde8 c040"),
    (Pop(R("lr")), "bde8 0040"),
    (RawWord(0x00240010), "1000 2400"),
]


def _hex(data: bytes) -> str:
    raw = data.hex()
    return " ".join(raw[i : i + 4] for i in range(0, len(raw), 4))


@pytest.mark.parametrize("insn,expected", VECTORS, ids=lambda v: str(v))
def test_frozen_encodings(insn, expected):
    assert _hex(encode(insn)) == expected


@pytest.mark.parametrize("insn,expected", VECTORS, ids=lambda v: str(v))
def test_frozen_decodings(insn, expected):
    if isinstance(insn, RawWord):
        return  # emission-only datum
    data = bytes.fromhex(expected.replace(" ", ""))
    got, length = decode(data)
    assert got == insn
    assert length == len(data)


def test_reference_oracle_agrees_on_anchor_vectors():
    # The anchor examples: reference disassembler and codec must agree.
    assert ref.disasm16(0xB5D0) == "push {r4, r6, r7, lr}"
    assert ref.disasm16(0x4770) == "bx lr"
    assert ref.disasm16(0xBD80) == "pop {r7, pc}"
    assert ref.disasm16(0xB580) == "push {r7, lr}"
    assert ref.disasm16(0xBDD0) == "pop {r4, r6, r7, pc}"
    assert decode(b"\xd0\xb5")[0] == Push(R("r4", "r6", "r7", "lr"))
    assert decode(b"\x70\x47")[0] == BxLr()
    assert decode(b"\x80\xbd")[0] == Pop(R("r7", "pc"))


def test_exhaustive_cross_check_16bit():
    """Every halfword: codec and reference oracle agree on coverage and text."""
    for hw in range(0x10000):
        data = hw.to_bytes(2, "little") + b"\x00\x00"
        insn, length = decode(data)
        expected = ref.disasm16(hw)
        if isinstance(insn, Unknown) or length == 4:
            # Wide decodes start from a prefix halfword the 16-bit oracle
            # rejects; padded zeros never form a canonical wide instruction.
            assert expected is None or length == 4, f"{hw:#06x}: oracle saw {expected}"
            if length == 4:
                assert ref.disasm16(hw) is None
        else:
            assert expected == insn.text(), f"{hw:#06x}"


def _outcome(decoder, data, offset=0, address=0):
    """What one decode gives: (type, instruction, length), or the error."""
    try:
        insn, length = decoder(data, offset, address)
    except TruncatedStreamError as exc:
        return ("truncated", str(exc))
    return (type(insn), insn, length)


def _agree(data, offset=0, address=0):
    want = _outcome(reference_decode.decode, data, offset, address)
    got = _outcome(decode, data, offset, address)
    assert got == want, (data.hex(), offset)


def test_every_first_halfword_matches_the_previous_decoder():
    """All 65,536 first halfwords, alone and followed by a second one: the
    table dispatch gives the if-chain's type, fields and length, and the
    same truncation error."""
    rng = random.Random(0xDEC0)
    for hw in range(0x10000):
        first = hw.to_bytes(2, "little")
        _agree(first)
        _agree(first + rng.randbytes(2), address=0x40000 + 2 * rng.randrange(1 << 20))
    _agree(b"")
    _agree(b"\x2d")


#: Wide first halfwords: the recognised prefixes and their neighbours.
WIDE_PREFIXES = (0xE800, 0xE8BC, 0xE8BD, 0xE8BE, 0xE92C, 0xE92D, 0xE92E, 0xEFFF,
                 0xF000, 0xF3FF, 0xF400, 0xF7FF, 0xF800, 0xFFFF)
#: Second halfwords: every top nibble (the push.w 0xA000, pop.w 0x2000 and
#: bl/b.w 0xD000 masks) over the register-list edges (empty, low only, r8,
#: r12, all).
SECOND_HALFWORDS = tuple(top << 12 | low for top in range(16)
                         for low in (0x000, 0x001, 0x0FF, 0x100, 0x800, 0xFFF))


@pytest.mark.parametrize("prefix", WIDE_PREFIXES, ids=hex)
def test_wide_prefixes_match_the_previous_decoder(prefix):
    for hw2 in SECOND_HALFWORDS:
        data = prefix.to_bytes(2, "little") + hw2.to_bytes(2, "little")
        for address in (0, 0x40000, 0xFFFFFFFC):
            _agree(data, address=address)
        _agree(b"\x00\x00" + data, offset=2, address=0x08000000)


@given(st.binary(max_size=12), st.integers(0, 0xFFFFFFFF))
@settings(max_examples=400)
def test_decode_matches_the_previous_decoder_at_every_offset(data, address):
    for offset in range(0, len(data) + 2, 2):
        _agree(data, offset, address + offset)


def test_wide_cross_check_samples():
    rng = random.Random(20240501)
    samples = []
    for _ in range(2000):
        mask = rng.randrange(1, 1 << 13)
        samples.append(Push(RegisterList(mask | (1 << 8) | (rng.randrange(2) << isa.LR))))
        lr_or_pc = rng.choice([0, 1 << isa.LR, 1 << isa.PC])
        samples.append(Pop(RegisterList(mask | (1 << 9) | lr_or_pc)))
    for insn in samples:
        data = encode(insn)
        hw1 = int.from_bytes(data[0:2], "little")
        hw2 = int.from_bytes(data[2:4], "little")
        assert ref.disasm32(hw1, hw2) == insn.text()
        assert decode(data) == (insn, 4)


def test_branch_cross_check():
    for addr, target in [(0x40000, 0x40100), (0x40100, 0x40000), (0x4000C, 0x4000C)]:
        for cls in (Bl, BranchW):
            data = encode(cls(target), address=addr)
            hw1 = int.from_bytes(data[0:2], "little")
            hw2 = int.from_bytes(data[2:4], "little")
            assert ref.disasm32(hw1, hw2, address=addr) == cls(target).text()
            assert decode(data, address=addr) == (cls(target), 4)


def test_is_return():
    assert is_return(Pop(R("r7", "pc")))
    assert is_return(Pop(R("r4", "r8", "pc")))
    assert is_return(BxLr())
    assert not is_return(Push(R("r7", "lr")))
    assert not is_return(Pop(R("r4", "r6")))
    assert not is_return(Pop(R("r6", "r7", "lr")))
    assert not is_return(Nop())


def test_register_list_invariants():
    with pytest.raises(EncodingError):
        RegisterList.of("lr", "pc")
    with pytest.raises(EncodingError):
        RegisterList.of("sp")
    assert R("r7", "r4", "lr").indices() == (4, 7, 14)
    assert R("r7", "r4", "lr").names() == ("r4", "r7", "lr")
    assert str(R("r4", "r6", "r7", "pc")) == "{r4, r6, r7, pc}"
    assert R("r4", "lr").with_pc_for_lr() == R("r4", "pc")
    assert R("r4", "r8", "pc").without_flags() == R("r4", "r8")


def test_width_rule():
    assert Push(R("r0", "r7", "lr")).byte_length() == 2
    assert Push(R("r8", "lr")).byte_length() == 4
    assert Pop(R("r0", "r7", "pc")).byte_length() == 2
    assert Pop(R("r7", "lr")).byte_length() == 4
    assert Pop(R("r12", "pc")).byte_length() == 4
    for insn, data in VECTORS:
        assert insn.byte_length() == len(bytes.fromhex(data.replace(" ", "")))


def test_encode_rejects_invalid():
    with pytest.raises(EncodingError):
        encode(Push(RegisterList(0)))
    with pytest.raises(EncodingError):
        encode(Pop(RegisterList(0)))
    with pytest.raises(EncodingError):
        encode(Push(R("r4", "pc")))
    with pytest.raises(EncodingError):
        encode(AddsImmR0(256))
    with pytest.raises(EncodingError):
        encode(MovImm(8, 1))
    with pytest.raises(EncodingError):
        encode(LdrLitR0(14))  # not word-multiple
    with pytest.raises(EncodingError):
        encode(Bl(0x40000 + (1 << 25)), address=0x40000)


def test_decoder_totality_and_truncation():
    with pytest.raises(TruncatedStreamError):
        decode(b"\x00")
    with pytest.raises(TruncatedStreamError):
        decode(b"\x2d\xe9")  # wide prefix with only 2 bytes left
    # Unknown markers re-encode to their own bytes.
    insn, length = decode(b"\x25\x18\x00\x00")
    assert (insn, length) == (AddReg(5, 4, 0), 2)
    insn, length = decode(b"\xff\xde\x00\x00")
    assert isinstance(insn, Unknown) and length == 2
    assert encode(insn) == b"\xff\xde"
    # Non-canonical wide forms are not recognized.
    low_only_wide_push = b"\x2d\xe9\x10\x40"  # push.w {r4, lr}: narrow exists
    insn, length = decode(low_only_wide_push)
    assert isinstance(insn, Unknown) and length == 2


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(
        ["push", "pop", "bxlr", "ldrlit", "addsr0", "movpc", "bl", "bw",
         "movimm", "movreg", "addreg", "subreg", "strsp", "ldrsp",
         "addsp", "subsp", "nop"]
    ))
    if kind in ("push", "pop"):
        mask = draw(st.integers(1, (1 << 13) - 1))
        if kind == "push":
            mask |= draw(st.sampled_from([0, 1 << isa.LR]))
            return Push(RegisterList(mask))
        mask |= draw(st.sampled_from([0, 1 << isa.LR, 1 << isa.PC]))
        return Pop(RegisterList(mask))
    if kind == "bxlr":
        return BxLr()
    if kind == "ldrlit":
        return LdrLitR0(draw(st.integers(0, 255)) * 4)
    if kind == "addsr0":
        return AddsImmR0(draw(st.integers(0, 255)))
    if kind == "movpc":
        return MovPcR0()
    if kind in ("bl", "bw"):
        disp = draw(st.integers(-(1 << 23) + 2, (1 << 23) - 1)) * 2
        cls = Bl if kind == "bl" else BranchW
        return cls(0x2000000 + 4 + disp)
    if kind == "movimm":
        return MovImm(draw(st.integers(0, 7)), draw(st.integers(0, 255)))
    if kind == "movreg":
        return MovReg(draw(st.integers(0, 12)), draw(st.integers(0, 12)))
    if kind in ("addreg", "subreg"):
        cls = AddReg if kind == "addreg" else SubReg
        return cls(*(draw(st.integers(0, 7)) for _ in range(3)))
    if kind in ("strsp", "ldrsp"):
        cls = StrSpRel if kind == "strsp" else LdrSpRel
        return cls(draw(st.integers(0, 7)), draw(st.integers(0, 255)) * 4)
    if kind in ("addsp", "subsp"):
        cls = AddSpImm if kind == "addsp" else SubSpImm
        return cls(draw(st.integers(0, 127)) * 4)
    return Nop()


@given(instructions())
@settings(max_examples=400)
def test_roundtrip_property(insn):
    data = encode(insn, address=0x2000000)
    got, length = decode(data, address=0x2000000)
    assert got == insn
    assert length == len(data) == insn.byte_length()


@given(st.binary(min_size=4, max_size=4))
@settings(max_examples=300)
def test_decode_total_and_bytes_roundtrip(data):
    insn, length = decode(data)
    assert length in (2, 4)
    assert encode(insn, address=0)[:length] == data[:length] or isinstance(
        insn, (Bl, BranchW)
    )
    if isinstance(insn, (Bl, BranchW)):
        assert encode(insn, address=0) == data[:4]


def test_exhaustive_narrow_push_pop_roundtrip():
    count = 0
    for bits in range(1 << 9):
        mask = (bits & 0xFF) | ((bits >> 8) << isa.LR)
        if mask:
            insn = Push(RegisterList(mask))
            assert decode(encode(insn)) == (insn, 2)
            count += 1
        mask = (bits & 0xFF) | ((bits >> 8) << isa.PC)
        if mask:
            insn = Pop(RegisterList(mask))
            assert decode(encode(insn)) == (insn, 2)
            count += 1
    assert count == 2 * ((1 << 9) - 1)
