import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # reference_disasm import

from retobf._rewrite import ENC_SLOT_OFFSET, LDR_LITERAL_IMM, TRAMPOLINE_CORE
from retobf.harden import harden
from retobf.image import (
    DEFAULT_BASE,
    DEFAULT_TABLE_BASE,
    SRAM_SIZE,
    STACK_RESERVE,
    CorpusParams,
    FirmwareImage,
    generate_corpus,
)
from retobf.isa import AddsImmR0, BxLr, LdrLitR0, MovPcR0, Pop, Push, RegisterList, encode
from retobf.obfuscation import _entry, _template, encrypt_bytes, obfuscate_returns

KEY = 0xA5A5


def plant_signature(data: bytearray, base: int, off: int, adds_imm: int, literal: int,
                    sealed: bytes = b"") -> bool:
    """Write a trampoline signature, its sealed bytes and its literal word at
    ``off``; returns False (writing nothing) when the literal would not fit."""
    lit = ((base + off + 4) & ~3) + LDR_LITERAL_IMM - base
    if lit + 4 > len(data):
        return False
    for i, insn in enumerate((LdrLitR0(LDR_LITERAL_IMM), AddsImmR0(adds_imm), MovPcR0())):
        data[off + 2 * i : off + 2 * i + 2] = encode(insn)
    data[off + ENC_SLOT_OFFSET : off + ENC_SLOT_OFFSET + len(sealed)] = sealed
    data[lit : lit + 4] = literal.to_bytes(4, "little")
    return True


def entry_bytes_for(seq, sighting, table_base: int):
    """The table entry of the position-independent instructions ``seq`` at
    ``sighting``'s entry address, built as the boot pass builds one from a
    template; a push at the end branches back to the site."""
    return _entry(_template(seq), isinstance(seq[-1], Push), sighting, table_base)


@st.composite
def crafted_images(draw, halfwords=st.integers(16, 512)):
    """Arbitrary bytes, ``halfwords`` long, with planted signatures: some
    start inside the previous one's core, most seal a plausible payload
    under ``KEY``, and literals point into, around, or far from the table."""
    size = 2 * draw(halfwords)
    data = bytearray(draw(st.binary(min_size=size, max_size=size)))
    base = draw(st.sampled_from([DEFAULT_BASE, 0x08000000]))
    offsets = []
    for _ in range(draw(st.integers(0, 6))):
        if offsets and draw(st.booleans()):
            off = offsets[-1] + 2 * draw(st.integers(1, TRAMPOLINE_CORE // 2 - 1))
        else:
            off = 2 * draw(st.integers(0, size // 2 - 1))
        mask = draw(st.integers(1, 0x1FFF))
        payload = draw(st.sampled_from([
            Pop(RegisterList(mask | 1 << 15)), Push(RegisterList(mask | 1 << 14)), BxLr(), None,
        ]))
        sealed = b"" if payload is None else encrypt_bytes(encode(payload), KEY)
        literal = draw(st.one_of(
            st.integers(-8, SRAM_SIZE - STACK_RESERVE + 8).map(lambda o: DEFAULT_TABLE_BASE + o),
            st.integers(0, 0xFFFFFFFF),
        ))
        if plant_signature(data, base, off, draw(st.integers(0, 255)), literal, sealed):
            offsets.append(off)
    return FirmwareImage(base, bytes(data))


@pytest.fixture(scope="session")
def corpus():
    """A small mixed corpus: leaves, multiple register-list shapes."""
    return generate_corpus(CorpusParams(function_count=24, seed=7))


@pytest.fixture(scope="session")
def obfuscated(corpus):
    image, manifest = corpus
    return obfuscate_returns(image, manifest, KEY)


@pytest.fixture(scope="session")
def hardened(corpus):
    image, manifest = corpus
    himg, hman, pads = harden(image, manifest, KEY, kmax=3, rotate=True, seed=11)
    return himg, hman, pads


@pytest.fixture(scope="session")
def multi_epilogue_corpus():
    return generate_corpus(
        CorpusParams(function_count=18, seed=21, multi_epilogue_prob=0.5)
    )
