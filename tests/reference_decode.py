"""The previous Thumb decoder, kept as an oracle for ``retobf.isa.decode``.

It reads the halfword with ``int.from_bytes`` and tests each narrow
encoding in turn, an ``if`` chain of up to 17 tests, where the library
dispatches on the high byte through a table.  Both must return the same
instruction, fields and length, or raise the same ``TruncatedStreamError``.
"""

from retobf.isa import (
    LR,
    PC,
    AddReg,
    AddSpImm,
    AddsImmR0,
    Bl,
    BranchW,
    BxLr,
    LdrLitR0,
    LdrSpRel,
    MovImm,
    MovPcR0,
    MovReg,
    Nop,
    Pop,
    Push,
    RegisterList,
    StrSpRel,
    SubReg,
    SubSpImm,
    TruncatedStreamError,
    Unknown,
)


def branch_target(hw1, hw2, address):
    """The bl / b.w target: pc plus SignExtend(S:I1:I2:imm10:imm11:'0'),
    with I1 = NOT(J1 XOR S) and I2 = NOT(J2 XOR S), spelled out as a bit
    string."""
    s = (hw1 >> 10) & 1
    j1, j2 = (hw2 >> 13) & 1, (hw2 >> 11) & 1
    i1, i2 = 1 - (j1 ^ s), 1 - (j2 ^ s)
    bits = f"{s}{i1}{i2}{hw1 & 0x3FF:010b}{hw2 & 0x7FF:011b}0"
    offset = int(bits, 2) - (1 << 25 if s else 0)
    return (address + 4 + offset) % (1 << 32)


def _is_wide_prefix(hw):
    return (hw >> 11) in (0b11101, 0b11110, 0b11111)


def decode(data, offset=0, address=0):
    if offset + 2 > len(data):
        raise TruncatedStreamError(f"need 2 bytes at offset {offset}")
    hw = int.from_bytes(data[offset : offset + 2], "little")

    if _is_wide_prefix(hw):
        if offset + 4 > len(data):
            raise TruncatedStreamError(f"need 4 bytes at offset {offset}")
        hw2 = int.from_bytes(data[offset + 2 : offset + 4], "little")
        if hw == 0xE92D:  # push.w
            mask = (hw2 & 0x1FFF) | ((hw2 >> 14) & 1) << LR
            if not hw2 & 0xA000 and mask and (mask >> 8) & 0x1F:
                return Push(RegisterList(mask)), 4
        elif hw == 0xE8BD:  # pop.w
            pc_bit = (hw2 >> 15) & 1
            lr_bit = (hw2 >> 14) & 1
            mask = (hw2 & 0x1FFF) | lr_bit << LR | pc_bit << PC
            wide_needed = ((hw2 >> 8) & 0x1F) or lr_bit
            if not hw2 & 0x2000 and not (pc_bit and lr_bit) and mask and wide_needed:
                return Pop(RegisterList(mask)), 4
        elif (hw & 0xF800) == 0xF000:
            if (hw2 & 0xD000) == 0xD000:
                return Bl(branch_target(hw, hw2, address)), 4
            if (hw2 & 0xD000) == 0x9000:
                return BranchW(branch_target(hw, hw2, address)), 4
        return Unknown(hw), 2

    if (hw & 0xF800) == 0x2000:
        return MovImm((hw >> 8) & 7, hw & 0xFF), 2
    if (hw & 0xFF00) == 0x3000:
        return AddsImmR0(hw & 0xFF), 2
    if (hw & 0xFE00) == 0x1800:
        return AddReg(hw & 7, (hw >> 3) & 7, (hw >> 6) & 7), 2
    if (hw & 0xFE00) == 0x1A00:
        return SubReg(hw & 7, (hw >> 3) & 7, (hw >> 6) & 7), 2
    if hw == 0x4687:
        return MovPcR0(), 2
    if (hw & 0xFF00) == 0x4600:
        rd = (hw & 7) | ((hw >> 4) & 8)
        rm = (hw >> 3) & 0xF
        if rd <= 12 and rm <= 12:
            return MovReg(rd, rm), 2
        return Unknown(hw), 2
    if hw == 0x4770:
        return BxLr(), 2
    if (hw & 0xFF00) == 0x4800:
        return LdrLitR0((hw & 0xFF) * 4), 2
    if (hw & 0xF800) == 0x9000:
        return StrSpRel((hw >> 8) & 7, (hw & 0xFF) * 4), 2
    if (hw & 0xF800) == 0x9800:
        return LdrSpRel((hw >> 8) & 7, (hw & 0xFF) * 4), 2
    if (hw & 0xFF80) == 0xB000:
        return AddSpImm((hw & 0x7F) * 4), 2
    if (hw & 0xFF80) == 0xB080:
        return SubSpImm((hw & 0x7F) * 4), 2
    if (hw & 0xFE00) == 0xB400:
        mask = (hw & 0xFF) | ((hw >> 8) & 1) << LR
        if mask:
            return Push(RegisterList(mask)), 2
        return Unknown(hw), 2
    if (hw & 0xFE00) == 0xBC00:
        mask = (hw & 0xFF) | ((hw >> 8) & 1) << PC
        if mask:
            return Pop(RegisterList(mask)), 2
        return Unknown(hw), 2
    if hw == 0xBF00:
        return Nop(), 2
    return Unknown(hw), 2
