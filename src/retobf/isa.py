"""Bit-exact encoder/decoder for the Thumb subset used across the project.

Only the instructions needed for prologues, epilogues, trampolines, and the
simple function bodies the corpus generator emits are covered; everything
else decodes to an ``Unknown`` marker so linear sweeps over mixed code and
data never abort.

Encoding table (canonical forms, see README for the full bit patterns):

    movs  rd, #imm8        0x2000 | rd<<8 | imm8
    adds  rd, rn, rm       0x1800 | rm<<6 | rn<<3 | rd
    subs  rd, rn, rm       0x1A00 | rm<<6 | rn<<3 | rd
    adds  r0, #imm8        0x3000 | imm8
    mov   rd, rm           0x4600 | (rd&8)<<4 | rm<<3 | (rd&7)
    mov   pc, r0           0x4687
    bx    lr               0x4770
    ldr   r0, [pc, #imm]   0x4800 | imm/4
    str   rt, [sp, #imm]   0x9000 | rt<<8 | imm/4
    ldr   rt, [sp, #imm]   0x9800 | rt<<8 | imm/4
    add   sp, #imm         0xB000 | imm/4
    sub   sp, #imm         0xB080 | imm/4
    push  {lowregs, lr}    0xB400 | M<<8 | lowbits
    pop   {lowregs, pc}    0xBC00 | P<<8 | lowbits
    nop                    0xBF00
    push.w {...}           0xE92D, (M<<14)|bits(r0-r12)
    pop.w  {...}           0xE8BD, (P<<15)|(M<<14)|bits(r0-r12)
    bl / b.w label         0xF000|S<<10|imm10, (0xD000|0x9000)|J1<<13|J2<<11|imm11
"""

from __future__ import annotations

from dataclasses import dataclass

SP = 13
LR = 14
PC = 15

#: Registers a callee must preserve for its caller (procedure-call standard).
CALLEE_SAVED = tuple(range(4, 12))

REG_NAMES = tuple(f"r{i}" for i in range(13)) + ("sp", "lr", "pc")
_NAME_TO_INDEX = {name: i for i, name in enumerate(REG_NAMES)}
_NAME_TO_INDEX.update({"r13": SP, "r14": LR, "r15": PC})


class IsaError(Exception):
    """Base class for codec errors."""


class EncodingError(IsaError):
    """Instruction cannot be encoded (invalid operands or register list)."""


class TruncatedStreamError(IsaError):
    """Fewer bytes remain than the encoding at this position requires."""


#: The set bits of each byte value, as register indices of a mask's low
#: byte (r0-r7) and high byte (r8-pc).
_LOW_INDICES = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))
_HIGH_INDICES = tuple(tuple(i + 8 for i in low) for low in _LOW_INDICES)


@dataclass(frozen=True, order=True, slots=True)
class RegisterList:
    """Ordered register set for push/pop, kept as a 16-bit mask.

    Bits 0-12 are r0-r12, bit 14 is lr, bit 15 is pc.  sp (bit 13) is never
    a member.  Iteration yields strictly ascending register indices, which is
    also the architectural stack order.
    """

    mask: int = 0

    def __post_init__(self):
        if not 0 <= self.mask <= 0xFFFF:
            raise EncodingError(f"register mask out of range: {self.mask:#x}")
        if self.mask & (1 << SP):
            raise EncodingError("sp cannot appear in a register list")
        if self.has_lr and self.has_pc:
            raise EncodingError("lr and pc cannot both appear in one list")

    @classmethod
    def of(cls, *regs: int | str) -> "RegisterList":
        mask = 0
        for reg in regs:
            idx = _NAME_TO_INDEX[reg.lower()] if isinstance(reg, str) else reg
            if not 0 <= idx <= 15 or idx == SP:
                raise EncodingError(f"invalid register for list: {reg!r}")
            mask |= 1 << idx
        return cls(mask)

    @classmethod
    def from_names(cls, names) -> "RegisterList":
        return cls.of(*names)

    @property
    def low_bits(self) -> int:
        return self.mask & 0xFF

    @property
    def high_bits(self) -> int:
        return (self.mask >> 8) & 0x1F

    @property
    def has_lr(self) -> bool:
        return bool(self.mask & (1 << LR))

    @property
    def has_pc(self) -> bool:
        return bool(self.mask & (1 << PC))

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def indices(self) -> tuple[int, ...]:
        return _LOW_INDICES[self.mask & 0xFF] + _HIGH_INDICES[self.mask >> 8]

    def names(self) -> tuple[str, ...]:
        return tuple(REG_NAMES[i] for i in self.indices())

    def __iter__(self):
        return iter(self.indices())

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, reg: int | str) -> bool:
        idx = _NAME_TO_INDEX[reg.lower()] if isinstance(reg, str) else reg
        return bool(self.mask & (1 << idx))

    def union(self, other: "RegisterList") -> "RegisterList":
        return RegisterList(self.mask | other.mask)

    def intersection(self, other: "RegisterList") -> "RegisterList":
        return RegisterList(self.mask & other.mask)

    def difference(self, other: "RegisterList") -> "RegisterList":
        return RegisterList(self.mask & ~other.mask)

    def without_flags(self) -> "RegisterList":
        """Drop lr/pc, keeping only general registers."""
        return RegisterList(self.mask & 0x1FFF)

    def with_pc_for_lr(self) -> "RegisterList":
        """The epilogue twin of a prologue list: lr replaced by pc."""
        if not self.has_lr:
            raise EncodingError("list has no lr to replace")
        return RegisterList((self.mask & ~(1 << LR)) | (1 << PC))

    def __str__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"


class Instruction:
    """Base class of the closed instruction variant set.  Every variant is a
    frozen dataclass with slots, so an instruction carries no ``__dict__``."""

    __slots__ = ()

    def text(self) -> str:
        raise NotImplementedError

    def byte_length(self) -> int:
        return 2

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, slots=True)
class Push(Instruction):
    regs: RegisterList

    def text(self):
        return f"push {self.regs}"

    def byte_length(self):
        return 2 if self.regs.high_bits == 0 else 4


@dataclass(frozen=True, slots=True)
class Pop(Instruction):
    regs: RegisterList

    def text(self):
        return f"pop {self.regs}"

    def byte_length(self):
        return 2 if self.regs.high_bits == 0 and not self.regs.has_lr else 4


@dataclass(frozen=True, slots=True)
class BxLr(Instruction):
    def text(self):
        return "bx lr"


@dataclass(frozen=True, slots=True)
class LdrLitR0(Instruction):
    """pc-relative literal load into r0; offset is in bytes from Align(pc,4)."""

    offset: int

    def text(self):
        return f"ldr r0, [pc, #{self.offset}]"


@dataclass(frozen=True, slots=True)
class AddsImmR0(Instruction):
    imm: int

    def text(self):
        return f"adds r0, #{self.imm}"


@dataclass(frozen=True, slots=True)
class MovPcR0(Instruction):
    def text(self):
        return "mov pc, r0"


@dataclass(frozen=True, slots=True)
class Bl(Instruction):
    target: int

    def text(self):
        return f"bl 0x{self.target:x}"

    def byte_length(self):
        return 4


@dataclass(frozen=True, slots=True)
class BranchW(Instruction):
    target: int

    def text(self):
        return f"b.w 0x{self.target:x}"

    def byte_length(self):
        return 4


@dataclass(frozen=True, slots=True)
class MovImm(Instruction):
    rd: int
    imm: int

    def text(self):
        return f"movs {REG_NAMES[self.rd]}, #{self.imm}"


@dataclass(frozen=True, slots=True)
class MovReg(Instruction):
    rd: int
    rm: int

    def text(self):
        return f"mov {REG_NAMES[self.rd]}, {REG_NAMES[self.rm]}"


@dataclass(frozen=True, slots=True)
class AddReg(Instruction):
    rd: int
    rn: int
    rm: int

    def text(self):
        return f"adds {REG_NAMES[self.rd]}, {REG_NAMES[self.rn]}, {REG_NAMES[self.rm]}"


@dataclass(frozen=True, slots=True)
class SubReg(Instruction):
    rd: int
    rn: int
    rm: int

    def text(self):
        return f"subs {REG_NAMES[self.rd]}, {REG_NAMES[self.rn]}, {REG_NAMES[self.rm]}"


@dataclass(frozen=True, slots=True)
class StrSpRel(Instruction):
    rt: int
    offset: int

    def text(self):
        return f"str {REG_NAMES[self.rt]}, [sp, #{self.offset}]"


@dataclass(frozen=True, slots=True)
class LdrSpRel(Instruction):
    rt: int
    offset: int

    def text(self):
        return f"ldr {REG_NAMES[self.rt]}, [sp, #{self.offset}]"


@dataclass(frozen=True, slots=True)
class AddSpImm(Instruction):
    imm: int

    def text(self):
        return f"add sp, #{self.imm}"


@dataclass(frozen=True, slots=True)
class SubSpImm(Instruction):
    imm: int

    def text(self):
        return f"sub sp, #{self.imm}"


@dataclass(frozen=True, slots=True)
class Nop(Instruction):
    def text(self):
        return "nop"


@dataclass(frozen=True, slots=True)
class RawWord(Instruction):
    """A 32-bit literal datum.  Emission-only: arbitrary words are not
    distinguishable from code, so the decoder never returns this variant."""

    value: int

    def text(self):
        return f".word 0x{self.value:08x}"

    def byte_length(self):
        return 4


@dataclass(frozen=True, slots=True)
class Unknown(Instruction):
    """Marker for a halfword outside the recognized subset."""

    halfword: int

    def text(self):
        return f".short 0x{self.halfword:04x}"


def _check_reg(idx: int, limit: int, what: str) -> None:
    if not 0 <= idx <= limit:
        raise EncodingError(f"{what} out of range: r{idx}")


def _check_imm(value: int, limit: int, multiple: int, what: str) -> None:
    if not 0 <= value <= limit:
        raise EncodingError(f"{what} out of range: {value}")
    if value % multiple:
        raise EncodingError(f"{what} must be a multiple of {multiple}: {value}")


def _branch_halfwords(disp: int, second_mask: int) -> tuple[int, int]:
    # Displacements wrap in the 32-bit address space.
    disp &= 0xFFFFFFFF
    if disp >= 1 << 31:
        disp -= 1 << 32
    if disp % 2:
        raise EncodingError(f"branch displacement must be even: {disp}")
    if not -(1 << 24) <= disp < (1 << 24):
        raise EncodingError(f"branch displacement out of range: {disp:#x}")
    imm = disp & 0x1FFFFFF
    s = (imm >> 24) & 1
    i1 = (imm >> 23) & 1
    i2 = (imm >> 22) & 1
    j1 = (i1 ^ 1) ^ s
    j2 = (i2 ^ 1) ^ s
    imm10 = (imm >> 12) & 0x3FF
    imm11 = (imm >> 1) & 0x7FF
    return 0xF000 | s << 10 | imm10, second_mask | j1 << 13 | j2 << 11 | imm11


def _branch_target(hw1: int, hw2: int, address: int) -> int:
    s = (hw1 >> 10) & 1
    imm10 = hw1 & 0x3FF
    j1 = (hw2 >> 13) & 1
    j2 = (hw2 >> 11) & 1
    imm11 = hw2 & 0x7FF
    i1 = (j1 ^ 1) ^ s
    i2 = (j2 ^ 1) ^ s
    imm = s << 24 | i1 << 23 | i2 << 22 | imm10 << 12 | imm11 << 1
    if s:
        imm -= 1 << 25
    return (address + 4 + imm) & 0xFFFFFFFF


def encode(insn: Instruction, address: int = 0) -> bytes:
    """Emit the canonical encoding of ``insn``.

    ``address`` is the location the instruction will occupy; it only matters
    for the pc-relative branches (bl / b.w).
    """
    hw: int | None = None
    if isinstance(insn, Push):
        regs = insn.regs
        if regs.is_empty:
            raise EncodingError("push with empty register list")
        if regs.has_pc:
            raise EncodingError("pc cannot be pushed")
        if regs.high_bits == 0:
            hw = 0xB400 | (0x100 if regs.has_lr else 0) | regs.low_bits
        else:
            hw2 = (0x4000 if regs.has_lr else 0) | (regs.mask & 0x1FFF)
            return _pack(0xE92D) + _pack(hw2)
    elif isinstance(insn, Pop):
        regs = insn.regs
        if regs.is_empty:
            raise EncodingError("pop with empty register list")
        if regs.high_bits == 0 and not regs.has_lr:
            hw = 0xBC00 | (0x100 if regs.has_pc else 0) | regs.low_bits
        else:
            hw2 = (
                (0x8000 if regs.has_pc else 0)
                | (0x4000 if regs.has_lr else 0)
                | (regs.mask & 0x1FFF)
            )
            return _pack(0xE8BD) + _pack(hw2)
    elif isinstance(insn, BxLr):
        hw = 0x4770
    elif isinstance(insn, LdrLitR0):
        _check_imm(insn.offset, 1020, 4, "literal offset")
        hw = 0x4800 | insn.offset // 4
    elif isinstance(insn, AddsImmR0):
        _check_imm(insn.imm, 255, 1, "add immediate")
        hw = 0x3000 | insn.imm
    elif isinstance(insn, MovPcR0):
        hw = 0x4687
    elif isinstance(insn, Bl):
        hw1, hw2 = _branch_halfwords(insn.target - (address + 4), 0xD000)
        return _pack(hw1) + _pack(hw2)
    elif isinstance(insn, BranchW):
        hw1, hw2 = _branch_halfwords(insn.target - (address + 4), 0x9000)
        return _pack(hw1) + _pack(hw2)
    elif isinstance(insn, MovImm):
        _check_reg(insn.rd, 7, "movs destination")
        _check_imm(insn.imm, 255, 1, "mov immediate")
        hw = 0x2000 | insn.rd << 8 | insn.imm
    elif isinstance(insn, MovReg):
        _check_reg(insn.rd, 12, "mov destination")
        _check_reg(insn.rm, 12, "mov source")
        hw = 0x4600 | (insn.rd & 8) << 4 | insn.rm << 3 | (insn.rd & 7)
    elif isinstance(insn, (AddReg, SubReg)):
        for r in (insn.rd, insn.rn, insn.rm):
            _check_reg(r, 7, "register operand")
        base = 0x1800 if isinstance(insn, AddReg) else 0x1A00
        hw = base | insn.rm << 6 | insn.rn << 3 | insn.rd
    elif isinstance(insn, (StrSpRel, LdrSpRel)):
        _check_reg(insn.rt, 7, "transfer register")
        _check_imm(insn.offset, 1020, 4, "sp offset")
        base = 0x9000 if isinstance(insn, StrSpRel) else 0x9800
        hw = base | insn.rt << 8 | insn.offset // 4
    elif isinstance(insn, (AddSpImm, SubSpImm)):
        _check_imm(insn.imm, 508, 4, "sp adjustment")
        base = 0xB000 if isinstance(insn, AddSpImm) else 0xB080
        hw = base | insn.imm // 4
    elif isinstance(insn, Nop):
        hw = 0xBF00
    elif isinstance(insn, RawWord):
        if not 0 <= insn.value <= 0xFFFFFFFF:
            raise EncodingError(f"word out of range: {insn.value:#x}")
        return insn.value.to_bytes(4, "little")
    elif isinstance(insn, Unknown):
        hw = insn.halfword & 0xFFFF
    else:
        raise EncodingError(f"cannot encode {insn!r}")
    return _pack(hw)


def _pack(hw: int) -> bytes:
    return hw.to_bytes(2, "little")


def _mov_reg(hw: int) -> Instruction:
    if hw == 0x4687:
        return MovPcR0()
    rd = (hw & 7) | ((hw >> 4) & 8)
    rm = (hw >> 3) & 0xF
    return MovReg(rd, rm) if rd <= 12 and rm <= 12 else Unknown(hw)


def _push(hw: int) -> Instruction:
    mask = (hw & 0xFF) | ((hw >> 8) & 1) << LR
    return Push(RegisterList(mask)) if mask else Unknown(hw)


def _pop(hw: int) -> Instruction:
    mask = (hw & 0xFF) | ((hw >> 8) & 1) << PC
    return Pop(RegisterList(mask)) if mask else Unknown(hw)


#: Narrow decode dispatch: the halfword's high byte (below the wide prefixes
#: at 0xE8) -> handler(halfword) returning the instruction.  ``None`` marks a
#: high byte no encoding in the subset starts with: the halfword is Unknown.
_NARROW: list = [None] * 0xE8
for _highs, _handler in (
    ((0x18, 0x19), lambda hw: AddReg(hw & 7, (hw >> 3) & 7, (hw >> 6) & 7)),
    ((0x1A, 0x1B), lambda hw: SubReg(hw & 7, (hw >> 3) & 7, (hw >> 6) & 7)),
    (range(0x20, 0x28), lambda hw: MovImm((hw >> 8) & 7, hw & 0xFF)),
    ((0x30,), lambda hw: AddsImmR0(hw & 0xFF)),
    ((0x46,), _mov_reg),
    ((0x47,), lambda hw: BxLr() if hw == 0x4770 else Unknown(hw)),
    ((0x48,), lambda hw: LdrLitR0((hw & 0xFF) * 4)),
    (range(0x90, 0x98), lambda hw: StrSpRel((hw >> 8) & 7, (hw & 0xFF) * 4)),
    (range(0x98, 0xA0), lambda hw: LdrSpRel((hw >> 8) & 7, (hw & 0xFF) * 4)),
    ((0xB0,), lambda hw: (SubSpImm if hw & 0x80 else AddSpImm)((hw & 0x7F) * 4)),
    ((0xB4, 0xB5), _push),
    ((0xBC, 0xBD), _pop),
    ((0xBF,), lambda hw: Nop() if hw == 0xBF00 else Unknown(hw)),
):
    for _high in _highs:
        _NARROW[_high] = _handler
del _highs, _handler, _high


def decode(data: bytes, offset: int = 0, address: int = 0) -> tuple[Instruction, int]:
    """Decode one instruction at ``offset``; returns (instruction, length).

    ``address`` is the absolute location of ``offset`` (needed to resolve
    branch targets).  Unrecognized patterns come back as ``Unknown`` with
    length 2; only a stream too short for the encoding raises.
    """
    if offset + 2 > len(data):
        raise TruncatedStreamError(f"need 2 bytes at offset {offset}")
    high = data[offset + 1]
    hw = data[offset] | high << 8
    if high < 0xE8:
        handler = _NARROW[high]
        if handler is None:
            return Unknown(hw), 2
        return handler(hw), 2

    # Wide prefix: hw >> 11 is 0b11101, 0b11110 or 0b11111.
    if offset + 4 > len(data):
        raise TruncatedStreamError(f"need 4 bytes at offset {offset}")
    hw2 = data[offset + 2] | data[offset + 3] << 8
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
            return Bl(_branch_target(hw, hw2, address)), 4
        if (hw2 & 0xD000) == 0x9000:
            return BranchW(_branch_target(hw, hw2, address)), 4
    return Unknown(hw), 2


def is_return(insn: Instruction) -> bool:
    """True exactly for the two return shapes: ``bx lr`` and a pc-popping pop."""
    if isinstance(insn, BxLr):
        return True
    return isinstance(insn, Pop) and insn.regs.has_pc
