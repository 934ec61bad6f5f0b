"""Lift/layout machinery for image rewriting.

Transforms never patch bytes in place: the image is lifted to items at cut
points, edited at the item level, and laid out again.  Layout reassigns
addresses, re-encodes only branches and edited items (straight runs keep their
bytes), and keeps every trampoline's literal reachable by its pc-relative load.

Trampoline shape (the core starts at an address ≡ 2 mod 4 so that the
``ldr r0, [pc, #12]`` reaches the literal):

    core+0   ldr  r0, [pc, #12]
    core+2   adds r0, #imm
    core+4   mov  pc, r0
    core+6   encrypted instruction (2 or 4 bytes)
    ...      nop padding
    core+14  table-base literal word
    core+18  end of core

One leading or trailing nop pads the item to a constant 20-byte footprint,
so relocating a trampoline never changes its size.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from . import isa
from .isa import AddsImmR0, Bl, BranchW, LdrLitR0, MovPcR0, Nop, decode, encode

TRAMPOLINE_CORE = 18
TRAMPOLINE_FOOTPRINT = 20
LDR_LITERAL_IMM = 12
ENC_SLOT_OFFSET = 6
LITERAL_SLOT_OFFSET = 14

_NOP = encode(Nop())

#: The trampoline signature: the first three halfwords ``TrampolineItem.emit``
#: writes (``ldr r0, [pc, #12]``; ``adds r0, #imm``; ``mov pc, r0``).  The
#: adds halfword varies only in its low byte, the immediate.
_SIGNATURE_LDR = encode(LdrLitR0(LDR_LITERAL_IMM))
_SIGNATURE_ADDS_HIGH = encode(AddsImmR0(0))[1]
_SIGNATURE_MOV = encode(MovPcR0())


class RewriteError(Exception):
    """Lift or layout failed (unmapped branch target, bad boundary, ...)."""


def signature_offsets(data: bytes) -> list[int]:
    """Halfword-aligned offsets in ``data`` where a trampoline signature
    starts.  The boot pass, the attack and the corpus generator's guard all
    match trampolines through this one definition."""
    out = []
    off = data.find(_SIGNATURE_LDR)
    while off >= 0:
        if (
            off % 2 == 0
            and off + 6 <= len(data)
            and data[off + 3] == _SIGNATURE_ADDS_HIGH
            and data[off + 4 : off + 6] == _SIGNATURE_MOV
        ):
            out.append(off)
        off = data.find(_SIGNATURE_LDR, off + 1)
    return out


def core_address(item_start: int) -> int:
    """Core start for a trampoline item laid out at ``item_start``."""
    return item_start if item_start % 4 == 2 else item_start + 2


class TrampolineGeometry:
    """Where the parts of one trampoline sit, from its ``core``,
    ``adds_imm`` and ``literal_value``: the one definition the planted
    record, the scanned sighting and the located site share."""

    @property
    def enc_slot(self) -> int:
        return self.core + ENC_SLOT_OFFSET

    @property
    def literal_slot(self) -> int:
        """The word ``ldr r0, [pc, #12]`` at ``core`` loads."""
        return ((self.core + 4) & ~3) + LDR_LITERAL_IMM

    @property
    def resume(self) -> int:
        """Address execution continues at after the table entry runs."""
        return self.literal_slot + 4

    @property
    def entry_address(self) -> int:
        return self.literal_value + self.adds_imm


@dataclass
class TrampolineRecord(TrampolineGeometry):
    """One planted trampoline; serialized into the manifest transform log."""

    kind: str  # "return" or "push"
    fn: str
    item_start: int
    enc: bytes
    adds_imm: int
    literal_value: int
    table_offset: int
    capacity: int

    @property
    def core(self) -> int:
        return core_address(self.item_start)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "fn": self.fn,
            "item_start": f"0x{self.item_start:x}",
            "enc": self.enc.hex(),
            "adds_imm": self.adds_imm,
            "literal_value": f"0x{self.literal_value:x}",
            "table_offset": self.table_offset,
            "capacity": self.capacity,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrampolineRecord":
        return cls(
            kind=obj["kind"],
            fn=obj["fn"],
            item_start=int(obj["item_start"], 16),
            enc=bytes.fromhex(obj["enc"]),
            adds_imm=int(obj["adds_imm"]),
            literal_value=int(obj["literal_value"], 16),
            table_offset=int(obj["table_offset"]),
            capacity=int(obj["capacity"]),
        )


class Item:
    orig_addr: int | None = None

    def size(self) -> int:
        raise NotImplementedError

    def emit(self, addr: int, resolve) -> bytes:
        raise NotImplementedError


class InsnItem(Item):
    __slots__ = ("insn", "target_key", "orig_addr", "data")

    def __init__(self, insn, target_key=None, orig_addr=None, data=None):
        self.insn = insn
        self.target_key = target_key
        self.orig_addr = orig_addr
        self.data = data

    def size(self) -> int:
        return self.insn.byte_length()

    def emit(self, addr: int, resolve) -> bytes:
        if self.data is not None:
            return self.data
        insn = self.insn
        if self.target_key is not None:
            target = resolve(self.target_key)
            if isinstance(insn, Bl):
                insn = Bl(target)
            elif isinstance(insn, BranchW):
                insn = BranchW(target)
        return encode(insn, address=addr)


class BlobItem(Item):
    __slots__ = ("data", "orig_addr")

    def __init__(self, data: bytes, orig_addr=None):
        if len(data) % 2:
            raise RewriteError("blob length must be even")
        self.data = bytes(data)
        self.orig_addr = orig_addr

    def size(self) -> int:
        return len(self.data)

    def emit(self, addr: int, resolve) -> bytes:
        return self.data


class TrampolineItem(Item):
    __slots__ = ("record", "orig_addr")

    def __init__(self, record: TrampolineRecord, orig_addr=None):
        self.record = record
        self.orig_addr = orig_addr

    def size(self) -> int:
        return TRAMPOLINE_FOOTPRINT

    def emit(self, addr: int, resolve) -> bytes:
        rec = self.record
        rec.item_start = addr
        pad = b"" if addr % 4 == 2 else _NOP
        core = bytearray(_SIGNATURE_LDR)
        core += encode(AddsImmR0(rec.adds_imm))
        core += _SIGNATURE_MOV
        core += rec.enc
        while len(core) < LITERAL_SLOT_OFFSET:
            core += _NOP
        core += rec.literal_value.to_bytes(4, "little")
        out = pad + bytes(core)
        out += _NOP * ((TRAMPOLINE_FOOTPRINT - len(out)) // 2)
        if len(out) != TRAMPOLINE_FOOTPRINT or core_address(addr) % 4 != 2:
            raise RewriteError(f"bad trampoline layout at 0x{addr:x}")
        return out


@dataclass
class Layout:
    data: bytes
    addresses: list[int]
    addr_map: dict  # original address (or label key) -> new address


class Program:
    """An ordered item list with symbolic branch targets."""

    def __init__(self, base: int, orig_end: int | None = None):
        self.base = base
        self.items: list[Item] = []
        self.labels: dict = {}
        self.orig_end = orig_end

    def add(self, item: Item) -> int:
        idx = len(self.items)
        self.items.append(item)
        if item.orig_addr is not None:
            self.labels.setdefault(item.orig_addr, idx)
        return idx

    def insert(self, idx: int, item: Item) -> None:
        """Insert ``item`` before the item at ``idx``, shifting the labels of
        every item from ``idx`` on."""
        self.items.insert(idx, item)
        self.labels = {key: i + 1 if i >= idx else i for key, i in self.labels.items()}

    def trampoline_records(self) -> list[TrampolineRecord]:
        """Records of the planted trampolines, in item order."""
        return [item.record for item in self.items if isinstance(item, TrampolineItem)]

    def index_at(self, orig_addr: int) -> int:
        idx = self.labels.get(orig_addr)
        if idx is None:
            raise RewriteError(f"0x{orig_addr:x} is not an item boundary")
        return idx

    def layout(self) -> Layout:
        addresses = []
        addr = self.base
        for item in self.items:
            addresses.append(addr)
            addr += item.size()
        end = addr

        def resolve(key):
            idx = self.labels.get(key)
            if idx is None:
                raise RewriteError(f"unresolved branch target {key!r}")
            return addresses[idx]

        chunks = []
        for item, item_addr in zip(self.items, addresses):
            data = item.emit(item_addr, resolve)
            if len(data) != item.size():
                raise RewriteError("item emitted a different size than declared")
            chunks.append(data)

        # ``add`` labels each item's original address, so the labels map it.
        addr_map = {key: addresses[idx] for key, idx in self.labels.items()}
        if self.orig_end is not None:
            addr_map.setdefault(self.orig_end, end)
        return Layout(b"".join(chunks), addresses, addr_map)


def lift(image, manifest, *cuts: int) -> Program:
    """Decode an image back into a Program, guided by the manifest.

    Function code is decoded once.  Its manifest sites and branches become
    ``InsnItem``s, planted trampolines are rebuilt from the latest
    transform-log snapshot, and each straight run between cut points
    (function edges, branch targets, the extra ``cuts``) and everything
    outside the functions are ``BlobItem``s of their bytes."""
    records = {rec.item_start: rec for rec in manifest.trampoline_records()}
    # Sorted and non-overlapping, as ``Manifest.validate`` requires.
    starts = [fn.start for fn in manifest.functions]
    ends = [fn.end for fn in manifest.functions]
    sites = {site for fn in manifest.functions for site in (fn.prologue_site, *fn.epilogue_sites)}
    base, data, end = image.base, image.data, image.end
    boundaries = sorted({base, end, *starts, *ends, *records})
    cut_at = {*boundaries, *cuts}
    items = {}  # address -> the item there, for all but straight runs
    run_starts = bytearray(len(data))  # 1 at each instruction of a straight run

    def in_function(addr: int) -> bool:
        idx = bisect_right(starts, addr) - 1
        return idx >= 0 and addr < ends[idx]

    addr = base
    while addr < end:
        if addr in records:
            item = TrampolineItem(records[addr], orig_addr=addr)
        elif not in_function(addr):
            stop = boundaries[bisect_right(boundaries, addr)]
            item = BlobItem(data[addr - base : stop - base], orig_addr=addr)
        else:
            insn, length = decode(data, addr - base, addr)
            if isinstance(insn, isa.Unknown):
                raise RewriteError(f"cannot lift unknown halfword at 0x{addr:x}")
            if isinstance(insn, (Bl, BranchW)):
                cut_at.add(insn.target)
                item = InsnItem(insn, target_key=insn.target, orig_addr=addr)
            elif addr in sites:
                item = InsnItem(insn, orig_addr=addr, data=data[addr - base : addr - base + length])
            else:
                run_starts[addr - base] = 1
                addr += length
                continue
        items[addr] = item
        addr += item.size()
        cut_at.add(addr)

    prog = Program(base, end)
    # A cut inside an instruction or a blob starts nothing, so it labels nothing.
    kept = sorted({*items, *(a for a in cut_at if base <= a < end and run_starts[a - base])})
    for addr, stop in zip(kept, kept[1:] + [end]):
        prog.add(items.get(addr) or BlobItem(data[addr - base : stop - base], orig_addr=addr))
    return prog
