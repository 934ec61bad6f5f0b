"""Return-instruction obfuscation and the boot-time table reconstruction.

The transform replaces every return with a three-instruction trampoline that
loads a table address, adds a per-site offset, and jumps into a RAM table
where the decrypted return executes.  The encrypted return halfwords stay in
flash right behind each trampoline, followed by the word holding the table
base for that site, which is exactly what the boot pass (and any attacker)
uses to find them again.

The boot pass is modeled offline and split in two.  The per-image half,
``boot_scan``, walks the image like the in-firmware initialization would
and decrypts every sealed slot; its ``BootPlan`` is memoised on the image
per key and encodes each table entry the first time a boot needs it.  The
per-boot half only places those entries, and neither kind reads a
manifest.  A plain table (``build_table``) adds them with ``RamTable.add``,
which checks each against the entry before it.  A rotated boot
(``BootPlan.rotated_table``) draws positions and joins the drawn entries'
bytes, each entry checked and padded to the next site once per plan.
Rotated tables of one plan share their entries and the layout naming their
draws; each holds only its drawn positions, its entry list and its bytes.

Rotation planning lives here too: a rotation-capable site reserves table
room for the longest rotated sequence, and the rotated boot checks it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from . import isa
from ._rewrite import (
    BlobItem,
    InsnItem,
    Program,
    TrampolineGeometry,
    TrampolineItem,
    TrampolineRecord,
    lift,
    signature_offsets,
)
from .image import FirmwareImage, Manifest, commit
from .isa import BranchW, BxLr, Nop, Pop, Push, RegisterList, encode, is_return

#: Table entry granularity in bytes; plain return entries use one stride.
TABLE_STRIDE = 4

#: Bytes of boot-scan placeholder inserted at the image start.
INIT_STUB_BYTES = 32

#: The adds immediate is one byte; larger offsets move into the literal.
OFFSET_BLOCK = 256


class ObfuscationError(Exception):
    pass


class IntegrityError(ObfuscationError):
    """Decrypted bytes are not a plausible instruction: wrong key or a
    corrupted image."""


class TableCapacityError(ObfuscationError):
    pass


class HardenError(ObfuscationError):
    """A hardening step (rotation planning, push sealing, rotated tables)
    cannot run on its input."""


def check_key(key: int) -> int:
    if not 1 <= key <= 0xFFFF:
        raise ObfuscationError(f"key must be a nonzero 16-bit value, got {key:#x}")
    return key


def encrypt_halfword(hw: int, key: int) -> int:
    """XOR cipher over one halfword; an involution, so decryption is the
    same operation."""
    check_key(key)
    return (hw ^ key) & 0xFFFF


def encrypt_bytes(data: bytes, key: int) -> bytes:
    if len(data) % 2:
        raise ObfuscationError("ciphertext must cover whole halfwords")
    out = bytearray()
    for i in range(0, len(data), 2):
        hw = int.from_bytes(data[i : i + 2], "little")
        out += encrypt_halfword(hw, key).to_bytes(2, "little")
    return bytes(out)


@dataclass
class RotationPlan:
    """One return-address placement and the instruction pair realizing it.

    ``position`` is the stack slot (0 = lowest address) the return address
    occupies; position == len(regs) reproduces the plain push/pop pair.
    """

    regs: RegisterList
    position: int
    pop_sequence: list
    push_sequence: list

    @property
    def layout(self) -> list[str]:
        """Stack contents from the lowest address upward."""
        names = list(self.regs.names())
        split = len(names) - self.position
        return names[split:] + ["ret"] + names[:split]

    @property
    def stack_words(self) -> int:
        return len(self.regs) + 1


_LR_BIT, _PC_BIT = 1 << isa.LR, 1 << isa.PC


def plan_rotation(regs: RegisterList, position: int) -> RotationPlan:
    """Build the split pop/push sequences placing the return address at
    ``position``.

    The family is the cyclic rotations of the plain layout: a contiguous
    split keeps every emitted register list ascending, hence encodable.
    """
    regs = regs.without_flags()
    indices = regs.indices()
    n = len(indices)
    if not 0 <= position <= n:
        raise HardenError(f"position {position} out of range for {n} registers")
    if position == n:
        return RotationPlan(regs, position, [Pop(RegisterList(regs.mask | _PC_BIT))],
                            [Push(RegisterList(regs.mask | _LR_BIT))])
    # The head, never empty here, is the n - position lowest registers.
    head_mask = regs.mask & ((1 << indices[n - position]) - 1) if position else regs.mask
    head = RegisterList(head_mask)
    tail_lr = RegisterList(regs.mask & ~head_mask | _LR_BIT)
    return RotationPlan(regs, position, [Pop(tail_lr), Pop(head), BxLr()],
                        [Push(head), Push(tail_lr)])


def rotation_plans(insn) -> list[RotationPlan]:
    """Every rotation plan of the sealed pop or push ``insn``; none for ``bx lr``."""
    if not isinstance(insn, (Pop, Push)):
        return []
    regs = insn.regs.without_flags()
    return [plan_rotation(regs, position) for position in range(len(regs) + 1)]


def _entry_capacity(insn, plans: list[RotationPlan]) -> int:
    """Table bytes a sealed return or push reserves: its own entry or, given
    its ``rotation_plans``, the longest entry any of them produces.  A push's
    entry ends in a 4-byte branch back to the function."""
    sequences = [p.push_sequence if isinstance(insn, Push) else p.pop_sequence for p in plans]
    size = max(sum(i.byte_length() for i in seq) for seq in sequences or [[insn]])
    return size if is_return(insn) else size + 4


def plaintext_site(prog: Program, kind: str, fn_name: str, site: int) -> int:
    """Item index of the plaintext ``kind`` ("return" or "push") at
    ``site`` in ``fn_name``; raises unless the item there is one."""
    idx = prog.index_at(site)
    item = prog.items[idx]
    insn = item.insn if isinstance(item, InsnItem) else None
    if not (is_return(insn) if kind == "return" else isinstance(insn, Push)):
        raise ObfuscationError(f"site 0x{site:x} in {fn_name} is not a plaintext {kind}")
    return idx


def seal_sites(
    prog: Program,
    kind: str,
    sites: list[tuple[str, int]],
    key: int,
    image: FirmwareImage,
    rotation_capable: bool,
) -> None:
    """Replace the instruction at each ``(function, address)`` site of
    ``image`` (lifted as ``prog``) with a trampoline sealing it.  ``kind`` is
    "return" or "push".  Table room is reserved at stride granularity after
    every trampoline ``prog`` holds, within ``image.table_room``."""
    next_offset = max(
        (rec.table_offset + rec.capacity for rec in prog.trampoline_records()), default=0
    )
    for fn_name, site in sites:
        idx = plaintext_site(prog, kind, fn_name, site)
        insn = prog.items[idx].insn
        plain = encode(insn)
        offset = next_offset
        plans = rotation_plans(insn) if rotation_capable else []
        size = -(-_entry_capacity(insn, plans) // TABLE_STRIDE) * TABLE_STRIDE
        next_offset += size
        if next_offset > image.table_room:
            raise TableCapacityError(
                f"table needs {next_offset} bytes, capacity {image.table_room}"
            )
        block = offset // OFFSET_BLOCK
        record = TrampolineRecord(
            kind=kind,
            fn=fn_name,
            item_start=0,  # assigned at layout
            enc=encrypt_bytes(plain, key),
            adds_imm=offset - block * OFFSET_BLOCK,
            literal_value=image.table_base + block * OFFSET_BLOCK,
            table_offset=offset,
            capacity=size,
        )
        prog.items[idx] = TrampolineItem(record, orig_addr=site)


def obfuscate_returns(
    image: FirmwareImage,
    manifest: Manifest,
    key: int,
    *,
    rotation_capable: bool = False,
) -> tuple[FirmwareImage, Manifest, list[TrampolineRecord]]:
    """Encrypt every return and plant a trampoline in front of it.

    A boot-scan placeholder is spliced at the image start.  With
    ``rotation_capable`` each site reserves enough table room for any
    rotated replacement sequence, so per-boot draws always fit.
    """
    check_key(key)
    if manifest.has_pass("obfuscate_returns"):
        raise ObfuscationError("image is already return-obfuscated")
    prog = lift(image, manifest)
    if manifest.functions:
        prog.insert(0, BlobItem(encode(Nop()) * (INIT_STUB_BYTES // 2)))
    sites = [(fn.name, site) for fn in manifest.functions for site in fn.epilogue_sites]
    seal_sites(prog, "return", sites, key, image, rotation_capable)
    new_image, new_manifest = commit(
        prog,
        image,
        manifest,
        "obfuscate_returns",
        rotation_capable=rotation_capable,
        init_stub_bytes=INIT_STUB_BYTES if manifest.functions else 0,
        leaf_returns_obfuscated=True,
    )
    return new_image, new_manifest, prog.trampoline_records()


@dataclass
class RawSighting(TrampolineGeometry):
    """A trampoline signature match found by scanning image bytes alone."""

    core: int
    adds_imm: int
    literal_value: int = 0
    enc_window: bytes = b""  # the bytes between the jump and the literal


def scan_trampolines(data: bytes, base: int) -> list[RawSighting]:
    """Find every halfword-aligned trampoline signature.

    This is the same walk the boot-time initialization performs, which is
    precisely why the obfuscation cannot hide return locations: anything the
    boot pass can find, an attacker can find.
    """
    sightings = []
    for off in signature_offsets(data):
        sighting = RawSighting(core=base + off, adds_imm=data[off + 2])
        lit_off = sighting.literal_slot - base
        if lit_off + 4 > len(data):
            continue
        sighting.literal_value = int.from_bytes(data[lit_off : lit_off + 4], "little")
        sighting.enc_window = bytes(data[sighting.enc_slot - base : lit_off])
        sightings.append(sighting)
    return sightings


@dataclass(frozen=True)
class TableEntry:
    """One encoded entry: ``data`` at ``offset`` bytes into the table, for
    the trampoline whose core is at ``site``.  Boot plans share entries
    across tables, hence frozen."""

    offset: int
    data: bytes
    text: str
    site: int


@dataclass(frozen=True)
class DrawLayout:
    """What the draws of every rotated table of one boot plan share: each
    push group's register names, and the rows naming the draws,
    ``(function, group)``.  A row's function is None for an unnamed draw,
    its group None for a function that draws nothing (a leaf)."""

    names: tuple[tuple[str, ...], ...]
    rows: tuple[tuple[str | None, int | None], ...]

    def slots(self, group: int | None) -> int:
        """The stack slots a group's return address is drawn from; 0 for
        no group."""
        return 0 if group is None else len(self.names[group]) + 1

    def draws(self, positions: bytes) -> list[dict]:
        """The rows as JSON, each group at its drawn position."""
        out = []
        for fn, group in self.rows:
            draw = {"slots": self.slots(group), "position": 0}
            if group is not None:
                draw.update(position=positions[group], regs=list(self.names[group]))
            if fn is not None:
                draw["fn"] = fn
            out.append(draw)
        return out


def _check_entry(entry: TableEntry, start: int, room: int) -> None:
    """Refuse ``entry`` unless it starts inside a table of ``room`` bytes, on
    a stride boundary at or after ``start`` (where the entry before it
    ends), and ends within the room."""
    offset, size = entry.offset, len(entry.data)
    if not 0 <= offset < room:
        raise IntegrityError(f"site 0x{entry.site:x}: entry outside table")
    if offset % TABLE_STRIDE or offset < start:
        raise IntegrityError(
            f"site 0x{entry.site:x}: table entry +{offset} is misaligned "
            "or overlaps the previous entry"
        )
    if offset + size > room:
        raise TableCapacityError(f"table size {offset + size} exceeds {room}")


@dataclass
class RamTable:
    """The rebuilt instruction table: ``room`` bytes of RAM from ``base``.

    ``image`` holds the table's bytes from ``base`` to the end of the last
    entry, zero between entries, as the boot pass leaves RAM.  A rotated
    table also holds its drawn position per push group, and the layout its
    plan's tables share."""

    base: int
    room: int
    entries: list[TableEntry] = field(default_factory=list)
    image: bytearray = field(default_factory=bytearray, repr=False)
    positions: bytes = b""
    layout: DrawLayout | None = None

    def add(self, entry: TableEntry) -> None:
        """Place ``entry`` after the entries already placed."""
        _check_entry(entry, self.size, self.room)
        self.entries.append(entry)
        self.image += bytes(entry.offset - len(self.image)) + entry.data

    @property
    def size(self) -> int:
        return len(self.image)

    @property
    def draws(self) -> list[dict]:
        """Each draw as JSON: none for a plain table."""
        return [] if self.layout is None else self.layout.draws(self.positions)

    def install(self, state) -> None:
        """Write the table into ``state``'s RAM in one slice; a
        ``MachineFault`` unless it lies wholly in the table region."""
        state.write_table(self.base, self.image)

    def to_json(self) -> dict:
        return {
            "base": f"0x{self.base:x}",
            "stride": TABLE_STRIDE,
            "entries": [
                {"offset": e.offset, "data": e.data.hex(), "text": e.text}
                for e in self.entries
            ],
            "draws": self.draws,
        }


def decode_sealed(key: int, sighting: RawSighting):
    """Decrypt the sealed slot of one site and decode the hidden instruction.
    ``isa.decode`` is canonical, so encoding the instruction gives back the
    decrypted bytes.

    Raises IntegrityError unless ``isa.decode`` reads the plaintext as a
    return or an lr-pushing push, the only things the transform ever seals.
    """
    plain = encrypt_bytes(sighting.enc_window[:4], key)
    try:
        insn = isa.decode(plain)[0]
    except isa.TruncatedStreamError:
        insn = None
    if is_return(insn) or (isinstance(insn, Push) and insn.regs.has_lr):
        return insn
    raise IntegrityError(
        f"site 0x{sighting.core:x}: decrypted word 0x{int.from_bytes(plain[:2], 'little'):04x} "
        "is not a return or prologue push (wrong key or corrupted image)"
    )


def entry_bytes_for(seq, sighting: RawSighting, table_base: int) -> TableEntry:
    """The entry for the instruction sequence ``seq`` at the sighting's entry
    address, in a table at ``table_base``.  A sequence ending in a push (a
    sealed prologue) branches back to the sighting's resume address; an
    IntegrityError names the site when that branch cannot be encoded."""
    if isinstance(seq[-1], Push):
        seq = [*seq, BranchW(sighting.resume)]
    data = bytearray()
    try:
        for insn in seq:
            data += encode(insn, address=sighting.entry_address + len(data))
    except isa.EncodingError as exc:  # the branch back cannot reach the site
        raise IntegrityError(f"site 0x{sighting.core:x}: {exc}") from None
    return TableEntry(
        sighting.entry_address - table_base,
        bytes(data),
        "; ".join(insn.text() for insn in seq),
        sighting.core,
    )


@dataclass
class BootPlan:
    """The per-image half of the boot pass for one key.

    ``sites`` holds every trampoline in entry-address order with its sealed
    instruction.  ``placed`` fills as rotated boots draw positions: one row
    per site holds, per position (only 0 for an unrotated site), the site's
    entry, checked once, then its bytes padded up to the next site's entry,
    so a boot is one join.  ``layouts`` maps each naming of the draws that
    boots asked for to its ``DrawLayout``.  Nothing here depends on a
    manifest."""

    table_base: int
    table_room: int
    sites: list[tuple[RawSighting, isa.Instruction]]
    placed: list = field(default_factory=list, repr=False)
    layouts: dict = field(default_factory=dict, repr=False)

    @cached_property
    def push_groups(self) -> tuple[list[tuple[tuple[str, ...], list[RotationPlan]]], list]:
        """Each push group's register names and rotation plans, and each
        site's group index (None: an unrotated ``bx lr``).  In core order a
        sealed push opens a group and a sealed pop joins it.  Each site's
        room, up to the next entry, must hold its longest rotated sequence,
        found once per distinct sealed instruction (a pop restores its
        push's registers)."""
        groups, group_of, pushes = [], {}, {}
        for sighting, insn in sorted(self.sites, key=lambda site: site[0].core):
            if isinstance(insn, Push):
                if insn not in pushes:
                    pushes[insn] = insn.regs.without_flags().names(), rotation_plans(insn)
                groups.append(pushes[insn])
            elif not isinstance(insn, Pop):
                continue
            elif not groups:
                raise HardenError(f"site 0x{sighting.core:x}: no sealed push before this "
                                  "return; harden with --rotate on")
            elif insn.regs.without_flags() != groups[-1][1][0].regs:
                raise IntegrityError(f"site 0x{sighting.core:x}: {insn.text()} does not "
                                     "restore the registers of the sealed push before it")
            group_of[sighting.core] = len(groups) - 1
        site_groups = [group_of.get(s.core) for s, _ in self.sites]
        ends = [s.entry_address for s, _ in self.sites[1:]] + [self.table_base + self.table_room]
        needs = {}
        for (sighting, insn), group, end in zip(self.sites, site_groups, ends):
            need = needs.get(insn) or needs.setdefault(
                insn, _entry_capacity(insn, [] if group is None else groups[group][1]))
            if need > end - sighting.entry_address:
                raise HardenError(f"site 0x{sighting.core:x}: no table room for its "
                                  f"{need}-byte rotated sequence; harden with --rotate on")
        return groups, site_groups

    def rotated_table(self, seed: int, functions: tuple | None = None) -> RamTable:
        """One rotated boot: a ``random.Random(seed)`` draw per push group in
        core order.  Its draws are unnamed, or named by ``functions`` (see
        ``draw_layout``)."""
        groups, site_groups = self.push_groups
        rng = random.Random(seed)
        positions = bytes([rng.randint(0, len(plans) - 1) for _, plans in groups])
        if not self.placed:
            self.placed = [[None] * (2 if group is None else 2 * len(groups[group][1]))
                           for group in site_groups]
        placed, place = self.placed, self._place
        entries, chunks = [], [b""]
        for index, group in enumerate(site_groups):
            row, at = placed[index], 0 if group is None else 2 * positions[group]
            if row[at] is None:
                place(index, at // 2)
            entries.append(row[at])
            chunks.append(row[at + 1])
        chunks[0] = bytes(entries[0].offset if entries else 0)
        return RamTable(self.table_base, self.table_room, entries, b"".join(chunks),
                        positions, self.draw_layout(functions))

    def _place(self, index: int, position: int) -> None:
        """Fill site ``index``'s row at ``position``: the entry, checked, then
        its bytes padded to the next site's entry.  The sites are in entry
        order and ``push_groups`` bounds each entry by the next site's, so
        rotated entries never overlap the one before."""
        groups, site_groups = self.push_groups
        sighting, insn = self.sites[index]
        seq = [insn]
        if site_groups[index] is not None:
            plan = groups[site_groups[index]][1][position]
            seq = plan.push_sequence if isinstance(insn, Push) else plan.pop_sequence
        entry = entry_bytes_for(seq, sighting, self.table_base)
        _check_entry(entry, 0, self.table_room)
        end = entry.offset + len(entry.data)
        pad = 0 if index + 1 == len(self.sites) else (
            self.sites[index + 1][0].entry_address - self.table_base - end)
        self.placed[index][2 * position : 2 * position + 2] = entry, entry.data + bytes(pad)

    def draw_layout(self, functions: tuple | None = None) -> DrawLayout:
        """The layout every rotated table of this plan shares, made once per
        naming: one unnamed row per push group, or one row per function of
        ``functions``, ``(name, is_leaf)`` pairs in order, where a leaf draws
        nothing and each other function takes the next group."""
        layout = self.layouts.get(functions)
        if layout is None:
            groups, _ = self.push_groups
            if functions is None:
                rows = tuple((None, group) for group in range(len(groups)))
            else:
                non_leaf = sum(not leaf for _, leaf in functions)
                if non_leaf != len(groups):
                    raise HardenError(f"{len(groups)} sealed push group(s) in the image for "
                                      f"{non_leaf} non-leaf function(s) in the manifest")
                order = iter(range(len(groups)))
                rows = tuple((name, None if leaf else next(order)) for name, leaf in functions)
            layout = self.layouts[functions] = DrawLayout(
                tuple(names for names, _ in groups), rows)
        return layout


def boot_scan(image: FirmwareImage, key: int) -> BootPlan:
    """The boot pass's walk: every trampoline in entry-address order, paired
    with its sealed instruction, each slot decrypted once per image and key.
    The plan is memoised on the image only after every slot has decrypted,
    so a wrong key raises IntegrityError on every call."""
    check_key(key)
    plan = image.boot_plans.get(key)
    if plan is None:
        sightings = sorted(
            scan_trampolines(image.data, image.base), key=lambda s: s.entry_address
        )
        sites = [(sighting, decode_sealed(key, sighting)) for sighting in sightings]
        plan = image.boot_plans[key] = BootPlan(image.table_base, image.table_room, sites)
    return plan


def build_table(image: FirmwareImage, key: int) -> RamTable:
    """Reconstruct the RAM table exactly as the boot pass would: place each
    decrypted instruction at its site's table offset."""
    plan = boot_scan(image, key)
    table = RamTable(image.table_base, image.table_room)
    for sighting, insn in plan.sites:
        table.add(entry_bytes_for([insn], sighting, image.table_base))
    return table


#: The high bytes of every halfword a return can start with: ``pop {..., pc}``,
#: ``bx lr`` and the ``pop.w`` prefix (a test checks them against ``isa.decode``).
_RETURN_HIGH_BYTES = b"\xbd\x47\xe8"


def sweep_plaintext(data: bytes, *, exclude: list[tuple[int, int]] = ()) -> list[int]:
    """Halfword-aligned offsets, ascending, where ``isa.decode`` reads a
    plaintext return none of whose halfwords ``exclude`` masks.

    ``exclude`` masks byte ranges (trampoline data slots hold ciphertext and
    literals, which are not code).  Only halfwords whose high byte can start
    a return are decoded; ``bytes.find`` locates them.
    """
    masked = bytearray(len(data))
    for lo, hi in exclude:
        lo = min(max(lo, 0), len(data))
        hi = min(max(hi, lo), len(data))
        masked[lo:hi] = b"\1" * (hi - lo)
    highs = data[1::2]
    hits = []
    for high in _RETURN_HIGH_BYTES:
        idx = highs.find(high)
        while idx >= 0:
            off = 2 * idx
            if not masked[off]:
                try:
                    insn, length = isa.decode(data, off)
                except isa.TruncatedStreamError:  # a wide prefix in the last halfword
                    insn, length = None, 2
                if is_return(insn) and not masked[off + length - 2]:
                    hits.append(off)
            idx = highs.find(high, idx + 1)
    hits.sort()
    return hits


def trampoline_data_ranges(
    image: FirmwareImage, sightings: list[RawSighting] | None = None
) -> list[tuple[int, int]]:
    """Byte ranges (offsets) of the non-code slots inside the trampolines
    ``sightings`` of ``image`` (by default, a fresh scan of it): the sealed
    instruction plus padding plus the literal word."""
    if sightings is None:
        sightings = scan_trampolines(image.data, image.base)
    return [(s.enc_slot - image.base, s.resume - image.base) for s in sightings]
