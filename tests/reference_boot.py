"""Reference boot pass: the uncached table builders the boot plan replaced.

Every call scans the image, decrypts every slot and encodes every entry
afresh, with no state kept between calls, and every table keeps its own
draw dicts and slot counts.  ``tests/test_boot_plan.py`` checks that the memoised
``build_table`` and ``build_rotated_table`` give the same tables, in JSON
and in RAM bytes, whatever order they run in, and that
``position_distribution`` counts what ``reference_position_distribution``
counts from those dicts.
"""

import random

from retobf.isa import BranchW, BxLr, EncodingError, Pop, Push, RegisterList, encode
from retobf.obfuscation import (
    TABLE_STRIDE,
    HardenError,
    IntegrityError,
    RotationPlan,
    TableCapacityError,
    check_key,
    decode_sealed,
    scan_trampolines,
)


class ReferenceTable:
    """The table as a list of (offset, bytes, text) and the RAM bytes from
    its base, zero between entries."""

    def __init__(self, base: int, room: int):
        self.base, self.room = base, room
        self.entries: list[tuple[int, bytes, str]] = []
        self.draws: list[dict] = []
        #: Stack slots per function, 0 for a leaf; not part of the JSON.
        self.slots: dict[str, int] = {}
        self.image = bytearray()

    def add(self, sighting, seq, capacity=None) -> None:
        offset = sighting.entry_address - self.base
        if not 0 <= offset < self.room:
            raise IntegrityError(f"site 0x{sighting.core:x}: entry outside table")
        if offset % TABLE_STRIDE or offset < len(self.image):
            raise IntegrityError(f"site 0x{sighting.core:x}: misaligned or overlapping")
        if isinstance(seq[-1], Push):
            seq = [*seq, BranchW(sighting.resume)]
        data = bytearray()
        try:
            for insn in seq:
                data += encode(insn, address=sighting.entry_address + len(data))
        except EncodingError as exc:
            raise IntegrityError(f"site 0x{sighting.core:x}: {exc}") from None
        if capacity is not None and len(data) > capacity:
            raise TableCapacityError(f"entry at +{offset} exceeds its reservation")
        if offset + len(data) > self.room:
            raise TableCapacityError(f"table size {offset + len(data)} exceeds {self.room}")
        self.entries.append((offset, bytes(data), "; ".join(i.text() for i in seq)))
        self.image += bytes(offset - len(self.image)) + data

    def to_json(self) -> dict:
        return {
            "base": f"0x{self.base:x}",
            "stride": TABLE_STRIDE,
            "entries": [
                {"offset": offset, "data": data.hex(), "text": text}
                for offset, data, text in self.entries
            ],
            "draws": self.draws,
        }


def reference_plan_rotation(regs: RegisterList, position: int) -> RotationPlan:
    """``plan_rotation`` built from register names, list by list."""
    regs = regs.without_flags()
    n = len(regs)
    if not 0 <= position <= n:
        raise HardenError(f"position {position} out of range for {n} registers")
    lr = RegisterList.of("lr")
    pc = RegisterList.of("pc")
    if position == n:
        return RotationPlan(regs, position, [Pop(regs.union(pc))], [Push(regs.union(lr))])
    names = regs.indices()
    split = n - position
    head = RegisterList.of(*names[:split])
    tail = RegisterList.of(*names[split:])
    pop_seq: list = [Pop(tail.union(lr))]
    if not head.is_empty:
        pop_seq.append(Pop(head))
    pop_seq.append(BxLr())
    push_seq = []
    if not head.is_empty:
        push_seq.append(Push(head))
    push_seq.append(Push(tail.union(lr)))
    return RotationPlan(regs, position, pop_seq, push_seq)


def _scan(image, key):
    check_key(key)
    sightings = sorted(scan_trampolines(image.data, image.base), key=lambda s: s.entry_address)
    return [(sighting, decode_sealed(key, sighting)) for sighting in sightings]


def reference_table(image, key) -> ReferenceTable:
    table = ReferenceTable(image.table_base, image.table_room)
    for sighting, insn in _scan(image, key):
        table.add(sighting, [insn])
    return table


def reference_rotated_table(image, manifest, key, seed) -> ReferenceTable:
    scanned = _scan(image, key)
    sealed = {type(insn) for _, insn in scanned}
    if not (manifest.rotation_capable and (Push in sealed or Pop not in sealed)):
        raise HardenError("rotation needs sealed pushes and rotation room")
    records = {rec.core: rec for rec in manifest.sites}
    unmatched = records.keys() ^ {sighting.core for sighting, _ in scanned}
    if unmatched:
        raise HardenError(
            f"trampoline at 0x{min(unmatched):x} is not both recorded and in the image"
        )
    pushes = {fn.name: None for fn in manifest.functions}
    for sighting, insn in scanned:
        if isinstance(insn, Push):
            pushes[records[sighting.core].fn] = insn.regs.without_flags()
    rng = random.Random(seed)
    table = ReferenceTable(image.table_base, image.table_room)
    for fn, regs in pushes.items():
        table.slots[fn] = 0 if regs is None else len(regs) + 1
        if regs is not None:
            table.draws.append({"fn": fn, "position": rng.randint(0, len(regs))})
    plans = {
        d["fn"]: reference_plan_rotation(pushes[d["fn"]], d["position"]) for d in table.draws
    }
    for sighting, insn in scanned:
        rec = records[sighting.core]
        plan = plans.get(rec.fn)
        if plan is None:
            seq = [insn]
        else:
            seq = plan.push_sequence if isinstance(insn, Push) else plan.pop_sequence
        table.add(sighting, seq, rec.capacity)
    return table


def reference_position_distribution(tables) -> dict[str, dict]:
    """The position histogram counted from each table's own draw dicts."""
    hist = {
        fn: {
            "slots": slots,
            "counts": [0] * max(slots, 1),
            "degenerate": slots <= 1 or len(tables) == 1,
        }
        for fn, slots in tables[0].slots.items()
    }
    for table in tables:
        for d in table.draws:
            hist[d["fn"]]["counts"][d["position"]] += 1
    return hist
