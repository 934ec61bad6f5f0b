"""Linear-search reference versions of the library's image scans.

Each function here is the straightforward form of a scan the library runs
with bisect, a dict or a byte mask: ``any()`` over every exclude range for
each halfword, a walk over every segment for each lookup, the full filter
over a segment for the instructions before a hit, ``any()`` over every
function for each lifted address, and a segment sweep with the previous
decoder.  The oracle tests require the library to give equal results.
"""

import reference_decode
from retobf import isa
from retobf._rewrite import TRAMPOLINE_FOOTPRINT, BlobItem, InsnItem, Program, TrampolineItem
from retobf.attack import ImageView, _candidates_for
from retobf.isa import Bl, BranchW, Pop, decode, is_return
from retobf.obfuscation import (
    _WIDE_POP,
    _WIDE_PUSH,
    _classify_halfword,
    _wide_list_plausible,
    trampoline_data_ranges,
)


def sweep_plaintext(data, exclude=(), want="returns"):
    def masked(off):
        return any(lo <= off < hi for lo, hi in exclude)

    if want == "returns":
        narrow, wide = ("pop-pc", "bx-lr"), _WIDE_POP
    else:
        narrow, wide = ("push-lr",), _WIDE_PUSH
    hits = []
    for off in range(0, len(data) - 1, 2):
        if masked(off):
            continue
        hw = int.from_bytes(data[off : off + 2], "little")
        if _classify_halfword(hw) in narrow or (
            hw == wide
            and off + 4 <= len(data)
            and not masked(off + 2)
            and _wide_list_plausible(hw, int.from_bytes(data[off + 2 : off + 4], "little"))
        ):
            hits.append(off)
    return hits


def segment_before(view, addr):
    """Index of the first segment ending exactly at ``addr``, or None."""
    for idx, (lo, hi) in enumerate(view.segments):
        if hi == addr and lo <= addr:
            return idx
    return None


def segment_at(view, addr):
    """Index of the first segment holding ``addr``, or None."""
    return next((i for i, (lo, hi) in enumerate(view.segments) if lo <= addr < hi), None)


def segment_sweep(image, lo, hi):
    """[(address, instruction)] over flash [lo, hi), decoded one by one with
    the previous decoder.  A wide prefix in the image's last halfword and an
    instruction that runs past ``hi`` each end the sweep as one
    ``Unknown(0)`` covering the rest; an unrecognised wide prefix is an
    ``Unknown(hw)`` of two bytes and the sweep goes on."""
    out = []
    addr = lo
    while addr < hi:
        off = addr - image.base
        hw = int.from_bytes(image.data[off : off + 2], "little")
        if hw >= 0xE800 and off + 4 > len(image.data):
            out.append((addr, isa.Unknown(0)))
            break
        insn, length = reference_decode.decode(image.data, off, addr)
        if addr + length > hi:
            out.append((addr, isa.Unknown(0)))
            break
        out.append((addr, insn))
        addr += length
    return out


def baseline_gadget_scan(image):
    exclude = trampoline_data_ranges(image)
    hits = sweep_plaintext(image.data, exclude=exclude, want="returns")
    view = ImageView(image)
    catalog = []
    for off in hits:
        addr = image.base + off
        insn, _ = decode(image.data, off, addr)
        if not is_return(insn):
            continue
        terminator = ("pop", insn.regs) if isinstance(insn, Pop) else ("bx_lr", None)
        seg_idx = segment_at(view, addr)
        if seg_idx is None:
            continue
        preceding = [(a, i) for a, i in view.decoded(seg_idx) if a < addr]
        catalog.extend(_candidates_for(preceding, terminator, addr))
    return catalog


def lift(image, manifest):
    records = {rec.item_start: rec for rec in manifest.trampoline_records()}
    fn_bounds = [(fn.start, fn.end) for fn in manifest.functions]
    prog = Program(image.base)
    end = image.base + len(image.data)
    prog.orig_end = end
    boundaries = sorted(
        {image.base, end} | {s for s, _ in fn_bounds} | {e for _, e in fn_bounds} | set(records)
    )

    def in_function(addr):
        return any(s <= addr < e for s, e in fn_bounds)

    addr = image.base
    while addr < end:
        if addr in records:
            prog.add(TrampolineItem(records[addr], orig_addr=addr))
            addr += TRAMPOLINE_FOOTPRINT
            continue
        if not in_function(addr):
            stop = min(b for b in boundaries if b > addr)
            stop = min(stop, min((a for a in records if a > addr), default=end))
            prog.add(BlobItem(image.data[addr - image.base : stop - image.base], orig_addr=addr))
            addr = stop
            continue
        insn, length = decode(image.data, addr - image.base, addr)
        if isinstance(insn, isa.Unknown):
            raise ValueError(f"cannot lift unknown halfword at 0x{addr:x}")
        target_key = insn.target if isinstance(insn, (Bl, BranchW)) else None
        prog.add(InsnItem(insn, target_key=target_key, orig_addr=addr))
        addr += length
    return prog


def program_items(prog):
    """A comparable form of a lifted program's items."""
    out = []
    for item in prog.items:
        if isinstance(item, InsnItem):
            out.append(("insn", item.orig_addr, item.insn, item.target_key))
        elif isinstance(item, BlobItem):
            out.append(("blob", item.orig_addr, item.data))
        else:
            out.append(("trampoline", item.orig_addr, item.record))
    return out
