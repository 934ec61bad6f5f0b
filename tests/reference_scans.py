"""Linear-search reference versions of the library's image scans.

Each function here is the straightforward form of a scan the library runs
with bisect, a dict, a byte mask or a per-segment summary: ``any()`` over
every exclude range for each halfword, a walk over every segment for each
lookup, the full filter over a segment for the instructions before a hit,
``any()`` over every function for each lifted address, a segment sweep with
the previous decoder, the gadget window builder that re-checks every suffix,
and the two recovery methods, the gadget catalog and the baseline scan
walking each segment's instruction objects from that sweep.  Nothing here
calls the library's window builder or its segment summaries.  The plaintext
sweep here keeps its own loose raw bit-pattern classifier, which over-reports,
and ``decoded_returns`` filters it with the previous decoder; no private name
of the library is imported.  The oracle tests require the library to give
equal results.
"""

import reference_decode
from retobf import isa
from retobf._rewrite import TRAMPOLINE_FOOTPRINT, BlobItem, InsnItem, Program, TrampolineItem
from retobf.attack import (
    CONF_EXTENDED,
    CONF_FLOOR,
    CONF_LEAF,
    CONF_PROLOGUE,
    CONF_REGION,
    GADGET_WINDOW,
    LIVENESS_WINDOW,
    SYMMETRY_WINDOW,
    GadgetCandidate,
    ImageView,
    Prediction,
    SegmentSummary,
)
from retobf.isa import (
    AddReg,
    AddSpImm,
    Bl,
    BranchW,
    LdrSpRel,
    MovImm,
    MovReg,
    Nop,
    Pop,
    Push,
    RegisterList,
    SubReg,
    decode,
    is_return,
)
from retobf.obfuscation import trampoline_data_ranges

#: First halfwords of the wide pop and push encodings.
WIDE_POP = 0xE8BD
WIDE_PUSH = 0xE92D


def classify_halfword(hw):
    """Raw bit-pattern class of one halfword: a pc-popping or lr-pushing
    narrow pop/push, ``bx lr``, or the prefix of a wide pop/push."""
    if (hw & 0xFF00) == 0xBD00:
        return "pop-pc"
    if hw == 0x4770:
        return "bx-lr"
    if (hw & 0xFF00) == 0xB500:
        return "push-lr"
    if hw in (WIDE_POP, WIDE_PUSH):
        return "wide-prefix"
    return None


def wide_list_plausible(prefix, hw2):
    """Raw check of the register-list halfword after a wide prefix: a pop
    must load pc and not lr, a push must store lr.  Looser than
    ``isa.decode`` on purpose: the reserved bit and whether the list needs
    the wide form are not checked, so this sweep over-reports rather than
    misses a wide return or push."""
    if prefix == WIDE_POP:
        return hw2 & 0xC000 == 0x8000
    return bool(hw2 & 0x4000)


def sweep_plaintext(data, exclude=(), want="returns"):
    """The loose raw-pattern sweep: every unmasked halfword offset whose
    bits look like a return (``want="returns"``) or an lr push
    (``want="pushes"``), wide ones with their second halfword unmasked."""
    def masked(off):
        return any(lo <= off < hi for lo, hi in exclude)

    if want == "returns":
        narrow, wide = ("pop-pc", "bx-lr"), WIDE_POP
    else:
        narrow, wide = ("push-lr",), WIDE_PUSH
    hits = []
    for off in range(0, len(data) - 1, 2):
        if masked(off):
            continue
        hw = int.from_bytes(data[off : off + 2], "little")
        if classify_halfword(hw) in narrow or (
            hw == wide
            and off + 4 <= len(data)
            and not masked(off + 2)
            and wide_list_plausible(hw, int.from_bytes(data[off + 2 : off + 4], "little"))
        ):
            hits.append(off)
    return hits


def decoded_returns(data, exclude=()):
    """The loose sweep's return hits that ``decode`` reads as a return."""
    return [off for off in sweep_plaintext(data, exclude)
            if is_return(reference_decode.decode(data, off)[0])]


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


def segment_insns(view, idx):
    """``segment_sweep`` of the view's segment ``idx``."""
    return segment_sweep(view.image, *view.segments[idx])


def _admissible(insn, kind):
    if isinstance(insn, (MovImm, MovReg, AddReg, SubReg, Nop, LdrSpRel, AddSpImm)):
        return True
    if isinstance(insn, Bl):
        return kind == "pop"
    if isinstance(insn, Pop) and not insn.regs.has_pc:
        return kind == "pop" or not insn.regs.has_lr
    return False


def _sp_words(insn):
    if isinstance(insn, AddSpImm):
        return insn.imm // 4
    if isinstance(insn, Pop):
        return len(insn.regs)
    return 0


def candidates_for(window_insns, terminator, site_address):
    """Slice, check and format every suffix of the window again."""
    kind, reglist = terminator
    out = []
    for k in range(0, min(GADGET_WINDOW, len(window_insns)) + 1):
        suffix = window_insns[len(window_insns) - k :]
        if any(not _admissible(insn, kind) for _, insn in suffix):
            continue
        sp_words = sum(_sp_words(insn) for _, insn in suffix)
        if kind == "pop":
            m = len(reglist)
            delta = 4 * (sp_words + m)
            slot = sp_words + m - 1
        else:
            delta = 4 * sp_words
            slot = None
        start = suffix[0][0] if suffix else site_address
        out.append(
            GadgetCandidate(
                start=start,
                site_address=site_address,
                instructions=[insn.text() for _, insn in suffix],
                stack_delta=delta,
                pc_slot_index=slot,
            )
        )
    return out


def baseline_gadget_scan(image):
    view = ImageView(image)
    catalog = []
    for off in decoded_returns(image.data, trampoline_data_ranges(image)):
        addr = image.base + off
        insn, _ = decode(image.data, off, addr)
        terminator = ("pop", insn.regs) if isinstance(insn, Pop) else ("bx_lr", None)
        seg_idx = segment_at(view, addr)
        if seg_idx is None:
            continue
        preceding = [(a, i) for a, i in segment_insns(view, seg_idx) if a < addr]
        catalog.extend(candidates_for(preceding, terminator, addr))
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


def _written_callee_saved(insns):
    mask = 0
    for _, insn in insns:
        dest = None
        if isinstance(insn, (MovImm, MovReg, AddReg, SubReg)):
            dest = insn.rd
        elif isinstance(insn, LdrSpRel):
            dest = insn.rt
        elif isinstance(insn, Pop):
            mask |= insn.regs.mask & 0x0FF0
        if dest is not None and 4 <= dest <= 11:
            mask |= 1 << dest
    return RegisterList(mask & 0x0FF0)


def _has_call(insns):
    return any(isinstance(insn, Bl) for _, insn in insns)


def _real_code(insns):
    return any(not isinstance(insn, (Nop, isa.Unknown)) for _, insn in insns)


def segment_summary(image, lo, hi):
    """A segment's summary, read off its object sweep."""
    insns = segment_sweep(image, lo, hi)
    pushes = [a for a, i in insns if isinstance(i, Push) and i.regs.has_lr]
    since_push = [(a, i) for a, i in insns if not pushes or a > pushes[-1]]
    return SegmentSummary(
        pushes=pushes,
        written=_written_callee_saved(insns).mask,
        written_since_push=_written_callee_saved(since_push).mask,
        has_call=_has_call(insns),
        real_code=_real_code(insns),
        starts=[a for a, _ in insns],
    )


def recover_by_symmetry(view, site):
    """Walk back instruction by instruction from the site's segment."""
    failure = view.overlap_failure(site, "symmetry")
    if failure is not None:
        return failure
    seg = view.segment_before(site.core)
    found = None
    distance = 0
    crossed = 0
    extra_pushes = 0
    for idx in range(seg, -1, -1):
        for addr, insn in reversed(segment_insns(view, idx)):
            distance = site.core - addr
            if distance > SYMMETRY_WINDOW:
                break
            if isinstance(insn, Push) and insn.regs.has_lr:
                if found is None:
                    found = (addr, insn, distance, crossed)
                else:
                    extra_pushes += 1
        if distance > SYMMETRY_WINDOW or idx == 0:
            break
        crossed += 1
    if found is None:
        return Prediction(site, "symmetry", ok=False, reason="no push-with-lr within window")
    addr, push, dist, crossed_at = found
    confidence = max(
        CONF_FLOOR,
        1.0 - 0.5 * dist / SYMMETRY_WINDOW - 0.1 * crossed_at - 0.05 * extra_pushes,
    )
    return Prediction(site, "symmetry", ok=True, kind="pop",
                      reglist=push.regs.with_pc_for_lr(), confidence=confidence)


def recover_by_liveness(view, site):
    """Filter and re-walk the decoded segments for every verdict."""
    failure = view.overlap_failure(site, "liveness")
    if failure is not None:
        return failure
    seg = view.segment_before(site.core)
    w0 = segment_insns(view, seg)
    pc = RegisterList.of("pc")
    anchor = None
    for addr, insn in reversed(w0):
        if isinstance(insn, Push) and insn.regs.has_lr:
            anchor = addr
            break
    if anchor is not None:
        tail = [(a, i) for a, i in w0 if a > anchor]
        return Prediction(site, "liveness", ok=True, kind="pop",
                          reglist=_written_callee_saved(tail).union(pc),
                          confidence=CONF_PROLOGUE)
    if not _real_code(w0):
        return Prediction(site, "liveness", ok=False, reason="no function body precedes site")
    if not _has_call(w0) and _written_callee_saved(w0).is_empty:
        return Prediction(site, "liveness", ok=True, kind="bx_lr", confidence=CONF_LEAF)
    collected = list(w0)
    for idx in range(seg - 1, -1, -1):
        insns = segment_insns(view, idx)
        if insns and site.core - insns[0][0] > LIVENESS_WINDOW:
            break
        pushes = [a for a, i in insns if isinstance(i, Push) and i.regs.has_lr]
        if pushes:
            anchor = max(pushes)
            collected = [(a, i) for a, i in insns if a > anchor] + collected
            return Prediction(site, "liveness", ok=True, kind="pop",
                              reglist=_written_callee_saved(collected).union(pc),
                              confidence=CONF_EXTENDED)
        collected = insns + collected
    return Prediction(site, "liveness", ok=True, kind="pop",
                      reglist=_written_callee_saved(w0).union(pc), confidence=CONF_REGION)


def build_gadget_catalog(view, predictions):
    """Windows over each site's whole decoded segment."""
    catalog = []
    for pred in predictions:
        if not pred.ok or pred.kind not in ("pop", "bx_lr"):
            continue
        seg = view.segment_before(pred.site.core)
        terminator = (pred.kind, pred.reglist)
        catalog.extend(candidates_for(segment_insns(view, seg), terminator, pred.site.core))
    return catalog
