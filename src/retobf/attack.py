"""De-obfuscation pipeline: everything here sees image bytes only.

The locator replays the boot pass's own signature scan; the two recovery
methods then reconstruct each hidden return's register list from prologue
symmetry and from callee-saved register usage, and the catalog builder
turns predictions into usable gadget entries (stack delta plus the slot the
next chain address goes in).  Both methods and the catalog read one
``SegmentSummary`` per code segment, sliced from one whole-image pass of
effect codes.
Ground truth enters only in ``evaluate_recovery``, which is the evaluator's
tool, not the attacker's.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import compress, count, repeat
from operator import eq, itemgetter, lt, or_
from typing import NamedTuple

from . import isa
from .image import FirmwareImage, Manifest
from .isa import (
    PC,
    AddReg,
    AddSpImm,
    Bl,
    LdrSpRel,
    MovImm,
    MovReg,
    Nop,
    Pop,
    Push,
    RegisterList,
    SubReg,
    decode,
)
from .obfuscation import RawSighting, scan_trampolines, sweep_plaintext, trampoline_data_ranges

SYMMETRY_WINDOW = 512
LIVENESS_WINDOW = 2048
GADGET_WINDOW = 8

#: Confidence levels, fixed so reports are stable:
#: an unambiguous prologue in the site's own code run scores highest, then a
#: leaf verdict, then an anchor recovered across intervening trampolines,
#: then a bare region boundary (sealed-prologue images).
CONF_PROLOGUE = 1.0
CONF_LEAF = 0.9
CONF_EXTENDED = 0.8
CONF_REGION = 0.7
CONF_FLOOR = 0.05

#: The verdict lists every attack result carries, in report order.
METHODS = ("symmetry", "liveness", "combined")

#: Effect-code bits (see ``_effect``); bits 4-11 are the callee-saved
#: registers an instruction writes.
_REAL, _PUSH_LR, _CALL = 1, 2, 4
_CALLEE_SAVED = 0x0FF0

#: The only code ``_effect`` gives a push-with-lr.
_PUSH_WITH_LR = _PUSH_LR | _REAL

#: Effect code of every halfword read as one instruction.  Narrow ones (high
#: byte below the wide prefixes at 0xE8) are filled from ``decode`` the first
#: time a summarised segment holds them; -1 marks one not seen yet.  A lone
#: wide prefix decodes as ``Unknown``, so every entry from 0xE800 up is 0.
_EFFECTS = array("h", [-1]) * 0x10000
_EFFECTS[0xE800:] = array("h", [0]) * 0x1800


class AttackError(Exception):
    pass


class LineageError(AttackError):
    """Attack output and manifest belong to different image builds."""


def _effect(insn) -> int:
    """What the recovery methods need of one instruction: the callee-saved
    registers it writes, and whether it is code (not nop or junk), a
    push-with-lr or a call."""
    if isinstance(insn, (Nop, isa.Unknown)):
        return 0
    if isinstance(insn, (MovImm, MovReg, AddReg, SubReg)):
        code = 1 << insn.rd & _CALLEE_SAVED
    elif isinstance(insn, LdrSpRel):
        code = 1 << insn.rt & _CALLEE_SAVED
    elif isinstance(insn, Pop):
        code = insn.regs.mask & _CALLEE_SAVED
    elif isinstance(insn, Push) and insn.regs.has_lr:
        code = _PUSH_LR
    elif isinstance(insn, Bl):
        code = _CALL
    else:
        code = 0
    return code | _REAL


#: Halfwords looked up in the effect table at once.
_LOOKUP_CHUNK = 4096

#: Pair codes besides effect codes (see ``_pair_codes``).
_NO_PAIR, _DECODE = -2, -1


def _pair_codes(first: int) -> tuple[int, ...]:
    """Per high byte of a second halfword, read off ``decode``: ``_NO_PAIR``
    unless ``first`` and such a halfword are one 4-byte instruction, else
    the pair's effect code when it is the same at low bytes 0x00 and 0xFF
    (the tests check every low byte), else ``_DECODE``."""
    prefix = first.to_bytes(2, "little")
    codes = []
    for high in range(256):
        insn, length = decode(prefix + bytes((0, high)))
        code = _effect(insn) if length == 4 else _NO_PAIR
        if length == 4 and code != _effect(decode(prefix + bytes((0xFF, high)))[0]):
            code = _DECODE
        codes.append(code)
    return tuple(codes)


#: The halfwords that open a 4-byte instruction, ``(mask, value)``, each with
#: its pair codes: bl/b.w (high byte 0xF0-0xF7), push.w and pop.w.
_OPENERS = tuple((mask, value, _pair_codes(value))
                 for mask, value in ((0xF800, 0xF000), (0xFFFF, 0xE92D), (0xFFFF, 0xE8BD)))
#: 1 at each high byte some opener has.
_OPENER_HIGHS = bytes(any(h << 8 & mask == value & mask & 0xFF00 for mask, value, _ in _OPENERS)
                      for h in range(256))


class SegmentSummary(NamedTuple):
    """One sweep of a code segment: its push-with-lr addresses (ascending);
    the callee-saved registers written in all of it, and after its last
    push-with-lr (all of it when it has none), as masks; whether it calls
    out, and whether it holds anything but nops and junk; and the start
    address of each of its instructions (ascending)."""

    pushes: list[int]
    written: int
    written_since_push: int
    has_call: bool
    real_code: bool
    starts: list[int]


def find_trampolines(image: FirmwareImage) -> list[RawSighting]:
    """Locate every halfword-aligned trampoline signature, exactly the way
    the boot-time initialization does; the scan walks forward, so the
    sightings come in address order."""
    return scan_trampolines(image.data, image.base)


class ImageView:
    """Code segments of an image with its trampoline regions cut out.

    The view locates the sites itself with ``find_trampolines``.  A site's
    region runs from its core to its ``resume`` address.  A signature that
    starts inside the previous site's region (crafted or corrupted bytes)
    extends that region instead of opening a segment; ``overlaps`` maps it
    to the site it overlaps.

    The first summary looks the whole image up in the effect table: the
    view keeps one code per halfword (an array) and the halfwords that open
    a valid 4-byte pair, with their pair codes; both are freed with it.
    """

    def __init__(self, image: FirmwareImage):
        self.image = image
        self.sites = find_trampolines(image)
        self.segments: list[tuple[int, int]] = []
        self.overlaps: dict[int, int] = {}
        cursor, prev = image.base, None
        for site in self.sites:
            if site.core < cursor:
                self.overlaps[site.core] = prev
            else:
                self.segments.append((cursor, site.core))
            prev, cursor = site.core, site.resume
        self.segments.append((cursor, image.end))
        self._starts = [lo for lo, _ in self.segments]
        self._ending_at = {hi: idx for idx, (_, hi) in enumerate(self.segments)}
        self._summaries: dict[int, SegmentSummary] = {}
        self._codes: array | None = None
        self._pairs: list[int] = []
        self._pair_codes: list[int] = []

    def overlap_failure(self, site: RawSighting, method: str) -> Prediction | None:
        """The ``ok=False`` verdict for a site inside another site's core."""
        outer = self.overlaps.get(site.core)
        if outer is None:
            return None
        return Prediction(site, method, ok=False, reason=f"overlaps site 0x{outer:x}")

    def segment_before(self, addr: int) -> int:
        """Index of the segment that ends exactly at ``addr``."""
        idx = self._ending_at.get(addr)
        if idx is None:
            raise AttackError(f"no code segment ends at 0x{addr:x}")
        return idx

    def segment_at(self, addr: int) -> int | None:
        """Index of the segment holding ``addr``; None inside a region."""
        idx = bisect_right(self._starts, addr) - 1
        return idx if idx >= 0 and addr < self.segments[idx][1] else None

    def decode_at(self, addr: int, hi: int) -> tuple[isa.Instruction, int]:
        """(instruction, length) at ``addr`` in a segment ending at ``hi``.
        A wide prefix in the image's last halfword and an instruction that
        runs past ``hi`` are each ``Unknown(0)`` covering the rest."""
        try:
            insn, length = decode(self.image.data, addr - self.image.base, addr)
        except isa.TruncatedStreamError:
            return isa.Unknown(0), hi - addr
        if addr + length > hi:
            return isa.Unknown(0), hi - addr
        return insn, length

    def _sweep(self) -> None:
        """Look every halfword of the image up in the effect table, and find
        each halfword that opens a 4-byte instruction with the next, with
        its pair code."""
        data = self.image.data
        halfwords = array("H", data)
        if sys.byteorder == "big":
            halfwords.byteswap()
        # C-level lookups, a chunk at a time, because each halfword is an int
        # object while its chunk is looked up; the two extra lookups keep the
        # result a tuple for a chunk of fewer than two halfwords.
        codes = array("h")
        for at in range(0, len(halfwords), _LOOKUP_CHUNK):
            codes += array("h", itemgetter(*halfwords[at:at + _LOOKUP_CHUNK], 0, 0)(_EFFECTS)[:-2])
        highs = data[1::2]
        marks, last = highs.translate(_OPENER_HIGHS), len(highs) - 1
        pairs, pair_codes = [], []
        i = marks.find(1)
        while 0 <= i < last:
            for mask, value, opener_codes in _OPENERS:
                if halfwords[i] & mask == value:
                    code = opener_codes[highs[i + 1]]
                    if code != _NO_PAIR:
                        pairs.append(i)
                        pair_codes.append(code)
                    break
            i = marks.find(1, i + 1)
        self._codes, self._pairs, self._pair_codes = codes, pairs, pair_codes

    def summary(self, idx: int) -> SegmentSummary:
        """The segment's summary, read off its slice of the image's codes.
        Halfwords not seen before are decoded into the table.  The 4-byte
        pairs in it are walked from its start: each takes its pair code
        (decoding it where that is ``_DECODE``) and its second halfword is
        no instruction start."""
        summary = self._summaries.get(idx)
        if summary is not None:
            return summary
        if self._codes is None:
            self._sweep()
        lo, hi = self.segments[idx]
        base, data, pairs = self.image.base, self.image.data, self._pairs
        first, end = (lo - base) // 2, (hi - base) // 2
        codes = self._codes[first:end]
        if -1 in codes:
            for i in compress(count(first), map(eq, codes, repeat(-1))):
                halfword = data[2 * i] | data[2 * i + 1] << 8
                code = _EFFECTS[halfword]
                if code < 0:
                    code = _EFFECTS[halfword] = _effect(decode(data, 2 * i)[0])
                codes[i - first] = code
        starts = list(range(lo, hi, 2))
        # A pair whose second halfword is at or past ``hi`` stays Unknown(0).
        at = bisect_left(pairs, first)
        stop = bisect_left(pairs, end - 1, at)
        seconds = []
        after = first
        for i, code in zip(pairs[at:stop], self._pair_codes[at:stop]):
            if i < after:  # the second halfword of the pair before
                continue
            if code == _DECODE:
                code = _effect(decode(data, 2 * i, base + 2 * i)[0])
            codes[i - first] = code
            codes[i + 1 - first] = 0
            seconds.append(i + 1 - first)
            after = i + 2
        for second in reversed(seconds):
            del starts[second]
        pushes, push = [], -1
        for _ in range(codes.count(_PUSH_WITH_LR)):
            push = codes.index(_PUSH_WITH_LR, push + 1)
            pushes.append(lo + 2 * push)
        seen = reduce(or_, codes, 0)
        since_push = reduce(or_, codes[push:], 0) if pushes else seen
        summary = self._summaries[idx] = SegmentSummary(
            pushes=pushes,
            written=seen & _CALLEE_SAVED,
            written_since_push=since_push & _CALLEE_SAVED,
            has_call=bool(seen & _CALL),
            real_code=bool(seen & _REAL),
            starts=starts,
        )
        return summary


@dataclass
class Prediction:
    """One method's verdict for one site.

    ``kind`` is "pop" (with ``reglist``), "bx_lr" (a link-register return:
    nothing is popped), or "ambiguous" (methods disagreed; ``union`` holds
    both pop verdicts' registers).  A method that could not run yields
    ``ok=False`` with a reason, which is distinct from a wrong prediction.
    Its JSON record omits ``method``: the report files it under that key.
    """

    site: RawSighting
    method: str
    ok: bool
    kind: str | None = None
    reglist: RegisterList | None = None
    confidence: float = 0.0
    reason: str = ""
    union: RegisterList | None = None

    def to_json(self) -> dict:
        return {
            "site": f"0x{self.site.core:x}",
            "ok": self.ok,
            "kind": self.kind,
            "reglist": None if self.reglist is None else list(self.reglist.names()),
            "confidence": round(self.confidence, 4),
            "reason": self.reason,
            "union": None if self.union is None else list(self.union.names()),
        }

    @classmethod
    def from_json(cls, obj: dict, site: RawSighting, method: str) -> "Prediction":
        def regs(names):
            return None if names is None else RegisterList.from_names(names)

        return cls(
            site=site,
            method=method,
            ok=obj["ok"],
            kind=obj["kind"],
            reglist=regs(obj["reglist"]),
            confidence=obj["confidence"],
            reason=obj["reason"],
            union=regs(obj["union"]),
        )


def recover_by_symmetry(view: ImageView, site: RawSighting) -> Prediction:
    """Predict the hidden pop from the nearest preceding push-with-lr.

    Prologues and epilogues are symmetrical: the epilogue pops what the
    prologue pushed, with lr replaced by pc.  The backward scan steps over
    intervening trampolines (they are recognizable), paying a confidence
    penalty per region crossed and per extra push in range.
    """
    failure = view.overlap_failure(site, "symmetry")
    if failure is not None:
        return failure
    seg = view.segment_before(site.core)
    floor = site.core - SYMMETRY_WINDOW
    found = None
    in_range = 0
    for idx in range(seg, -1, -1):
        if view.segments[idx][1] <= floor:
            break
        pushes = view.summary(idx).pushes
        near = len(pushes) - bisect_left(pushes, floor)
        if near and found is None:
            found = (pushes[-1], seg - idx)
        in_range += near
    if found is None:
        return Prediction(site, "symmetry", ok=False, reason="no push-with-lr within window")
    addr, crossed = found
    push, _ = decode(view.image.data, addr - view.image.base, addr)
    extra_pushes = in_range - 1
    confidence = max(
        CONF_FLOOR,
        1.0 - 0.5 * (site.core - addr) / SYMMETRY_WINDOW - 0.1 * crossed - 0.05 * extra_pushes,
    )
    return Prediction(site, "symmetry", ok=True, kind="pop",
                      reglist=push.regs.with_pc_for_lr(), confidence=confidence)


def recover_by_liveness(view: ImageView, site: RawSighting) -> Prediction:
    """Predict the hidden pop from callee-saved register usage.

    A callee must save every callee-saved register it writes, so the set
    written by the function body is the set popped at its returns.  The
    enclosing function is delimited by the nearest plaintext prologue when
    one survives; otherwise the trampoline region boundary itself serves
    (sealed prologues), and a code run that neither calls out nor touches
    callee-saved registers is classified as a leaf returning via lr.
    """
    failure = view.overlap_failure(site, "liveness")
    if failure is not None:
        return failure

    def pops(written: int, confidence: float) -> Prediction:
        return Prediction(site, "liveness", ok=True, kind="pop",
                          reglist=RegisterList(written | 1 << PC), confidence=confidence)

    seg = view.segment_before(site.core)
    w0 = view.summary(seg)
    if w0.pushes:
        return pops(w0.written_since_push, CONF_PROLOGUE)
    if not w0.real_code:
        return Prediction(
            site, "liveness", ok=False, reason="no function body precedes site"
        )
    if not w0.has_call and not w0.written:
        return Prediction(site, "liveness", ok=True, kind="bx_lr", confidence=CONF_LEAF)
    # The body continues past an intervening trampoline: walk back looking
    # for the prologue, accumulating writes from every code run crossed.
    written = w0.written
    for idx in range(seg - 1, -1, -1):
        lo, hi = view.segments[idx]
        if lo < hi and site.core - lo > LIVENESS_WINDOW:
            break
        summary = view.summary(idx)
        if summary.pushes:
            return pops(written | summary.written_since_push, CONF_EXTENDED)
        written |= summary.written
    # No plaintext prologue in range (sealed pushes): the code run between
    # the preceding trampoline and the site is the best function-body
    # estimate.
    return pops(w0.written, CONF_REGION)


def combine_predictions(sym: Prediction, live: Prediction) -> Prediction:
    """Cross-check the two methods; keep honest uncertainty on disagreement."""
    site = sym.site
    ok = [p for p in (sym, live) if p.ok]
    if not ok:
        return Prediction(site, "combined", ok=False, reason=f"{sym.reason}; {live.reason}")
    if len(ok) == 1:
        return replace(ok[0], method="combined", reason=f"single method: {ok[0].method}")
    a, b = ok
    if a.kind == b.kind and a.reglist == b.reglist:
        return replace(a, method="combined", confidence=max(a.confidence, b.confidence))
    penalty = 0.5 * min(a.confidence, b.confidence)
    if a.kind == "pop" and b.kind == "pop":
        return Prediction(
            site, "combined", ok=True, kind="ambiguous",
            union=a.reglist.union(b.reglist),
            confidence=penalty,
            reason="methods disagree on the register list",
        )
    return Prediction(
        site, "combined", ok=True, kind="ambiguous", confidence=penalty,
        reason=f"methods disagree on return shape ({a.kind} vs {b.kind})",
    )


@dataclass
class GadgetCandidate:
    """A usable gadget: where to enter, how far sp advances through the
    return, and which consumed stack word becomes the next chain address
    (None for lr-routed bx-lr returns)."""

    start: int
    site_address: int
    instructions: list[str]
    stack_delta: int
    pc_slot_index: int | None


#: The return shapes a gadget can end in: a pc-popping pop, or bx lr.
GADGET_KINDS = ("pop", "bx_lr")


@dataclass(slots=True)
class GadgetSite:
    """One site's gadget candidates, as one record of the catalog file: the
    longest admissible window ending at the site, once, in address order,
    the address each of its instructions starts at, and one stack delta per
    candidate.

    The candidate with ``j`` instructions is the window's last ``j``, entered
    at ``starts[K - j]`` (``K`` the window's length), or at the site itself
    for ``j = 0``; its delta is ``stack_delta[j]``.  A pop's next chain
    address sits in the last word it consumes, ``stack_delta[j] // 4 - 1``; a
    bx-lr return takes none from the stack."""

    site: int
    kind: str
    instructions: list[str]
    starts: list[int]
    stack_delta: list[int]

    def __len__(self) -> int:
        return len(self.stack_delta)

    def candidate(self, j: int) -> GadgetCandidate:
        """The candidate with ``j`` instructions."""
        k = len(self.instructions) - j
        delta = self.stack_delta[j]
        return GadgetCandidate(
            start=self.starts[k] if j else self.site,
            site_address=self.site,
            instructions=self.instructions[k:],
            stack_delta=delta,
            pc_slot_index=delta // 4 - 1 if self.kind == "pop" else None,
        )

    def candidates(self) -> list[GadgetCandidate]:
        """Every candidate, the bare return first."""
        return [self.candidate(j) for j in range(len(self))]

    def to_json(self) -> dict:
        return {
            "site": f"0x{self.site:x}",
            "kind": self.kind,
            "instructions": self.instructions,
            "starts": [f"0x{a:x}" for a in self.starts],
            "stack_delta": self.stack_delta,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GadgetSite":
        """Read a record, checked so that every candidate it expands to is
        one ``check_gadget`` can run.  Raises ValueError unless ``kind`` is
        one of ``GADGET_KINDS``, the window's instructions are strings with
        one start each and one delta more, the starts ascend below the site,
        and every delta is a non-negative multiple of 4, and above 0 for a
        pop (its pc slot is one of its words)."""
        kind, texts, deltas = obj["kind"], obj["instructions"], obj["stack_delta"]
        if kind not in GADGET_KINDS:
            raise ValueError(f"kind {kind!r} is not one of {GADGET_KINDS}")
        if type(texts) is not list or not all(type(t) is str for t in texts):
            raise ValueError(f"instructions {texts!r} is not a list of strings")
        if type(obj["starts"]) is not list:
            raise ValueError(f"starts {obj['starts']!r} is not a list")
        site = int(obj["site"], 16)
        starts = [int(a, 16) for a in obj["starts"]]
        if not len(texts) == len(starts) == len(deltas) - 1:
            raise ValueError(f"{len(texts)} instructions, {len(starts)} starts and "
                             f"{len(deltas)} stack deltas: want n, n and n + 1")
        if not all(map(lt, starts, starts[1:] + [site])):
            raise ValueError(f"starts {obj['starts']} do not ascend below site 0x{site:x}")
        least = 4 if kind == "pop" else 0
        for delta in deltas:
            if type(delta) is not int or delta < least or delta % 4:
                raise ValueError(f"stack_delta {delta!r} is not a multiple of 4 "
                                 f"of at least {least} for a {kind} return")
        return cls(site, kind, texts, starts, deltas)


def _admissible(insn, kind: str) -> bool:
    """Window instructions must have a statically known, non-negative stack
    effect and no stores into the attacker-seeded stack; windows ending in a
    bx-lr return additionally must leave lr intact."""
    if isinstance(insn, (MovImm, MovReg, AddReg, SubReg, Nop, LdrSpRel, AddSpImm)):
        return True
    if isinstance(insn, Bl):
        return kind == "pop"
    if isinstance(insn, Pop) and not insn.regs.has_pc:
        return kind == "pop" or not insn.regs.has_lr
    return False


def _sp_words(insn) -> int:
    if isinstance(insn, AddSpImm):
        return insn.imm // 4
    if isinstance(insn, Pop):
        return len(insn.regs)
    return 0


def _gadget_site(
    window_insns: list, terminator: tuple[str, RegisterList | None], site_address: int
) -> GadgetSite:
    """The bare return, then each longer admissible window ending at it, up
    to ``GADGET_WINDOW`` instructions.  One backward walk: every longer
    window holds the first inadmissible instruction met, so it stops there."""
    kind, reglist = terminator
    words = len(reglist) if kind == "pop" else 0
    texts: list[str] = []
    starts: list[int] = []
    deltas = [4 * words]
    for addr, insn in reversed(window_insns[-GADGET_WINDOW:]):
        if not _admissible(insn, kind):
            break
        words += _sp_words(insn)
        texts.append(insn.text())
        starts.append(addr)
        deltas.append(4 * words)
    return GadgetSite(site_address, kind, texts[::-1], starts[::-1], deltas)


def build_gadget_catalog(view: ImageView, predictions: list[Prediction]) -> list[GadgetSite]:
    """One gadget record per usable prediction: the bare return plus every
    admissible instruction window leading into it."""
    catalog = []
    for pred in predictions:
        if not pred.ok or pred.kind not in GADGET_KINDS:
            continue
        core = pred.site.core
        window = [(a, view.decode_at(a, core)[0])
                  for a in view.summary(view.segment_before(core)).starts[-GADGET_WINDOW:]]
        catalog.append(_gadget_site(window, (pred.kind, pred.reglist), core))
    return catalog


def _plaintext_returns(view: ImageView):
    """The classic sweep's starting points: ``(address, segment index)`` of
    each plaintext return ``sweep_plaintext`` finds inside a code segment.
    The view's own sites mask the trampoline data slots."""
    image = view.image
    exclude = trampoline_data_ranges(image, view.sites)
    for off in sweep_plaintext(image.data, exclude=exclude):
        addr = image.base + off
        seg_idx = view.segment_at(addr)
        if seg_idx is not None:
            yield addr, seg_idx


def baseline_gadget_scan(image: FirmwareImage) -> list[GadgetCandidate]:
    """The classic sweep: find every plaintext return and emit backward
    windows.  On an obfuscated image (trampoline data slots masked out, as
    any competent scanner would once it has located them) this returns
    nothing: the starting points are gone."""
    view = ImageView(image)
    catalog = []
    for addr, seg_idx in _plaintext_returns(view):
        insn, _ = decode(image.data, addr - image.base, addr)
        terminator = ("pop", insn.regs) if isinstance(insn, Pop) else ("bx_lr", None)
        # Decode only the instructions _gadget_site can read.
        hi = view.segments[seg_idx][1]
        starts = view.summary(seg_idx).starts
        stop = bisect_left(starts, addr)
        window = [(a, view.decode_at(a, hi)[0]) for a in starts[max(0, stop - GADGET_WINDOW):stop]]
        catalog.extend(_gadget_site(window, terminator, addr).candidates())
    return catalog


def count_terminators(image: FirmwareImage) -> int:
    """The gadget terminators the classic sweep finds: one per plaintext
    return, the zero-instruction candidate ``baseline_gadget_scan`` emits
    for each, counted without building any window."""
    return sum(1 for _ in _plaintext_returns(ImageView(image)))


@dataclass
class AttackResult:
    image_sha256: str
    sites: list[RawSighting]
    predictions: dict[str, list[Prediction]]
    #: The gadget catalog as its file holds it: one record per site with a
    #: usable verdict, in site order.
    gadget_sites: list[GadgetSite]

    @property
    def catalog(self) -> list[GadgetCandidate]:
        """Every gadget candidate, each site's bare return first: the
        records' expansion, built on each read."""
        return [c for site in self.gadget_sites for c in site.candidates()]

    def predictions_at(self, method: str) -> dict[int, Prediction]:
        return {p.site.core: p for p in self.predictions[method]}

    def to_json(self) -> dict:
        """The report form, without the catalog.  ``inferred_table_offset``
        is a site's table entry relative to the lowest entry the image's
        sites point at."""
        min_entry = min((s.entry_address for s in self.sites), default=0)
        return {
            "image_sha256": self.image_sha256,
            "sites": [
                {
                    "address": f"0x{s.core:x}",
                    "adds_imm": s.adds_imm,
                    "literal_value": f"0x{s.literal_value:x}",
                    "encrypted_halfword":
                        f"0x{int.from_bytes(s.enc_window[0:2], 'little'):04x}",
                    "inferred_table_offset": s.entry_address - min_entry,
                }
                for s in self.sites
            ],
            "predictions": {
                method: [p.to_json() for p in preds]
                for method, preds in self.predictions.items()
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AttackResult":
        """Rebuild a result from its ``to_json`` form.  The catalog is not
        part of it (it is stored one ``GadgetSite`` per line, apart), so the
        rebuilt result's catalog is empty.  A rebuilt site's
        ``enc_window`` holds only the encrypted halfword, and
        ``inferred_table_offset`` is derived again when the result is
        written.  A prediction's method is the key it is filed under; the
        ``method`` and ``intersection`` keys of older reports go unread."""
        sites = {}
        for site in obj["sites"]:
            core, halfword = int(site["address"], 16), int(site["encrypted_halfword"], 16)
            if not 0 <= halfword <= 0xFFFF:
                raise ValueError(f"encrypted halfword 0x{halfword:x} out of range")
            sites[core] = RawSighting(
                core=core,
                adds_imm=site["adds_imm"],
                literal_value=int(site["literal_value"], 16),
                enc_window=halfword.to_bytes(2, "little"),
            )
        return cls(
            image_sha256=obj["image_sha256"],
            sites=sorted(sites.values(), key=lambda s: s.core),
            predictions={
                method: [
                    Prediction.from_json(p, sites[int(p["site"], 16)], method)
                    for p in obj["predictions"][method]
                ]
                for method in METHODS
            },
            gadget_sites=[],
        )


def run_attack(image: FirmwareImage) -> AttackResult:
    """Full pipeline over image bytes: locate, recover by both methods,
    cross-check, and build the gadget catalog from the combined verdicts."""
    view = ImageView(image)
    sym = [recover_by_symmetry(view, s) for s in view.sites]
    live = [recover_by_liveness(view, s) for s in view.sites]
    combined = [combine_predictions(a, b) for a, b in zip(sym, live)]
    return AttackResult(
        image_sha256=hashlib.sha256(image.data).hexdigest(),
        sites=view.sites,
        predictions={"symmetry": sym, "liveness": live, "combined": combined},
        gadget_sites=build_gadget_catalog(view, combined),
    )


# ---------------------------------------------------------------------------
# Evaluation (ground truth enters here and only here)


@dataclass
class MethodMetrics:
    total_pop_sites: int = 0
    exact: int = 0
    failures: int = 0
    reg_tp: int = 0
    reg_fp: int = 0
    reg_fn: int = 0
    leaf_total: int = 0
    leaf_correct: int = 0
    fn_total: int = 0
    fn_exact: int = 0
    pad_predicted: int = 0
    calibration: list = field(default_factory=list)

    @property
    def exact_rate(self) -> float | None:
        return None if not self.total_pop_sites else self.exact / self.total_pop_sites

    @property
    def fn_exact_rate(self) -> float | None:
        return None if not self.fn_total else self.fn_exact / self.fn_total

    @property
    def reg_precision(self) -> float | None:
        denom = self.reg_tp + self.reg_fp
        return None if not denom else self.reg_tp / denom

    @property
    def reg_recall(self) -> float | None:
        denom = self.reg_tp + self.reg_fn
        return None if not denom else self.reg_tp / denom

    def to_json(self) -> dict:
        return {
            "pop_sites": self.total_pop_sites,
            "exact": self.exact,
            "exact_rate": self.exact_rate,
            "failures": self.failures,
            "register_precision": self.reg_precision,
            "register_recall": self.reg_recall,
            "leaf_sites": self.leaf_total,
            "leaf_correct": self.leaf_correct,
            "functions": self.fn_total,
            "function_exact_rate": self.fn_exact_rate,
            "pad_registers_predicted": self.pad_predicted,
            "confidence_calibration": self.calibration,
        }


@dataclass
class RecoveryReport:
    empty: bool
    site_recall: float | None
    false_positives: int
    truth_sites: int
    found_sites: int
    methods: dict[str, MethodMetrics]

    def to_json(self) -> dict:
        return {
            "empty": self.empty,
            "truth_sites": self.truth_sites,
            "found_sites": self.found_sites,
            "site_recall": self.site_recall,
            "false_positives": self.false_positives,
            "methods": {name: m.to_json() for name, m in self.methods.items()},
        }

    def text_table(self) -> str:
        lines = [
            f"{'method':<10} {'sites':>6} {'exact':>6} {'rate':>7} "
            f"{'fail':>5} {'prec':>6} {'rec':>6} {'fn-rate':>8}"
        ]
        for name, m in self.methods.items():
            rate = "-" if m.exact_rate is None else f"{m.exact_rate:.3f}"
            prec = "-" if m.reg_precision is None else f"{m.reg_precision:.3f}"
            rec = "-" if m.reg_recall is None else f"{m.reg_recall:.3f}"
            fn_rate = "-" if m.fn_exact_rate is None else f"{m.fn_exact_rate:.3f}"
            lines.append(
                f"{name:<10} {m.total_pop_sites:>6} {m.exact:>6} {rate:>7} "
                f"{m.failures:>5} {prec:>6} {rec:>6} {fn_rate:>8}"
            )
        lines.append(
            f"sites: {self.found_sites}/{self.truth_sites} found, "
            f"{self.false_positives} false positive(s)"
        )
        return "\n".join(lines)


_BUCKETS = ((0.0, 0.5), (0.5, 0.8), (0.8, 0.95), (0.95, 1.01))


def evaluate_recovery(result: AttackResult, manifest: Manifest, image: FirmwareImage) -> RecoveryReport:
    """Score attack output against ground truth (same image lineage only)."""
    recorded = manifest.latest_sha()
    if recorded != result.image_sha256 or image.sha256() != result.image_sha256:
        raise LineageError("attack output and manifest describe different images")
    fn_by_name = {fn.name: fn for fn in manifest.functions}
    truth_by_addr = {rec.core: (rec, fn_by_name[rec.fn]) for rec in manifest.sites}
    found_addrs = {s.core for s in result.sites}
    truth_addrs = set(truth_by_addr)
    recall = None
    if truth_addrs:
        recall = len(found_addrs & truth_addrs) / len(truth_addrs)
    false_positives = len(found_addrs - truth_addrs)

    methods = {}
    for method in METHODS:
        metrics = MethodMetrics()
        preds = result.predictions_at(method)
        buckets = [[0, 0] for _ in _BUCKETS]
        fn_pop_sites: dict[str, list[bool]] = {}
        for addr, (rec, fn) in truth_by_addr.items():
            pred = preds.get(addr)
            if rec.kind == "push":
                continue
            if fn.is_leaf:
                metrics.leaf_total += 1
                if pred is not None and pred.ok and pred.kind == "bx_lr":
                    metrics.leaf_correct += 1
                continue
            metrics.total_pop_sites += 1
            truth = fn.true_pop
            exact = False
            if pred is None or not pred.ok:
                metrics.failures += 1
            else:
                if pred.kind == "pop" and pred.reglist is not None:
                    exact = pred.reglist == truth
                    got = pred.reglist.without_flags()
                    want = truth.without_flags()
                    metrics.reg_tp += len(got.intersection(want))
                    metrics.reg_fp += len(got.difference(want))
                    metrics.reg_fn += len(want.difference(got))
                    if not got.intersection(fn.pad_registers).is_empty:
                        metrics.pad_predicted += 1
                for i, (lo, hi) in enumerate(_BUCKETS):
                    if lo <= pred.confidence < hi:
                        buckets[i][0] += 1
                        buckets[i][1] += int(exact)
            metrics.exact += int(exact)
            fn_pop_sites.setdefault(fn.name, []).append(exact)
        metrics.fn_total = len(fn_pop_sites)
        metrics.fn_exact = sum(1 for flags in fn_pop_sites.values() if all(flags))
        metrics.calibration = [
            {"bucket": f"[{lo},{hi})", "count": n, "exact": e}
            for (lo, hi), (n, e) in zip(_BUCKETS, buckets)
        ]
        methods[method] = metrics

    return RecoveryReport(
        empty=not truth_addrs and not found_addrs,
        site_recall=recall,
        false_positives=false_positives,
        truth_sites=len(truth_addrs),
        found_sites=len(found_addrs),
        methods=methods,
    )
