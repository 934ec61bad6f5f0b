"""Firmware image container, ground-truth manifest, and corpus generator.

The corpus is synthetic: calling-convention-conforming functions with known
prologues, bodies, and epilogues, giving exact ground truth with no
toolchain dependency.  The manifest is the evaluator's ground truth and is
never shown to the attack pipeline.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from ._rewrite import (
    BlobItem,
    InsnItem,
    Program,
    RewriteError,
    TrampolineRecord,
    lift,
    signature_offsets,
)
from .isa import (
    AddReg,
    AddSpImm,
    Bl,
    BxLr,
    EncodingError,
    LdrSpRel,
    MovImm,
    MovReg,
    Pop,
    Push,
    RegisterList,
    StrSpRel,
    SubReg,
    SubSpImm,
)

#: Default memory map.  Flash and scratch RAM are kept within branch range
#: of each other so table entries can branch back into code.
DEFAULT_BASE = 0x00040000
DEFAULT_SRAM_BASE = 0x00240000
DEFAULT_TABLE_BASE = DEFAULT_SRAM_BASE

#: Scratch RAM size.  Its top ``STACK_RESERVE`` bytes are the stack; the boot
#: table runs from the table base up to them.
SRAM_SIZE = 0x10000
STACK_RESERVE = 0x4000

#: Largest flash image in bytes; ``FirmwareImage`` refuses a larger one.
MAX_IMAGE_SIZE = 0x40000


class ImageError(Exception):
    """Validation failure in an image/manifest pair."""


#: What parsing a malformed JSON artifact (manifest or attack report) raises.
MALFORMED_INPUT = (KeyError, ValueError, TypeError, EncodingError)


class FieldError(ValueError):
    """A manifest value that does not parse, named by its path from the
    manifest's root, such as ``functions[12].epilogue_sites``."""

    def __init__(self, path: str, cause: Exception):
        super().__init__(f"{path.lstrip('.')}: {cause!r}")
        self.path, self.cause = path, cause


def _field(obj, key: str | int, parse=lambda value: value):
    """``parse(obj[key])``; a failure is a FieldError whose path starts at
    ``key``, a field name or a list index."""
    try:
        return parse(obj[key])
    except MALFORMED_INPUT as exc:
        step = f"[{key}]" if isinstance(key, int) else f".{key}"
        if isinstance(exc, FieldError):
            raise FieldError(step + exc.path, exc.cause) from exc.cause
        raise FieldError(step, exc) from exc


def _items(parse):
    """A parser for a JSON list whose failures name the item's index."""
    return lambda items: [_field(items, i, parse) for i in range(len(items))]


def _hex(text: str) -> int:
    return int(text, 16)


def _optional(parse):
    return lambda value: None if value is None else parse(value)


@dataclass(frozen=True)
class FirmwareImage:
    """Flash contents at ``base`` plus the RAM map they boot into.

    The image is frozen and ``data`` is kept as immutable ``bytes``, so its
    memos never go stale.  ``blocks`` and ``table_blocks`` hold the runs of
    flash and of table code the interpreter compiled (touched only by
    ``machine``).  ``boot_plans`` is the boot pass's per-key scan of the
    image (written only by ``obfuscation.boot_scan``).
    """

    base: int
    data: bytes
    sram_base: int = DEFAULT_SRAM_BASE
    table_base: int = DEFAULT_TABLE_BASE
    blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    table_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    boot_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "data", bytes(self.data))
        if self.base % 4 or self.sram_base % 4 or self.table_base % 4:
            raise ImageError("base addresses must be word-aligned")
        if len(self.data) % 2:
            raise ImageError("image length must be even")
        if self.base < 0:
            raise ImageError(f"flash base {self.base:#x} is negative")
        if self.end > 1 << 32:
            raise ImageError(f"flash 0x{self.base:x}..0x{self.end:x} runs past the "
                             "32-bit address space")
        if self.data and self.base < self.stack_top and self.sram_base < self.end:
            raise ImageError(f"flash 0x{self.base:x}..0x{self.end:x} overlaps RAM "
                             f"0x{self.sram_base:x}..0x{self.stack_top:x}")
        if not self.sram_base <= self.table_base < self.stack_limit:
            raise ImageError(
                f"table base 0x{self.table_base:x} outside the RAM below the stack "
                f"(0x{self.sram_base:x}..0x{self.stack_limit:x})"
            )
        if len(self.data) > MAX_IMAGE_SIZE:
            raise ImageError(f"image is {len(self.data)} bytes, limit {MAX_IMAGE_SIZE}")

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    @property
    def stack_top(self) -> int:
        return self.sram_base + SRAM_SIZE

    @property
    def stack_limit(self) -> int:
        return self.stack_top - STACK_RESERVE

    @property
    def table_room(self) -> int:
        """Bytes the boot table may fill: the RAM from its base up to the stack."""
        return self.stack_limit - self.table_base

    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


@dataclass
class FunctionRecord:
    name: str
    start: int
    end: int
    prologue_site: int | None
    epilogue_sites: list[int]
    true_pop: RegisterList | None  # None for leaf functions (bx lr return)
    used_callee_saved: RegisterList
    pad_registers: RegisterList = RegisterList(0)

    @property
    def is_leaf(self) -> bool:
        return self.true_pop is None

    def validate(self) -> None:
        if self.start >= self.end:
            raise ImageError(f"{self.name}: empty or inverted range")
        if (self.prologue_site is None) != (self.true_pop is None):
            raise ImageError(f"{self.name}: prologue_site and true_pop must both be set "
                             "(non-leaf) or both be null (leaf)")
        if self.prologue_site is not None and not self.start <= self.prologue_site < self.end:
            raise ImageError(f"{self.name}: prologue site outside range")
        for site in self.epilogue_sites:
            if not self.start <= site < self.end:
                raise ImageError(f"{self.name}: epilogue site outside range")
        for site in [self.prologue_site or 0, *self.epilogue_sites]:
            if site % 2:
                raise ImageError(f"{self.name}: site 0x{site:x} is not halfword-aligned")
        if self.true_pop is not None and not self.true_pop.has_pc:
            raise ImageError(f"{self.name}: true_pop lacks pc")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": f"0x{self.start:x}",
            "end": f"0x{self.end:x}",
            "prologue_site": None if self.prologue_site is None else f"0x{self.prologue_site:x}",
            "epilogue_sites": [f"0x{s:x}" for s in self.epilogue_sites],
            "true_pop": None if self.true_pop is None else list(self.true_pop.names()),
            "used_callee_saved": list(self.used_callee_saved.names()),
            "pad_registers": list(self.pad_registers.names()),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FunctionRecord":
        return cls(
            name=_field(obj, "name"),
            start=_field(obj, "start", _hex),
            end=_field(obj, "end", _hex),
            prologue_site=_field(obj, "prologue_site", _optional(_hex)),
            epilogue_sites=_field(obj, "epilogue_sites", _items(_hex)),
            true_pop=_field(obj, "true_pop", _optional(RegisterList.from_names)),
            used_callee_saved=_field(obj, "used_callee_saved", RegisterList.from_names),
            pad_registers=_field(obj, "pad_registers", RegisterList.from_names),
        )


@dataclass
class Manifest:
    base: int
    sram_base: int
    table_base: int
    seed: int
    functions: list[FunctionRecord]
    transform_log: list[dict] = field(default_factory=list)

    def validate(self, image: FirmwareImage | None = None) -> None:
        """Function names are unique strings and site records name functions
        (else a FieldError); given ``image``, the manifest describes it."""
        names = {}
        for i, fn in enumerate(self.functions):
            if not isinstance(fn.name, str) or names.setdefault(fn.name, i) != i:
                raise FieldError(f".functions[{i}].name", ValueError("not a unique string"))
        for k, entry in enumerate(self.transform_log):
            sites = entry.get("sites", [])
            if not isinstance(sites, list):
                raise FieldError(f".transform_log[{k}].sites", TypeError("not a list"))
            for j, site in enumerate(sites):
                fn = site.get("fn") if isinstance(site, dict) else None
                if not isinstance(fn, str) or fn not in names:
                    raise FieldError(f".transform_log[{k}].sites[{j}].fn",
                                     ValueError(f"{fn!r} names no function"))
        prev_end = None
        ordered = sorted(self.functions, key=lambda f: f.start)
        if [f.name for f in ordered] != [f.name for f in self.functions]:
            raise ImageError("functions not sorted by address")
        for fn in self.functions:
            fn.validate()
            if prev_end is not None and fn.start < prev_end:
                raise ImageError(f"{fn.name}: overlaps previous function")
            prev_end = fn.end
        if image is not None:
            for fn in self.functions:
                if fn.end > image.end or fn.start < image.base:
                    raise ImageError(f"{fn.name}: extends past image end")
            if (self.base, self.sram_base, self.table_base) != (
                image.base,
                image.sram_base,
                image.table_base,
            ):
                raise ImageError("manifest/image address fields disagree")
            recorded = self.latest_sha()
            if recorded is not None and recorded != image.sha256():
                raise ImageError("image checksum does not match manifest lineage")

    def record_pass(self, image: FirmwareImage, name: str, **params) -> None:
        entry = {"pass": name, **params, "image_sha256": image.sha256()}
        self.transform_log.append(entry)

    def latest_sha(self) -> str | None:
        for entry in reversed(self.transform_log):
            if "image_sha256" in entry:
                return entry["image_sha256"]
        return None

    def trampoline_records(self) -> list[TrampolineRecord]:
        """The newest ``sites`` snapshot in the transform log."""
        log = self.transform_log
        for k in range(len(log) - 1, -1, -1):
            if "sites" in log[k]:
                try:
                    return _field(log[k], "sites", _items(TrampolineRecord.from_json))
                except FieldError as exc:
                    raise FieldError(f"transform_log[{k}]{exc.path}", exc.cause) from exc.cause
        return []

    def has_pass(self, name: str) -> bool:
        return any(entry.get("pass") == name for entry in self.transform_log)

    @property
    def rotation_capable(self) -> bool:
        """Whether the sealed sites reserve table room for every rotated
        replacement sequence (``obfuscate_returns(rotation_capable=True)``)."""
        return any(entry.get("rotation_capable") for entry in self.transform_log)

    @property
    def boots_rotated(self) -> bool:
        """Whether each boot draws a rotated table: the pushes are sealed and
        the sites reserve room for every rotated sequence."""
        return self.has_pass("encrypt_pushes") and self.rotation_capable

    def to_json(self) -> dict:
        return {
            "base": f"0x{self.base:x}",
            "sram_base": f"0x{self.sram_base:x}",
            "table_base": f"0x{self.table_base:x}",
            "seed": self.seed,
            "functions": [fn.to_json() for fn in self.functions],
            "transform_log": self.transform_log,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Manifest":
        return cls(
            base=_field(obj, "base", _hex),
            sram_base=_field(obj, "sram_base", _hex),
            table_base=_field(obj, "table_base", _hex),
            seed=_field(obj, "seed", int),
            functions=_field(obj, "functions", _items(FunctionRecord.from_json)),
            transform_log=_field(obj, "transform_log", _items(dict)),
        )


@dataclass
class CorpusParams:
    function_count: int = 200
    #: Weights for drawing how many callee-saved registers a function uses.
    callee_count_weights: tuple = (0.2, 0.25, 0.25, 0.2, 0.1)
    #: Probability a function may draw from r8-r11 as well as r4-r7.
    high_reg_prob: float = 0.15
    body_len: tuple = (6, 16)
    leaf_ratio: float = 0.2
    multi_epilogue_prob: float = 0.0
    local_frame_prob: float = 0.3
    seed: int = 0

    def validate(self) -> None:
        if self.function_count < 0:
            raise ImageError("function_count must be non-negative")
        for p in (self.high_reg_prob, self.leaf_ratio, self.multi_epilogue_prob,
                  self.local_frame_prob):
            if not 0.0 <= p <= 1.0:
                raise ImageError(f"probability out of range: {p}")
        if not self.callee_count_weights or min(self.callee_count_weights) < 0:
            raise ImageError("bad callee_count_weights")
        if self.body_len[0] < 4 or self.body_len[0] > self.body_len[1]:
            raise ImageError("bad body_len range")

    def to_json(self) -> dict:
        return {
            "function_count": self.function_count,
            "callee_count_weights": list(self.callee_count_weights),
            "high_reg_prob": self.high_reg_prob,
            "body_len": list(self.body_len),
            "leaf_ratio": self.leaf_ratio,
            "multi_epilogue_prob": self.multi_epilogue_prob,
            "local_frame_prob": self.local_frame_prob,
            "seed": self.seed,
        }


_SCRATCH = (0, 1, 2, 3)


def _write_reg_unit(rng: random.Random, reg: int) -> list:
    """Instructions that write ``reg`` (a callee-saved register)."""
    if reg <= 7:
        pick = rng.randrange(3)
        if pick == 0:
            return [MovImm(reg, rng.randrange(256))]
        if pick == 1:
            return [AddReg(reg, rng.choice(_SCRATCH), rng.choice(_SCRATCH))]
        return [SubReg(reg, rng.choice(_SCRATCH), rng.choice(_SCRATCH))]
    scratch = rng.choice(_SCRATCH)
    return [MovImm(scratch, rng.randrange(256)), MovReg(reg, scratch)]


def _scratch_unit(rng: random.Random) -> list:
    pick = rng.randrange(4)
    if pick == 0:
        return [MovImm(rng.choice(_SCRATCH), rng.randrange(256))]
    if pick == 1:
        return [AddReg(rng.choice(_SCRATCH), rng.choice(_SCRATCH), rng.choice(_SCRATCH))]
    if pick == 2:
        return [SubReg(rng.choice(_SCRATCH), rng.choice(_SCRATCH), rng.choice(_SCRATCH))]
    return [MovReg(12, rng.choice(_SCRATCH))]


def _frame_unit(rng: random.Random) -> list:
    words = rng.randrange(1, 5)
    slot = 4 * rng.randrange(words)
    reg = rng.choice(_SCRATCH)
    return [
        SubSpImm(words * 4),
        StrSpRel(reg, slot),
        LdrSpRel(rng.choice(_SCRATCH), slot),
        AddSpImm(words * 4),
    ]


def _body_units(
    rng: random.Random,
    p: CorpusParams,
    write_regs: tuple[int, ...],
    leaf: bool,
    callee_pool: list[int],
) -> list[list]:
    units = [_write_reg_unit(rng, reg) for reg in write_regs]
    if not leaf:
        calls = 1 + (1 if rng.random() < 0.3 else 0)
        units.extend([("bl", ("fn", rng.choice(callee_pool)))] for _ in range(calls))
        if rng.random() < p.local_frame_prob:
            units.append(_frame_unit(rng))
    target = rng.randint(*p.body_len)
    while sum(len(u) for u in units) < target:
        units.append(_scratch_unit(rng))
    rng.shuffle(units)
    return units


def generate_corpus(params: CorpusParams) -> tuple[FirmwareImage, Manifest]:
    """Produce a synthetic firmware image plus its ground-truth manifest."""
    params.validate()
    rng = random.Random(params.seed)

    is_leaf = [rng.random() < params.leaf_ratio for _ in range(params.function_count)]
    if params.function_count and not all(is_leaf) and not any(is_leaf):
        is_leaf[rng.randrange(params.function_count)] = True
    leaf_indices = [i for i, flag in enumerate(is_leaf) if flag]

    plans = []
    for i in range(params.function_count):
        if is_leaf[i]:
            plans.append((i, True, RegisterList(0), False))
            continue
        count = rng.choices(
            range(len(params.callee_count_weights)), params.callee_count_weights
        )[0]
        pool = list(range(4, 12)) if rng.random() < params.high_reg_prob else list(range(4, 8))
        regs = RegisterList.of(*rng.sample(pool, min(count, len(pool))))
        multi = rng.random() < params.multi_epilogue_prob
        plans.append((i, False, regs, multi))

    prog = Program(DEFAULT_BASE)
    fn_items: list[dict] = []
    for i, leaf, regs, multi in plans:
        info = {"first": len(prog.items), "prologue": None, "epilogues": []}
        if leaf:
            for unit in _body_units(rng, params, (), True, leaf_indices):
                for insn in unit:
                    prog.add(InsnItem(insn))
            info["epilogues"].append(prog.add(InsnItem(BxLr())))
        else:
            push = Push(regs.union(RegisterList.of("lr")))
            pop = Pop(regs.union(RegisterList.of("pc")))
            info["prologue"] = prog.add(InsnItem(push))
            segments = 2 if multi else 1
            for seg in range(segments):
                # Every callee-saved register is written before the first
                # epilogue; later segments rewrite a subset.
                if seg == 0:
                    writes = regs.indices()
                else:
                    writes = tuple(rng.sample(regs.indices(), min(1, len(regs))))
                for unit in _body_units(rng, params, writes, False, leaf_indices):
                    for insn in unit:
                        if isinstance(insn, tuple):  # ("bl", key)
                            prog.add(InsnItem(Bl(0), target_key=insn[1]))
                        else:
                            prog.add(InsnItem(insn))
                info["epilogues"].append(prog.add(InsnItem(pop)))
        prog.labels[("fn", i)] = info["first"]
        info["last"] = len(prog.items) - 1
        fn_items.append(info)

    layout = prog.layout()
    functions = []
    for i, (idx, leaf, regs, multi) in enumerate(plans):
        info = fn_items[i]
        start = layout.addresses[info["first"]]
        last_item = prog.items[info["last"]]
        end = layout.addresses[info["last"]] + last_item.size()
        functions.append(
            FunctionRecord(
                name=f"fn_{i:03d}",
                start=start,
                end=end,
                prologue_site=None
                if info["prologue"] is None
                else layout.addresses[info["prologue"]],
                epilogue_sites=[layout.addresses[e] for e in info["epilogues"]],
                true_pop=None if leaf else regs.union(RegisterList.of("pc")),
                used_callee_saved=regs,
                pad_registers=RegisterList(0),
            )
        )

    image = FirmwareImage(DEFAULT_BASE, layout.data)
    if signature_offsets(image.data):
        # The generator's instruction vocabulary cannot emit the trampoline
        # signature; treat an occurrence as a hard bug rather than retrying.
        raise ImageError("generated image contains a trampoline signature")
    manifest = Manifest(
        base=image.base,
        sram_base=image.sram_base,
        table_base=image.table_base,
        seed=params.seed,
        functions=functions,
    )
    manifest.record_pass(image, "generate", params=params.to_json())
    manifest.validate(image)
    return image, manifest


def artifact_path(prefix, suffix: str) -> Path:
    """``<prefix><suffix>``, the ``suffix`` file of the artifacts a prefix
    names.  A prefix ending in ``.bin`` or ``.json`` names them by its stem;
    any other dot stays, so ``d/obf.v2`` names ``d/obf.v2.bin``."""
    prefix = Path(prefix)
    if prefix.suffix in (".bin", ".json"):
        prefix = prefix.with_suffix("")
    return prefix.with_name(prefix.name + suffix)


def save(image: FirmwareImage, manifest: Manifest, prefix) -> tuple[Path, Path]:
    """Write ``<prefix>.bin`` (raw little-endian image) and ``<prefix>.json``."""
    manifest.validate(image)
    bin_path, json_path = artifact_path(prefix, ".bin"), artifact_path(prefix, ".json")
    bin_path.parent.mkdir(parents=True, exist_ok=True)
    bin_path.write_bytes(image.data)
    json_path.write_text(json_text(manifest.to_json()))
    return bin_path, json_path


_encode_str = json.encoder.encode_basestring_ascii


def _json_value(obj, newline: str) -> str:
    """``obj`` in ``json_text``'s form; ``newline`` starts its inner lines'
    parent level."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_json_value(v, inner) for v in obj]
        ) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # A key that is not a str fails here, in sorted() or _encode_str.
        return "{" + inner + ("," + inner).join(
            [_encode_str(k) + ": " + _json_value(v, inner) for k, v in sorted(obj.items())]
        ) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """The one text form of every JSON artifact the CLI writes: exactly
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.  Built by a direct
    join with the C string encoder, because ``indent`` sends ``json.dumps``
    through its pure-Python encoder.  Raises TypeError on a value json
    rejects and on a dict key that is not a str."""
    return _json_value(obj, "\n") + "\n"


def load(prefix) -> tuple[FirmwareImage, Manifest]:
    bin_path, json_path = artifact_path(prefix, ".bin"), artifact_path(prefix, ".json")
    try:
        manifest = Manifest.from_json(json.loads(json_path.read_text()))
        manifest.trampoline_records()  # fail here, not later inside a pass
        image = FirmwareImage(
            base=manifest.base,
            data=bin_path.read_bytes(),
            sram_base=manifest.sram_base,
            table_base=manifest.table_base,
        )
        manifest.validate(image)
    except FieldError as exc:
        raise ImageError(f"malformed manifest {json_path}: {exc}") from exc
    except MALFORMED_INPUT as exc:
        raise ImageError(f"malformed manifest {json_path}: {exc!r}") from exc
    return image, manifest


def splice(
    image: FirmwareImage, manifest: Manifest, at: int, insert: bytes
) -> tuple[FirmwareImage, Manifest]:
    """Insert ``insert`` at address ``at``, shifting everything after it and
    re-fixing every branch and literal reference that still points inside
    the image."""
    if at % 2 or len(insert) % 2:
        raise ImageError("splice point and payload must be halfword-aligned")
    if not image.base <= at <= image.end:
        raise ImageError(f"splice point 0x{at:x} outside image")
    if not insert:
        return image, manifest
    prog = lift(image, manifest)
    prog.insert(len(prog.items) if at == image.end else prog.index_at(at), BlobItem(insert))
    return commit(prog, image, manifest, "splice", at=f"0x{at:x}", length=len(insert))


def commit(
    prog: Program, image: FirmwareImage, manifest: Manifest, name: str, **params
) -> tuple[FirmwareImage, Manifest]:
    """Lay out an edited program as the next image of ``image``'s lineage.

    The manifest's addresses follow the layout, and the transform log gains
    one entry for pass ``name`` with ``params``.  The entry carries the
    ``sites`` snapshot whenever the program holds trampolines, so the
    newest snapshot always describes the current image.
    """
    layout = prog.layout()
    new_image = FirmwareImage(image.base, layout.data, image.sram_base, image.table_base)
    new_manifest = remap_manifest(manifest, layout.addr_map)
    records = prog.trampoline_records()
    if records:
        params["sites"] = [rec.to_json() for rec in records]
    new_manifest.record_pass(new_image, name, **params)
    new_manifest.validate(new_image)
    return new_image, new_manifest


def remap_manifest(manifest: Manifest, addr_map: dict) -> Manifest:
    """Rebuild the manifest with every address pushed through ``addr_map``."""

    def m(addr):
        try:
            return addr_map[addr]
        except KeyError:
            raise RewriteError(f"address 0x{addr:x} lost during rewrite") from None

    functions = [
        FunctionRecord(
            name=fn.name,
            start=m(fn.start),
            end=m(fn.end),
            prologue_site=None if fn.prologue_site is None else m(fn.prologue_site),
            epilogue_sites=[m(s) for s in fn.epilogue_sites],
            true_pop=fn.true_pop,
            used_callee_saved=fn.used_callee_saved,
            pad_registers=fn.pad_registers,
        )
        for fn in manifest.functions
    ]
    return Manifest(
        base=manifest.base,
        sram_base=manifest.sram_base,
        table_base=manifest.table_base,
        seed=manifest.seed,
        functions=functions,
        transform_log=[dict(entry) for entry in manifest.transform_log],
    )
