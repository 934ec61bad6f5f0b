"""Output checks computed apart from the library.

Each check reads the artifacts the CLI wrote and returns a list of problems
(empty when the outputs are correct).  Ground truth comes from the plain
manifest and from computations written here: a brute-force trampoline
signature search, a raw return sweep, manifest parsing, and the properties
the method must have.  No check compares against a stored copy of earlier
output.  The interpreter is used only as the oracle the method defines
(run a function before and after the transform and compare).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

# Trampoline shape: ldr r0,[pc,#12]; adds r0,#imm; mov pc,r0; then the
# sealed instruction, padding and the table-base literal, 18 bytes in all.
LDR_R0_PC12 = b"\x03\x48"
MOV_PC_R0 = b"\x87\x46"
ADDS_R0_HIGH_BYTE = 0x30
CORE_BYTES = 18
SEALED_SLOT = 6  # first byte after the three signature halfwords

CALLEE_SAVED = tuple(range(4, 12))
CALLER_STACK_BYTES = 64
K0_RATE_TOLERANCE = 0.05  # criterion 7 in tests/test_acceptance.py


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def find_signatures(data: bytes, base: int) -> list[int]:
    """Addresses of every halfword-aligned trampoline signature whose
    literal word lies inside the image, by a plain byte search."""
    out = []
    pos = data.find(LDR_R0_PC12)
    while pos != -1:
        literal = ((base + pos + 4) & ~3) + 12 - base
        if (
            pos % 2 == 0
            and pos + 6 <= len(data)
            and data[pos + 3] == ADDS_R0_HIGH_BYTE
            and data[pos + 4 : pos + 6] == MOV_PC_R0
            and literal + 4 <= len(data)
        ):
            out.append(base + pos)
        pos = data.find(LDR_R0_PC12, pos + 1)
    return out


def overlapping(sites: list[int]) -> bool:
    """True when a signature starts inside the previous one's core."""
    ordered = sorted(sites)
    return any(b - a < CORE_BYTES for a, b in zip(ordered, ordered[1:]))


def raw_returns(data: bytes, masked: bytearray | None = None) -> list[int]:
    """Offsets of every return bit pattern at any halfword boundary:
    pop {.., pc} (16- and 32-bit) and bx lr.  ``masked`` bytes are skipped."""
    mask = masked if masked is not None else bytearray(len(data))
    hits = []
    for off in range(0, len(data) - 1, 2):
        if mask[off]:
            continue
        lo, hi = data[off], data[off + 1]
        if hi == 0xBD or (lo, hi) == (0x70, 0x47):
            hits.append(off)
        elif (lo, hi) == (0xBD, 0xE8) and off + 4 <= len(data) and not mask[off + 2]:
            if data[off + 3] & 0x80 and not data[off + 3] & 0x40:
                hits.append(off)
    return hits


def return_length(data: bytes, off: int) -> int:
    """Byte length of the return instruction at ``off`` (wide pop = 4)."""
    return 4 if data[off : off + 2] == b"\xbd\xe8" else 2


# -- manifest parsing ---------------------------------------------------------


def _int(value) -> int:
    return int(value, 16) if isinstance(value, str) else int(value)


def functions(manifest: dict) -> list[dict]:
    out = []
    for fn in manifest["functions"]:
        out.append({
            "name": fn["name"],
            "start": _int(fn["start"]),
            "end": _int(fn["end"]),
            "epilogues": [_int(s) for s in fn["epilogue_sites"]],
            "true_pop": None if fn["true_pop"] is None else set(fn["true_pop"]),
            "pads": set(fn["pad_registers"]),
        })
    return out


def latest_sites(manifest: dict) -> list[dict]:
    """Trampoline records of the newest transform-log snapshot."""
    for entry in reversed(manifest["transform_log"]):
        if "sites" in entry:
            return [
                {
                    "kind": rec["kind"],
                    "fn": rec["fn"],
                    "item_start": _int(rec["item_start"]),
                    "table_offset": int(rec["table_offset"]),
                }
                for rec in entry["sites"]
            ]
    return []


def core_of(item_start: int) -> int:
    """Signature address of a trampoline item (the core is 2 mod 4)."""
    return item_start if item_start % 4 == 2 else item_start + 2


def _fn_at(fns: list[dict], addr: int) -> dict | None:
    for fn in fns:
        if fn["start"] <= addr < fn["end"]:
            return fn
    return None


# -- obf-large ---------------------------------------------------------------


def check_obfuscated(d: Path, *, equivalence_runs: int, gadget_samples: int) -> list[str]:
    """obfuscate -> init -> attack -> eval outputs of an unpadded corpus."""
    problems = []
    plain_bin = (d / "in" / "corpus.bin").read_bytes()
    plain = functions(read_json(d / "in" / "corpus.json"))
    obf_bin = (d / "out" / "obf.bin").read_bytes()
    obf_man = read_json(d / "out" / "obf.json")
    obf = functions(obf_man)
    base = _int(obf_man["base"])
    records = latest_sites(obf_man)
    sealed = read_json(d / "out" / "obf.sites.json")["sites"]
    attack = read_json(d / "out" / "atk.attack.json")
    table = read_json(d / "out" / "table.json")
    ev = read_json(d / "out" / "ev.eval.json")

    # One sealed site per epilogue site of the plain manifest.
    want = sorted(fn["name"] for fn in plain for _ in fn["epilogues"])
    for name, recs in (("obf.sites.json", sealed), ("manifest", records)):
        if sorted(rec["fn"] for rec in recs) != want:
            problems.append(f"{name}: sealed sites per function differ from plain epilogues")
        if any(rec["kind"] != "return" for rec in recs):
            problems.append(f"{name}: a sealed site is not a return")

    # Plaintext returns: one at every plain epilogue site, none after.
    before = set(raw_returns(plain_bin))
    for fn in plain:
        for site in fn["epilogues"]:
            if site - base not in before:
                problems.append(f"plain {fn['name']}: no return at 0x{site:x}")
    if any(not fn["epilogues"] for fn in plain if fn["true_pop"] is not None):
        problems.append("plain: a non-leaf function has no epilogue")
    if ev["gadget_terminators"]["before"] != len(before):
        problems.append(
            f"eval: {ev['gadget_terminators']['before']} terminators before, "
            f"raw sweep finds {len(before)}"
        )
    found = find_signatures(obf_bin, base)
    mask = bytearray(len(obf_bin))
    for core in found:
        lo = core - base
        mask[lo + SEALED_SLOT : lo + CORE_BYTES] = b"\x01" * (CORE_BYTES - SEALED_SLOT)
    left = raw_returns(obf_bin, mask)
    if left or ev["gadget_terminators"]["after"] != 0:
        problems.append(
            f"obfuscated image keeps {len(left)} raw return(s); "
            f"eval reports {ev['gadget_terminators']['after']}"
        )

    # Located sites = brute-force search = manifest trampoline sites.
    located = sorted(_int(s["address"]) for s in attack["sites"])
    truth = sorted(core_of(rec["item_start"]) for rec in records)
    if located != found:
        problems.append(f"attack located {len(located)} sites, byte search {len(found)}")
    if found != truth:
        problems.append(f"byte search {len(found)} sites, manifest {len(truth)}")

    # Exact register-list recovery on every pop site, all three methods.
    plain_by_name = {fn["name"]: fn for fn in plain}
    pop_sites = {
        core_of(rec["item_start"]): plain_by_name[rec["fn"]]["true_pop"]
        for rec in records
        if plain_by_name[rec["fn"]]["true_pop"] is not None
    }
    for method in ("symmetry", "liveness", "combined"):
        preds = {_int(p["site"]): p for p in attack["predictions"][method]}
        wrong = 0
        for site, true_pop in pop_sites.items():
            pred = preds.get(site)
            if not (pred and pred["ok"] and pred["kind"] == "pop"
                    and set(pred["reglist"] or ()) == true_pop):
                wrong += 1
        rate = ev["recovery"]["methods"][method]["exact_rate"]
        if wrong or rate != 1.0:
            problems.append(f"{method}: {wrong} inexact pop site(s), eval exact_rate {rate}")

    # Every boot-table entry is the plain instruction at its site.
    problems += check_boot_table(table, records, plain, plain_bin, obf, base)
    if table.get("image_sha256") != hashlib.sha256(obf_bin).hexdigest():
        problems.append("table.json: image digest is not obf.bin's")

    eq = ev["equivalence"]
    if eq["runs"] != equivalence_runs or eq["passed"] != eq["runs"]:
        problems.append(f"equivalence {eq['passed']}/{eq['runs']} of {equivalence_runs}")
    gc = ev["gadget_check"]
    if gc is None or gc["sampled"] != gadget_samples or gc["passed"] != gc["sampled"]:
        problems.append(f"gadget check {gc}")
    inputs = ev["inputs"]
    if (inputs["plain_sha256"], inputs["image_sha256"]) != (
        hashlib.sha256(plain_bin).hexdigest(), hashlib.sha256(obf_bin).hexdigest()
    ):
        problems.append("eval: input digests do not match the images")
    return problems


def check_boot_table(table: dict, records: list[dict], plain: list[dict],
                     plain_bin: bytes, obf: list[dict], base: int) -> list[str]:
    """Each table entry must hold the plain return bytes of the epilogue
    site it replaces, matched by function name and epilogue order."""
    problems = []
    entries = {e["offset"]: bytes.fromhex(e["data"]) for e in table["entries"]}
    plain_by_name = {fn["name"]: fn for fn in plain}
    obf_by_name = {fn["name"]: fn for fn in obf}
    if len(entries) != len(records):
        problems.append(f"table has {len(entries)} entries for {len(records)} sites")
    for rec in records:
        obf_fn = obf_by_name[rec["fn"]]
        try:
            index = obf_fn["epilogues"].index(rec["item_start"])
        except ValueError:
            problems.append(f"site 0x{rec['item_start']:x} is no epilogue of {rec['fn']}")
            continue
        off = plain_by_name[rec["fn"]]["epilogues"][index] - base
        want = plain_bin[off : off + return_length(plain_bin, off)]
        got = entries.get(rec["table_offset"])
        if got != want:
            problems.append(
                f"table +{rec['table_offset']} ({rec['fn']}): "
                f"{None if got is None else got.hex()} != plain {want.hex()}"
            )
    return problems


# -- harden-oracle -----------------------------------------------------------


class TableImage:
    """A boot table read from ``init`` output, installable into RAM."""

    def __init__(self, obj: dict):
        self.base = _int(obj["base"])
        self.entries = [(e["offset"], bytes.fromhex(e["data"])) for e in obj["entries"]]

    def install(self, state) -> None:
        for offset, data in self.entries:
            lo = self.base - state.sram_base + offset
            state.sram[lo : lo + len(data)] = data


def check_hardened(d: Path, *, boot_seeds, rotation_seeds: int,
                   equivalence_runs: int, machine, image_mod) -> list[str]:
    """harden --rotate on -> init (boot seeds) -> attack -> eval outputs."""
    problems = []
    plain_man = read_json(d / "in" / "corpus.json")
    plain = functions(plain_man)
    hard_man = read_json(d / "out" / "hard.json")
    hard = functions(hard_man)
    hard_bin = (d / "out" / "hard.bin").read_bytes()
    ev = read_json(d / "out" / "hev.eval.json")
    attack = read_json(d / "out" / "hatk.attack.json")

    eq = ev["equivalence"]
    if eq["runs"] != equivalence_runs or eq["passed"] != eq["runs"]:
        problems.append(f"equivalence {eq['passed']}/{eq['runs']} of {equivalence_runs}")

    # Share of non-leaf functions drawn with no padding register.
    non_leaf = [(p, h) for p, h in zip(plain, hard) if p["true_pop"] is not None]
    k0 = sum(1 for p, h in non_leaf if h["true_pop"] == p["true_pop"]) / len(non_leaf)
    for p, h in non_leaf:
        if h["true_pop"] - p["true_pop"] != h["pads"]:
            problems.append(f"{h['name']}: pad registers are not the added pop registers")
            break
    rate = ev["recovery"]["methods"]["combined"]["function_exact_rate"]
    if rate is None or abs(rate - k0) > K0_RATE_TOLERANCE:
        problems.append(f"combined function exact rate {rate} vs k=0 share {k0:.3f}")

    # No padding register is ever predicted.
    predicted = 0
    for method, preds in attack["predictions"].items():
        for pred in preds:
            fn = _fn_at(hard, _int(pred["site"]))
            regs = set(pred["reglist"] or ()) | set(pred["union"] or ())
            if fn is not None and regs & fn["pads"]:
                predicted += 1
        predicted += ev["recovery"]["methods"][method]["pad_registers_predicted"]
    if predicted:
        problems.append(f"{predicted} prediction(s) name a padding register")

    # Position histogram: counts sum to the seed count over pop-size + 1 slots.
    hist = ev["position_histogram"] or {}
    for fn in hard:
        cell = hist.get(fn["name"])
        if cell is None:
            problems.append(f"histogram: {fn['name']} missing")
            continue
        if fn["true_pop"] is None:
            if sum(cell["counts"]) != 0:
                problems.append(f"histogram: leaf {fn['name']} has draws")
            continue
        slots = len(fn["true_pop"] - {"pc"}) + 1
        if len(cell["counts"]) != slots or sum(cell["counts"]) != rotation_seeds:
            problems.append(
                f"histogram: {fn['name']} {cell['counts']} over {slots} slots, "
                f"{rotation_seeds} seeds"
            )

    tables = {}
    for seed in boot_seeds:
        obj = read_json(d / "out" / f"boot{seed}.json")
        if obj.get("image_sha256") != hashlib.sha256(hard_bin).hexdigest():
            problems.append(f"boot{seed}.json: image digest is not hard.bin's")
        tables[seed] = TableImage(obj)
    problems += check_boot_equivalence(
        d / "in" / "corpus", d / "out" / "hard", tables, machine, image_mod
    )
    return problems


def check_boot_equivalence(plain_prefix: Path, hard_prefix: Path, tables: dict,
                           machine, image_mod) -> list[str]:
    """Call every function before and after hardening under each boot
    table written by ``init``; callee-saved registers and sp must match."""
    problems = []
    plain_img, plain_man = image_mod.load(plain_prefix)
    hard_img, hard_man = image_mod.load(hard_prefix)
    rng = random.Random(0xB007)
    for fn_plain, fn_hard in zip(plain_man.functions, hard_man.functions):
        regs = {r: rng.randrange(1 << 32) for r in range(13)}
        want = machine.call(plain_img, None, fn_plain.start, regs, keep_trace=False).state
        for seed, table in tables.items():
            try:
                got = machine.call(hard_img, table, fn_hard.start, regs,
                                   keep_trace=False).state
            except machine.MachineFault as exc:
                problems.append(f"boot {seed}: {fn_hard.name} faults: {exc}")
                continue
            changed = [r for r in CALLEE_SAVED if got.regs[r] != want.regs[r]]
            entry_sp = got.stack_top - CALLER_STACK_BYTES
            if changed or got.sp != entry_sp or want.sp != entry_sp:
                problems.append(
                    f"boot {seed}: {fn_hard.name} changes r{changed} or sp"
                )
    return problems


# -- attack-untrusted --------------------------------------------------------


FAULT_TYPE = "AttackError"
FAULT_TEXT = "no code segment ends at"


def check_untrusted(data: bytes, base: int, attack_json: Path | None,
                    error: tuple[str, str] | None) -> list[str]:
    """One untrusted image: a completed attack must locate exactly the
    byte-search sites; the only tolerated failure is the overlapping-
    signature fault, and only on an image that has overlapping signatures."""
    found = find_signatures(data, base)
    if error is not None:
        kind, text = error
        if kind != FAULT_TYPE or FAULT_TEXT not in text:
            return [f"unexpected {kind}: {text}"]
        if not overlapping(found):
            return [f"{kind} on an image without overlapping signatures"]
        return []
    located = sorted(_int(s["address"]) for s in read_json(attack_json)["sites"])
    if located != found:
        return [f"attack located {len(located)} sites, byte search {len(found)}"]
    return []
