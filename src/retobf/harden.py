"""Hardening passes layered on top of the return obfuscation.

Three independent measures:

* ``encrypt_pushes`` extends the sealing to prologue pushes, hiding the
  register lists that make epilogues derivable from prologue symmetry.
* ``pad_registers`` adds randomly drawn unused callee-saved registers to
  each push/pop pair; a body never touches them, so no amount of static
  analysis recovers them.
* ``build_rotated_table`` replaces each decrypted pair in the table with a
  split sequence that moves the return address to a random stack slot,
  redrawn from the boot seed on every reset; the manifest only names the
  draws, and the tables of one image share everything but them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import isa
from ._rewrite import InsnItem, TrampolineRecord, lift
from .image import FirmwareImage, FunctionRecord, Manifest, commit
from .isa import Pop, Push, RegisterList
from .obfuscation import (
    HardenError,
    RamTable,
    boot_scan,
    check_key,
    obfuscate_returns,
    plaintext_site,
    seal_sites,
)


@dataclass
class PadPlan:
    fn: str
    extra: RegisterList


def pad_registers(fn: FunctionRecord, rng: random.Random, kmax: int) -> PadPlan:
    """Draw 0..kmax additional unused callee-saved registers for one
    function's push/pop pair (truncated to what is available)."""
    if fn.is_leaf:
        return PadPlan(fn.name, RegisterList(0))
    taken = fn.used_callee_saved.union(fn.pad_registers)
    available = [r for r in isa.CALLEE_SAVED if r not in taken]
    k = rng.randint(0, kmax) if kmax > 0 else 0
    k = min(k, len(available))
    extra = RegisterList.of(*rng.sample(available, k)) if k else RegisterList(0)
    return PadPlan(fn.name, extra)


def pad_corpus(
    image: FirmwareImage, manifest: Manifest, key_seed: int, kmax: int
) -> tuple[FirmwareImage, Manifest, list[PadPlan]]:
    """Apply register padding to every push/pop pair in a plain image.
    Raises unless every manifest site holds its plaintext push or return."""
    if manifest.has_pass("obfuscate_returns"):
        raise HardenError("padding must run before return obfuscation")
    rng = random.Random(key_seed)
    plans = [pad_registers(fn, rng, kmax) for fn in manifest.functions]
    prog = lift(image, manifest)
    for fn, plan in zip(manifest.functions, plans):
        push_idx = (
            None if fn.prologue_site is None
            else plaintext_site(prog, "push", fn.name, fn.prologue_site)
        )
        pop_idxs = [plaintext_site(prog, "return", fn.name, site) for site in fn.epilogue_sites]
        if plan.extra.is_empty:
            continue
        new_list = fn.used_callee_saved.union(fn.pad_registers).union(plan.extra)
        prog.items[push_idx] = InsnItem(
            Push(new_list.union(RegisterList.of("lr"))), orig_addr=fn.prologue_site
        )
        for site, idx in zip(fn.epilogue_sites, pop_idxs):
            prog.items[idx] = InsnItem(
                Pop(new_list.union(RegisterList.of("pc"))), orig_addr=site
            )
    new_image, new_manifest = commit(prog, image, manifest, "pad_registers",
                                     kmax=kmax, seed=key_seed)
    for fn, plan in zip(new_manifest.functions, plans):
        if not plan.extra.is_empty:
            fn.pad_registers = fn.pad_registers.union(plan.extra)
            fn.true_pop = fn.true_pop.union(plan.extra)
    return new_image, new_manifest, plans


def encrypt_pushes(
    image: FirmwareImage, manifest: Manifest, key: int
) -> tuple[FirmwareImage, Manifest, list[TrampolineRecord]]:
    """Replace every prologue push with a trampoline whose table entry runs
    the decrypted push and branches back into the function."""
    check_key(key)
    if manifest.has_pass("encrypt_pushes"):
        raise HardenError("pushes are already encrypted")
    rotation_capable = manifest.rotation_capable
    prog = lift(image, manifest)
    sites = [
        (fn.name, fn.prologue_site) for fn in manifest.functions if fn.prologue_site is not None
    ]
    seal_sites(prog, "push", sites, key, image, rotation_capable)
    new_image, new_manifest = commit(
        prog, image, manifest, "encrypt_pushes", rotation_capable=rotation_capable
    )
    return new_image, new_manifest, prog.trampoline_records()


def harden(
    image: FirmwareImage,
    manifest: Manifest,
    key: int,
    *,
    kmax: int = 3,
    rotate: bool = False,
    encrypt_push: bool = False,
    seed: int = 0,
):
    """Full hardening pipeline over a plain corpus: pad, obfuscate returns,
    and optionally seal pushes.  Rotation requires sealed pushes (a fixed
    plaintext push cannot match a per-boot layout), so ``rotate`` implies
    ``encrypt_push``."""
    if rotate:
        encrypt_push = True
    image, manifest, pad_plans = pad_corpus(image, manifest, seed, kmax)
    image, manifest, _ = obfuscate_returns(image, manifest, key, rotation_capable=rotate)
    if encrypt_push:
        image, manifest, _ = encrypt_pushes(image, manifest, key)
    return image, manifest, pad_plans


def boots_rotated(image: FirmwareImage, manifest: Manifest, key: int) -> bool:
    """Whether each boot draws a rotated table: the sites reserve rotation room
    and the image's boot plan holds a sealed push (or no sealed pop: all leaves)."""
    sealed = {type(insn) for _, insn in boot_scan(image, key).sites}
    return manifest.rotation_capable and (Push in sealed or Pop not in sealed)


def build_rotated_table(image: FirmwareImage, manifest: Manifest, key: int, seed: int) -> RamTable:
    """One boot's table with per-function rotated pair sequences, drawn and
    placed by the image's boot plan from the bytes and the key.  The manifest
    only names the draws, in order; a leaf function draws nothing."""
    functions = tuple((fn.name, fn.is_leaf) for fn in manifest.functions)
    return boot_scan(image, key).rotated_table(seed, functions)


def position_distribution(tables: list[RamTable]) -> dict[str, dict]:
    """Histogram of the return-address positions the rotated boot ``tables``
    drew per function, with a flag for functions whose slot is necessarily
    fixed.  The tables share the layout of the first."""
    if not tables:
        raise HardenError("at least one table required")
    layout = tables[0].layout
    if any(table.layout != layout for table in tables):
        raise HardenError("the tables do not share one draw layout")
    hist = {}
    for fn, group in () if layout is None else layout.rows:
        slots = layout.slots(group)
        counts = [0] * max(slots, 1)
        if group is not None:
            for table in tables:
                counts[table.positions[group]] += 1
        hist[fn] = {"slots": slots, "counts": counts,
                    "degenerate": slots <= 1 or len(tables) == 1}
    return hist
