"""The boot plan: each image is scanned and decrypted once per key, each
entry template built and each entry placed once, and every table still
equals the uncached reference boot pass, whatever order the tables are
built in."""

import copy
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retobf import obfuscation
from retobf.harden import HardenError, build_rotated_table, harden, position_distribution
from retobf.image import (
    DEFAULT_BASE,
    DEFAULT_TABLE_BASE,
    CorpusParams,
    FirmwareImage,
    Manifest,
    generate_corpus,
)
from retobf.isa import Pop, Push, RegisterList, encode
from retobf.obfuscation import (
    EntryTemplates,
    IntegrityError,
    RawSighting,
    TableCapacityError,
    build_table,
    encrypt_bytes,
    entry_templates,
    plan_rotation,
)

from conftest import KEY, crafted_images, plant_signature
from reference_boot import (
    ReferenceTable,
    reference_plan_rotation,
    reference_position_distribution,
    reference_rotated_table,
    reference_table,
)


def _fresh(image: FirmwareImage) -> FirmwareImage:
    """The same image with empty memos."""
    return FirmwareImage(image.base, image.data, image.sram_base, image.table_base)


def _non_leaf_functions(count: int) -> tuple:
    """A naming of ``count`` push groups' draws: one non-leaf function each."""
    return tuple((f"fn_{i:03d}", False) for i in range(count))


def _same_table(table, ref) -> bool:
    return table.to_json() == ref.to_json() and bytes(table.image) == bytes(ref.image)


@given(
    functions=st.integers(1, 8),
    corpus_seed=st.integers(0, 1000),
    kmax=st.integers(0, 3),
    multi_epilogue_prob=st.floats(0.0, 1.0),
    high_reg_prob=st.floats(0.0, 1.0),
    order=st.lists(st.one_of(st.none(), st.integers(0, 10_000)), min_size=1, max_size=6),
)
@settings(max_examples=25, deadline=None)
def test_tables_equal_the_uncached_reference(
    functions, corpus_seed, kmax, multi_epilogue_prob, high_reg_prob, order
):
    """Plain (None) and rotated (a seed) tables built in any order, with the
    first one built again at the end, equal the reference boot pass."""
    image, manifest = generate_corpus(CorpusParams(
        function_count=functions, seed=corpus_seed,
        multi_epilogue_prob=multi_epilogue_prob, high_reg_prob=high_reg_prob,
    ))
    himg, hman, _ = harden(image, manifest, KEY, kmax=kmax, rotate=True, seed=corpus_seed)
    for seed in [*order, order[0]]:
        if seed is None:
            table, ref = build_table(himg, KEY), reference_table(himg, KEY)
        else:
            table = build_rotated_table(himg, hman, KEY, seed)
            ref = reference_rotated_table(himg, hman, KEY, seed)
        assert _same_table(table, ref), seed


@given(seeds=st.lists(st.integers(0, 1 << 32), min_size=2, max_size=8))
@settings(max_examples=25, deadline=None)
def test_shared_tables_equal_the_reference_over_boot_seeds(hardened, seeds):
    """Rotated tables of one plan hold only their draws, yet each equals the
    reference boot pass, and their histogram is the one counted from the
    reference tables' own draw dicts.  Any two of them share one layout,
    and the same entry object wherever their entries are equal."""
    himg, hman, _ = hardened
    tables = [build_rotated_table(himg, hman, KEY, seed) for seed in seeds]
    refs = [reference_rotated_table(himg, hman, KEY, seed) for seed in seeds]
    for table, ref in zip(tables, refs):
        assert _same_table(table, ref)
        assert len(table.positions) == len(table.layout.names)
    assert position_distribution(tables) == reference_position_distribution(refs)
    first, second = tables[:2]
    assert first.layout is second.layout
    assert all((a is b) == (a == b) for a, b in zip(first.entries, second.entries))
    assert any(a is b for a, b in zip(first.entries, second.entries))


def test_fifty_more_tables_retain_a_few_words_per_group_and_site(hardened):
    """Each further rotated table retains O(groups + sites) words: its
    positions, its entry list and its bytes.  Its draws and entries are
    shared with the plan's other tables.  The bound, 6 words per push group
    and site, is generous: such a table takes about 2, and one holding its
    own draw dicts took about 15."""
    himg, hman, _ = hardened
    image = _fresh(himg)
    # Warm the plan: 50 boots encode nearly every (site, position) entry.
    for seed in range(50):
        build_rotated_table(image, hman, KEY, seed)
    plan = obfuscation.boot_scan(image, KEY)
    words = len(plan.push_groups[0]) + len(plan.sites)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = [build_rotated_table(image, hman, KEY, seed) for seed in range(50, 100)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(tables) <= 6 * 8 * words


@given(crafted_images())
@settings(max_examples=200, deadline=None)
def test_crafted_images_boot_like_the_reference(image):
    """On arbitrary bytes the boot pass builds the reference's table or
    raises the reference's typed error."""
    try:
        ref = reference_table(image, KEY)
    except (IntegrityError, TableCapacityError) as exc:
        with pytest.raises(type(exc)):
            build_table(image, KEY)
    else:
        assert _same_table(build_table(image, KEY), ref)


@given(crafted_images(), st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_crafted_images_boot_rotated_or_raise_a_typed_error(image, seed):
    """On arbitrary bytes the rotated boot places an entry for every site or
    raises a typed integrity, capacity or hardening error."""
    try:
        plan = obfuscation.boot_scan(image, KEY)
        groups, _ = plan.push_groups
        table = plan.rotated_table(seed, _non_leaf_functions(len(groups)))
    except (IntegrityError, TableCapacityError, HardenError):
        return
    assert [e.site for e in table.entries] == [sighting.core for sighting, _ in plan.sites]
    assert len(table.draws) == sum(isinstance(insn, Push) for _, insn in plan.sites)


@pytest.mark.parametrize("literal, adds_imm, message", [
    (DEFAULT_TABLE_BASE - 8, 0, "entry outside table"),
    (DEFAULT_TABLE_BASE, 2, "misaligned"),
], ids=["below-the-table", "off-the-stride"])
def test_a_rotated_boot_checks_each_entry_as_the_plain_boot_does(literal, adds_imm, message):
    """A push site whose entry lies below the table or off the stride, with
    room for every rotated sequence before the pop site after it, fails
    every rotated boot with the plain boot's IntegrityError naming it."""
    data = bytearray(64)
    for off, adds, lit, insn in [(0, adds_imm, literal, Push(RegisterList.of("r4", "lr"))),
                                 (32, 32, DEFAULT_TABLE_BASE, Pop(RegisterList.of("r4", "pc")))]:
        assert plant_signature(data, DEFAULT_BASE, off, adds, lit,
                               encrypt_bytes(encode(insn), KEY))
    image = FirmwareImage(DEFAULT_BASE, bytes(data))
    error = f"site 0x{DEFAULT_BASE:x}: .*{message}"
    with pytest.raises(IntegrityError, match=error):
        build_table(image, KEY)
    for seed in range(4):
        with pytest.raises(IntegrityError, match=error):
            obfuscation.boot_scan(image, KEY).rotated_table(seed, _non_leaf_functions(1))


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call to ``owner.<name>``."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_wrong_key_fails_every_call_and_leaves_nothing(hardened, monkeypatch):
    himg, hman, _ = hardened
    image = _fresh(himg)
    wrong = next(k for k in range(1, 0x10000) if k != KEY and _reference_fails(image, k))
    scans = _count_calls(monkeypatch, obfuscation, "scan_trampolines")
    for attempt in range(1, 4):
        with pytest.raises(IntegrityError):
            build_table(image, wrong)
        with pytest.raises(IntegrityError):
            build_rotated_table(image, hman, wrong, seed=attempt)
        assert len(scans) == 2 * attempt  # nothing memoised: every call rescans
    assert _same_table(build_table(image, KEY), reference_table(image, KEY))
    assert _same_table(
        build_rotated_table(image, hman, KEY, 5), reference_rotated_table(image, hman, KEY, 5)
    )
    with pytest.raises(IntegrityError):  # the good key's plan is not the wrong key's
        build_table(image, wrong)


def _reference_fails(image, key) -> bool:
    try:
        reference_table(image, key)
    except IntegrityError:
        return True
    return False


def test_the_manifest_only_names_the_draws(hardened, monkeypatch):
    """The rotated boot reads nothing of the manifest but its functions: a
    manifest with no site records, one whose return sites name the wrong
    functions, and the honest one with its site records unreadable all boot
    the honest table."""
    himg, hman, _ = hardened
    refs = [reference_rotated_table(himg, hman, KEY, seed) for seed in range(4)]
    no_sites = copy.deepcopy(hman)
    for entry in no_sites.transform_log:
        entry.pop("sites", None)
    swapped = copy.deepcopy(hman)
    names = [fn.name for fn in hman.functions]
    snapshot = next(entry for entry in reversed(swapped.transform_log) if "sites" in entry)
    for site in snapshot["sites"]:
        if site["kind"] == "return":
            site["fn"] = names[names.index(site["fn"]) - 1]

    def unreadable(self):
        raise AssertionError("the rotated boot read the site records")

    monkeypatch.setattr(Manifest, "trampoline_records", unreadable)
    for man in (no_sites, swapped, hman):
        image = _fresh(himg)
        for seed, ref in enumerate(refs):
            assert _same_table(build_rotated_table(image, man, KEY, seed), ref)


def test_a_pop_unlike_its_push_fails_every_rotated_boot(hardened):
    """A sealed pop re-encrypted with another register list is an integrity
    fault naming its site for every seed; the plain boot has no push to
    compare it with."""
    himg, hman, _ = hardened
    sighting, pop = next(
        (s, insn) for s, insn in obfuscation.boot_scan(himg, KEY).sites
        if isinstance(insn, Pop) and insn.byte_length() == 2
        and not insn.regs.without_flags().is_empty
    )
    data = bytearray(himg.data)
    slot = sighting.enc_slot - himg.base
    data[slot : slot + 2] = encrypt_bytes(encode(Pop(RegisterList(pop.regs.mask | 1))), KEY)
    image = FirmwareImage(himg.base, bytes(data), himg.sram_base, himg.table_base)
    for seed in range(8):
        with pytest.raises(IntegrityError, match=f"site 0x{sighting.core:x}: pop "):
            build_rotated_table(image, hman, KEY, seed)
    build_table(image, KEY)


def test_fifty_boots_scan_once_plan_once_and_place_each_entry_once(hardened, monkeypatch):
    """Fifty rotated boots of a fresh image, whose plan starts with an empty
    template memo, scan it once, call ``plan_rotation`` once per distinct
    (sealed pop or push, position), and place each (site, position) entry
    once: fewer placements than the fifty tables hold entries."""
    himg, hman, _ = hardened
    image = _fresh(himg)
    scans = _count_calls(monkeypatch, obfuscation, "scan_trampolines")
    plans = _count_calls(monkeypatch, obfuscation, "plan_rotation")
    placements = _count_calls(monkeypatch, obfuscation.BootPlan, "_place")
    tables = [build_rotated_table(image, hman, KEY, seed) for seed in range(50)]
    assert len(scans) == 1
    sealed = {insn for _, insn in obfuscation.boot_scan(image, KEY).sites
              if isinstance(insn, (Pop, Push))}
    assert Counter(plans) == Counter(
        (insn.regs.without_flags(), position)
        for insn in sealed for position in range(len(insn.regs.without_flags()) + 1))
    placed = [(index, position) for _, index, position in placements]
    assert len(placed) == len(set(placed))
    assert len(placed) < sum(len(t.entries) for t in tables)


def test_rotation_plans_equal_the_reference_for_every_register_set():
    """Every r4-r11 register set, with or without lr, at every position:
    the mask-built plan equals the one built list by list."""
    for mask in range(1 << 8):
        for flags in (0, RegisterList.of("lr").mask):
            regs = RegisterList(mask << 4 | flags)
            for position in range(len(regs.without_flags()) + 1):
                assert plan_rotation(regs, position) == reference_plan_rotation(regs, position)
            for position in (-1, len(regs.without_flags()) + 1):
                with pytest.raises(HardenError):
                    plan_rotation(regs, position)


def test_templates_and_room_equal_the_reference_for_every_register_set():
    """Every r4-r11 register set, with and without lr (pc for a pop), sealed
    as a push and as a pop, rotated and not: each template is the encoding
    of the reference plan's sequence (the instruction alone unrotated), and
    the room is the longest entry ``ReferenceTable.add`` encodes for it,
    with a push's branch back."""
    sighting = RawSighting(core=DEFAULT_BASE, adds_imm=0, literal_value=DEFAULT_TABLE_BASE)
    for mask in range(1 << 8):
        for flagged in (False, True):
            regs = RegisterList(mask << 4)
            for kind, flag in ((Push, "lr"), (Pop, "pc")):
                insn = kind(regs.union(RegisterList.of(flag)) if flagged else regs)
                for rotated in (False, True) if not insn.regs.is_empty else (True,):
                    if rotated:
                        plans = [reference_plan_rotation(regs, position)
                                 for position in range(len(regs) + 1)]
                        seqs = [p.push_sequence if kind is Push else p.pop_sequence
                                for p in plans]
                    else:
                        seqs = [[insn]]
                    assert entry_templates(insn, rotated) == tuple(
                        (b"".join(encode(i) for i in seq), "; ".join(i.text() for i in seq))
                        for seq in seqs
                    ), (insn, rotated)
                    longest = 0
                    for seq in seqs:
                        table = ReferenceTable(DEFAULT_TABLE_BASE, 0x100)
                        table.add(sighting, seq)
                        longest = max(longest, len(table.entries[0][1]))
                    assert EntryTemplates().room(insn, rotated) == longest, (insn, rotated)
