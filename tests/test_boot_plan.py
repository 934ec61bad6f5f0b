"""The boot plan: each image is scanned and decrypted once per key, each
entry encoded once, and every table still equals the uncached reference
boot pass, whatever order the tables are built in."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retobf import obfuscation
from retobf.harden import HardenError, build_rotated_table, harden
from retobf.image import CorpusParams, FirmwareImage, generate_corpus
from retobf.obfuscation import IntegrityError, TableCapacityError, build_table

from conftest import KEY, crafted_images
from reference_boot import reference_rotated_table, reference_table


def _fresh(image: FirmwareImage) -> FirmwareImage:
    """The same image with empty memos."""
    return FirmwareImage(image.base, image.data, image.sram_base, image.table_base)


def _same_table(table, ref) -> bool:
    return table.to_json() == ref.to_json() and bytes(table.image) == bytes(ref.image)


@given(
    functions=st.integers(1, 8),
    corpus_seed=st.integers(0, 1000),
    kmax=st.integers(0, 3),
    order=st.lists(st.one_of(st.none(), st.integers(0, 10_000)), min_size=1, max_size=6),
)
@settings(max_examples=25, deadline=None)
def test_tables_equal_the_uncached_reference(functions, corpus_seed, kmax, order):
    """Plain (None) and rotated (a seed) tables built in any order, with the
    first one built again at the end, equal the reference boot pass."""
    image, manifest = generate_corpus(CorpusParams(function_count=functions, seed=corpus_seed))
    himg, hman, _ = harden(image, manifest, KEY, kmax=kmax, rotate=True, seed=corpus_seed)
    for seed in [*order, order[0]]:
        if seed is None:
            table, ref = build_table(himg, KEY), reference_table(himg, KEY)
        else:
            table = build_rotated_table(himg, hman, KEY, seed)
            ref = reference_rotated_table(himg, hman, KEY, seed)
        assert _same_table(table, ref), seed


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


def _count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call to ``obfuscation.<name>``."""
    calls = []
    original = getattr(obfuscation, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(obfuscation, name, counted)
    return calls


def test_a_wrong_key_fails_every_call_and_leaves_nothing(hardened, monkeypatch):
    himg, hman, _ = hardened
    image = _fresh(himg)
    wrong = next(k for k in range(1, 0x10000) if k != KEY and _reference_fails(image, k))
    scans = _count_calls(monkeypatch, "scan_trampolines")
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


def test_a_memoised_plan_still_checks_each_manifest(hardened):
    """The plan holds nothing from a manifest: an edited manifest that drops
    one site record is refused after the good one booted the same image."""
    himg, hman, _ = hardened
    image = _fresh(himg)
    build_rotated_table(image, hman, KEY, seed=1)
    man = copy.deepcopy(hman)
    snapshot = next(entry for entry in reversed(man.transform_log) if "sites" in entry)
    snapshot["sites"] = snapshot["sites"][1:]
    with pytest.raises(HardenError, match="not both recorded"):
        build_rotated_table(image, man, KEY, seed=1)
    assert _same_table(
        build_rotated_table(image, hman, KEY, 2), reference_rotated_table(image, hman, KEY, 2)
    )


def test_a_memoised_plan_follows_each_manifests_site_functions(hardened):
    """Entries are keyed by the sealed register mask, not by the manifest's
    function name: a manifest that swaps two functions' return sites (same
    register count, different registers) pops each through the other
    function's registers, as the reference does."""
    himg, hman, _ = hardened
    image = _fresh(himg)
    by_count = {}
    for fn in hman.functions:
        regs = None if fn.true_pop is None else fn.true_pop.without_flags()
        if regs is not None and max(regs.indices(), default=0) <= 7:
            by_count.setdefault(len(regs), []).append((fn.name, regs))
    a, b = next(
        (x[0], y[0]) for group in by_count.values() for x in group for y in group if x[1] != y[1]
    )
    man = copy.deepcopy(hman)
    snapshot = next(entry for entry in reversed(man.transform_log) if "sites" in entry)
    for site in snapshot["sites"]:
        if site["kind"] == "return":
            site["fn"] = {a: b, b: a}.get(site["fn"], site["fn"])
    for seed in range(4):
        build_rotated_table(image, hman, KEY, seed)
        table = build_rotated_table(image, man, KEY, seed)
        assert _same_table(table, reference_rotated_table(image, man, KEY, seed))


def test_fifty_boots_scan_once_and_encode_each_entry_once(hardened, monkeypatch):
    himg, hman, _ = hardened
    image = _fresh(himg)
    scans = _count_calls(monkeypatch, "scan_trampolines")
    encodings = _count_calls(monkeypatch, "entry_bytes_for")
    tables = [build_rotated_table(image, hman, KEY, seed) for seed in range(50)]
    assert len(scans) == 1
    encoded = [
        (sighting.core, tuple(insn.text() for insn in seq)) for seq, sighting, _ in encodings
    ]
    assert len(encoded) == len(set(encoded))
    assert len(encoded) < sum(len(t.entries) for t in tables)
