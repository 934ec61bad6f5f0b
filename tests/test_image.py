"""Corpus generator, manifest I/O, and splice tests."""

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retobf import isa
from retobf._rewrite import BlobItem, Program, lift, signature_offsets
from retobf.harden import encrypt_pushes, pad_corpus
from retobf.image import (
    MAX_IMAGE_SIZE,
    _is_record,
    _json_chunks,
    CorpusParams,
    FirmwareImage,
    FunctionRecord,
    ImageError,
    artifact_path,
    commit,
    generate_corpus,
    json_text,
    load,
    remap_manifest,
    save,
    splice,
    write_json,
)
from retobf.isa import Pop, Push, RegisterList, decode
from retobf.machine import CALLER_STACK_BYTES, call, states_equivalent
from retobf.obfuscation import build_table, obfuscate_returns

from conftest import KEY

R = RegisterList.of


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(CorpusParams(function_count=24, seed=7))


@pytest.mark.parametrize("name", ["base", "data", "sram_base", "table_base"])
def test_image_fields_cannot_be_reassigned(name):
    """The image's memos (flash decodes, boot plans) are keyed on these
    fields never changing."""
    image = FirmwareImage(0x40000, bytes(8))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(image, name, getattr(image, name))


@pytest.mark.parametrize("base, size, message", [
    (-4, 8, "flash base -0x4 is negative"),
    (0xFFFFFFFC, 8, "flash 0xfffffffc..0x100000004 runs past the 32-bit address space"),
    (0x100000000, 2, "flash 0x100000000..0x100000002 runs past the 32-bit address space"),
    (0x240000, 8, "flash 0x240000..0x240008 overlaps RAM 0x240000..0x250000"),
    (0x23FFFC, 8, "flash 0x23fffc..0x240004 overlaps RAM 0x240000..0x250000"),
    (0x24FFFC, 8, "flash 0x24fffc..0x250004 overlaps RAM 0x240000..0x250000"),
    (0x200000, 0x60000, "flash 0x200000..0x260000 overlaps RAM 0x240000..0x250000"),
])
def test_flash_outside_the_address_map_is_one_error(base, size, message):
    """Flash [base, end) must lie in the 32-bit space and clear of the RAM
    [sram_base, stack_top)."""
    with pytest.raises(ImageError) as info:
        FirmwareImage(base, bytes(size))
    assert str(info.value) == message


@pytest.mark.parametrize("base, size", [
    (0, 8), (0x40000, 8), (0x08000000, 8), (0xFFFFFFF8, 8), (0x23FFF8, 8), (0x250000, 8),
    (0x244000, 0), (0x100000000, 0),
])
def test_flash_inside_the_address_map_is_accepted(base, size):
    """Ranges that touch the edges, and empty ranges, which overlap nothing."""
    assert FirmwareImage(base, bytes(size)).end == base + size


def test_image_size_limit_is_one_error():
    """Every image, loaded, generated or attacked, is checked against one limit."""
    assert len(FirmwareImage(0x40000, bytes(MAX_IMAGE_SIZE)).data) == MAX_IMAGE_SIZE
    with pytest.raises(ImageError) as info:
        FirmwareImage(0x40000, bytes(MAX_IMAGE_SIZE + 2))
    assert str(info.value) == f"image is {MAX_IMAGE_SIZE + 2} bytes, limit {MAX_IMAGE_SIZE}"


def test_empty_corpus():
    image, manifest = generate_corpus(CorpusParams(function_count=0, seed=1))
    assert image.data == b""
    assert manifest.functions == []


def test_generation_is_deterministic():
    a_img, a_man = generate_corpus(CorpusParams(function_count=16, seed=42))
    b_img, b_man = generate_corpus(CorpusParams(function_count=16, seed=42))
    assert a_img.data == b_img.data
    assert json.dumps(a_man.to_json()) == json.dumps(b_man.to_json())
    c_img, _ = generate_corpus(CorpusParams(function_count=16, seed=43))
    assert c_img.data != a_img.data


def test_prologue_epilogue_shapes(small_corpus):
    image, manifest = small_corpus
    for fn in manifest.functions:
        if fn.is_leaf:
            assert fn.prologue_site is None
            insn, _ = decode(image.data, fn.epilogue_sites[0] - image.base)
            assert insn == isa.BxLr()
        else:
            insn, _ = decode(image.data, fn.prologue_site - image.base)
            assert insn == Push(fn.used_callee_saved.union(R("lr")))
            for site in fn.epilogue_sites:
                insn, _ = decode(image.data, site - image.base)
                assert insn == Pop(fn.true_pop)
                assert insn == Pop(fn.used_callee_saved.union(R("pc")))


def test_symmetric_pairs_exist():
    # Functions shaped like the classic symmetric pair examples come out of
    # the generator: push {..., lr} matched by pop {..., pc}.
    _, manifest = generate_corpus(CorpusParams(function_count=60, seed=3))
    for fn in manifest.functions:
        if not fn.is_leaf:
            assert fn.true_pop == fn.used_callee_saved.union(R("pc"))


def test_no_accidental_signature(small_corpus):
    image, _ = small_corpus
    assert signature_offsets(image.data) == []


def test_aapcs_conformance(small_corpus):
    image, manifest = small_corpus
    rng = random.Random(99)
    for fn in manifest.functions:
        regs = {i: rng.randrange(1 << 32) for i in range(13)}
        result = call(image, entry=fn.start, regs=regs)
        state = result.state
        for reg in isa.CALLEE_SAVED:
            assert state.regs[reg] == regs[reg], f"{fn.name} clobbered r{reg}"
        assert state.sp == state.stack_top - CALLER_STACK_BYTES, fn.name


def test_manifest_matches_linear_decode(small_corpus):
    image, manifest = small_corpus
    for fn in manifest.functions:
        addr = fn.start
        seen = []
        while addr < fn.end:
            insn, length = decode(image.data, addr - image.base, addr)
            seen.append((addr, insn))
            addr += length
        site_map = dict(seen)
        for site in fn.epilogue_sites:
            if fn.is_leaf:
                assert site_map[site] == isa.BxLr()
            else:
                assert site_map[site] == Pop(fn.true_pop)


def test_save_load_roundtrip(tmp_path, small_corpus):
    image, manifest = small_corpus
    save(image, manifest, tmp_path / "corpus")
    image2, manifest2 = load(tmp_path / "corpus")
    assert image2.data == image.data
    assert manifest2.to_json() == manifest.to_json()
    # Save, reload, save again: byte-identical files.
    save(image2, manifest2, tmp_path / "again")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "corpus.json").read_bytes()
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "corpus.bin").read_bytes()


@pytest.mark.parametrize("prefix, stem", [
    ("d/corpus", "d/corpus"),
    ("d/corpus.v2", "d/corpus.v2"),
    ("d/corpus.bin", "d/corpus"),
    ("d/corpus.json", "d/corpus"),
    ("d/corpus.v2.bin", "d/corpus.v2"),
])
def test_artifact_paths_keep_every_dot_but_a_pair_suffix(prefix, stem):
    assert artifact_path(prefix, ".bin") == Path(stem + ".bin")
    assert artifact_path(Path(prefix), ".json") == Path(stem + ".json")


def test_a_dotted_prefix_saves_and_loads_its_own_pair(tmp_path, small_corpus):
    image, manifest = small_corpus
    assert save(image, manifest, tmp_path / "corpus.v2") == (
        tmp_path / "corpus.v2.bin", tmp_path / "corpus.v2.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.v2.bin", "corpus.v2.json"]
    for prefix in ("corpus.v2", "corpus.v2.bin", "corpus.v2.json"):
        assert load(tmp_path / prefix)[0].data == image.data


def test_load_rejects_overlap(tmp_path, small_corpus):
    image, manifest = small_corpus
    save(image, manifest, tmp_path / "bad")
    obj = json.loads((tmp_path / "bad.json").read_text())
    obj["functions"][1]["start"] = obj["functions"][0]["start"]
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    with pytest.raises(ImageError):
        load(tmp_path / "bad")


def test_load_rejects_truncated_binary(tmp_path, small_corpus):
    image, manifest = small_corpus
    save(image, manifest, tmp_path / "short")
    data = (tmp_path / "short.bin").read_bytes()
    (tmp_path / "short.bin").write_bytes(data[: len(data) // 2 // 2 * 2])
    with pytest.raises(ImageError):
        load(tmp_path / "short")


def test_load_rejects_checksum_mismatch(tmp_path, small_corpus):
    image, manifest = small_corpus
    save(image, manifest, tmp_path / "sum")
    data = bytearray((tmp_path / "sum.bin").read_bytes())
    data[0] ^= 0xFF
    (tmp_path / "sum.bin").write_bytes(bytes(data))
    with pytest.raises(ImageError):
        load(tmp_path / "sum")


def test_splice_zero_bytes_is_identity(small_corpus):
    image, manifest = small_corpus
    image2, manifest2 = splice(image, manifest, image.base + 2, b"")
    assert image2.data == image.data
    assert manifest2 is manifest


def test_program_insert_shifts_later_labels():
    prog = Program(0x40000)
    for addr in (0x40000, 0x40002, 0x40004):
        prog.add(BlobItem(b"\x00\xbf", orig_addr=addr))
    prog.labels["tail"] = 2
    stub = BlobItem(b"\x00\xbf" * 2)
    prog.insert(1, stub)
    assert prog.items[1] is stub
    assert prog.labels == {0x40000: 0, 0x40002: 2, 0x40004: 3, "tail": 3}
    assert prog.layout().addr_map[0x40004] == 0x40008


def test_splice_rejects_odd(small_corpus):
    image, manifest = small_corpus
    with pytest.raises(ImageError):
        splice(image, manifest, image.base + 1, b"\x00\xbf")
    with pytest.raises(ImageError):
        splice(image, manifest, image.base, b"\x00")
    with pytest.raises(ImageError):
        splice(image, manifest, image.end + 2, b"\x00\xbf")


def test_splice_shifts_and_preserves_behavior(small_corpus):
    image, manifest = small_corpus
    target = manifest.functions[2]
    filler = bytes.fromhex("00bf") * 5  # 10 bytes of nops
    image2, manifest2 = splice(image, manifest, target.start, filler)
    moved = manifest2.functions[2]
    assert moved.start == target.start + 10
    assert moved.end == target.end + 10
    assert len(image2.data) == len(image.data) + 10
    # Functions before the splice point stay put.
    assert manifest2.functions[0].start == manifest.functions[0].start
    rng = random.Random(5)
    for fn_old, fn_new in zip(manifest.functions, manifest2.functions):
        regs = {i: rng.randrange(1 << 32) for i in range(13)}
        before = call(image, entry=fn_old.start, regs=regs)
        after = call(image2, entry=fn_new.start, regs=regs)
        assert states_equivalent(before.state, after.state), fn_old.name


def test_splice_into_obfuscated_image(small_corpus):
    """A 2-byte insert flips the alignment of every later trampoline; the
    constant-footprint re-layout must keep the pc-relative literals
    reachable and behavior intact."""
    from retobf.machine import call, states_equivalent
    from retobf.obfuscation import build_table, obfuscate_returns
    from retobf.obfuscation import scan_trampolines

    image, manifest = small_corpus
    obf, man2, records = obfuscate_returns(image, manifest, 0xA5A5)
    at = man2.functions[1].start
    spliced, man3 = splice(obf, man2, at, b"\x00\xbf")
    assert len(spliced.data) == len(obf.data) + 2
    sightings = scan_trampolines(spliced.data, spliced.base)
    assert len(sightings) == len(records)
    for s in sightings:
        assert s.core % 4 == 2
    table = build_table(spliced, 0xA5A5)
    rng = random.Random(12)
    for fn_old, fn_new in zip(manifest.functions, man3.functions):
        regs = {i: rng.randrange(1 << 32) for i in range(13)}
        a = call(image, entry=fn_old.start, regs=regs)
        b = call(spliced, table, entry=fn_new.start, regs=regs)
        assert states_equivalent(a.state, b.state), fn_old.name


class _Identity(dict):
    """The address map of a rewrite that moves nothing."""

    def __missing__(self, addr):
        return addr


@pytest.mark.parametrize("stage", ["corpus", "obfuscated", "hardened"])
def test_remap_under_the_identity_map_returns_an_equal_manifest(request, stage):
    """Remapping keeps every field of the manifest and of each function
    record (a padded function's pad registers too), and copies the records
    and log entries rather than sharing them with its input."""
    manifest = request.getfixturevalue(stage)[1]
    remapped = remap_manifest(manifest, _Identity())
    assert remapped == manifest
    assert all(new is not old for new, old in zip(remapped.functions, manifest.functions))
    assert all(new is not old
               for new, old in zip(remapped.transform_log, manifest.transform_log))
    if stage == "hardened":
        assert any(fn.pad_registers for fn in remapped.functions)


def test_commit_starts_the_next_image_with_empty_memos(obfuscated):
    """The next image keeps the address map and holds the new layout's
    bytes, with none of the interpreter's or the boot pass's memos of the
    image it was made from."""
    obf, manifest, _ = obfuscated
    image = FirmwareImage(obf.base, obf.data, obf.sram_base, obf.table_base)
    table = build_table(image, KEY)
    for fn in manifest.functions:
        call(image, table, entry=fn.start, keep_trace=False)
    assert image.blocks and image.table_blocks and image.boot_plans
    new_image, _ = commit(lift(image, manifest), image, manifest, "relayout")
    assert (new_image.base, new_image.data, new_image.sram_base, new_image.table_base) == (
        image.base, image.data, image.sram_base, image.table_base)
    assert (new_image.blocks, new_image.table_blocks, new_image.boot_plans) == ({}, {}, {})


def test_corpus_params_log_every_field():
    """The generate entry of the transform log holds every corpus parameter,
    tuples as lists, and reads back as the same parameters."""
    params = CorpusParams(function_count=3, body_len=(5, 9), high_reg_prob=0.5, seed=4)
    _, manifest = generate_corpus(params)
    logged = manifest.transform_log[0]["params"]
    assert logged == params.to_json()
    assert set(logged) == {f.name for f in dataclasses.fields(CorpusParams)}
    assert not any(isinstance(value, tuple) for value in logged.values())
    assert CorpusParams(**{key: tuple(value) if isinstance(value, list) else value
                           for key, value in logged.items()}) == params


def test_validate_catches_bad_true_pop():
    fn = FunctionRecord(
        name="x",
        start=0x40000,
        end=0x40010,
        prologue_site=0x40000,
        epilogue_sites=[0x4000E],
        true_pop=R("r4", "lr"),
        used_callee_saved=R("r4"),
    )
    with pytest.raises(ImageError):
        fn.validate()


def test_params_validation():
    with pytest.raises(ImageError):
        generate_corpus(CorpusParams(function_count=-1))
    with pytest.raises(ImageError):
        generate_corpus(CorpusParams(leaf_ratio=1.5))


#: JSON leaves: strings with non-ASCII and control characters, ints past 64
#: bits, the special floats, and bools beside the ints they equal.
JSON_LEAVES = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf]),
    st.sampled_from([True, False, 1, 0, None]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)


@given(JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_json_text_reads_back_as_the_object(obj):
    """``json.loads`` gives back ``obj``, tuples as lists; comparing through
    ``json.dumps`` tells NaN from NaN and True from 1."""
    assert json.dumps(json.loads(json_text(obj)), sort_keys=True) == json.dumps(obj, sort_keys=True)


def _record_lines(obj, indent="", key=None):
    """The line of each record in ``obj``, in text order: its indent, its
    key, and ``json.dumps(record, sort_keys=True)``."""
    head = indent + ("" if key is None else json.dumps(key) + ": ")
    if not isinstance(obj, (dict, list, tuple)) or _is_record(obj):
        yield head + json.dumps(obj, sort_keys=True)
        return
    for k, value in sorted(obj.items()) if isinstance(obj, dict) else ((None, v) for v in obj):
        yield from _record_lines(value, indent + "  ", k)


@given(JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_json_text_puts_each_record_on_one_line(obj):
    """Each record sits on its own line, with an optional trailing comma;
    every other line opens or closes a list or dict that holds records.
    ``write_json`` takes each record, and each closing line, as one chunk."""
    lines = [line.removesuffix(",") for line in json_text(obj).split("\n")]
    assert lines.pop() == ""
    closing = [line for line in lines if line.strip() in ("]", "}")]
    structure = closing + [line for line in lines if line[-1] in "[{"]
    records = [line for line in lines if line not in structure]
    assert records == list(_record_lines(obj))
    assert len(list(_json_chunks(obj, "\n"))) == len(records) + len(closing)


def test_saved_manifest_puts_each_function_on_one_line(small_corpus, tmp_path):
    _, json_path = save(*small_corpus, tmp_path / "c")
    text = json_path.read_text()
    assert text == json_text(small_corpus[1].to_json())
    lines = [line.removesuffix(",") for line in text.split("\n")]
    for fn in small_corpus[1].functions:
        assert "    " + json.dumps(fn.to_json(), sort_keys=True) in lines


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_written_json_is_json_text(tmp_path_factory, obj):
    """The bytes ``write_json`` streams to a file are the one text form, and
    in ``lines`` form each item is one ``json.dumps(..., sort_keys=True)``
    line."""
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == json_text(obj).encode()
    if isinstance(obj, (list, tuple)):
        write_json(path, iter(obj), lines=True)
        assert path.read_bytes() == "".join(
            json.dumps(item, sort_keys=True) + "\n" for item in obj).encode()


def test_an_indented_manifest_with_older_snapshots_loads(corpus, tmp_path):
    """A manifest in the earlier form, indented by ``json.dumps`` and with a
    ``sites`` snapshot in every log entry that sealed sites, loads and
    reads the same trampoline records as the manifest that keeps one."""
    image, manifest = corpus
    image, manifest, _ = pad_corpus(image, manifest, key_seed=3, kmax=2)
    image, manifest, _ = obfuscate_returns(image, manifest, KEY, rotation_capable=True)
    older = manifest.transform_log[-1]["sites"]
    image, manifest, _ = encrypt_pushes(image, manifest, KEY)
    assert ["sites" in entry for entry in manifest.transform_log] == [False] * 3 + [True]
    old = manifest.to_json()
    old["transform_log"][2]["sites"] = older
    _, json_path = save(image, manifest, tmp_path / "h")
    json_path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    _, loaded = load(tmp_path / "h")
    assert loaded.trampoline_records() == manifest.trampoline_records()
    assert loaded.transform_log[2]["sites"] == older


class Opaque:
    """A type json cannot encode, with a repr that names the same test case
    on every run (a bare object's repr carries its memory address)."""

    def __repr__(self):
        return "Opaque()"


@pytest.mark.parametrize("obj", [
    {1, 2}, Path("x"), b"bytes", {"a": [1, Opaque()]}, {1: "int key"}, {None: 0},
    {"a": 1, 2: "mixed keys"}, [{(1, 2): 3}],
], ids=repr)
def test_json_text_refuses_what_json_rejects(obj, tmp_path):
    """Types json cannot encode raise TypeError, and so does any key that is
    not a str (json would have converted it), whether the text is joined or
    written to a file, indented or as one JSON Lines record."""
    with pytest.raises(TypeError):
        json_text(obj)
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.json", obj)
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.jsonl", [{"ok": 1}, obj], lines=True)


@pytest.mark.parametrize("obj", [
    {"a": [1, {2: "x"}]}, [[{None: 1}]], {"a": [[], [{1.5: 0}]]}, ({True: 1},),
], ids=repr)
def test_json_text_refuses_a_non_str_key_inside_a_record(obj, tmp_path):
    """A dict key that is not a str raises TypeError also where the dict is
    nested inside a record, which one line of json's C encoder writes."""
    with pytest.raises(TypeError):
        json_text(obj)
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.jsonl", [obj], lines=True)
