"""Attack pipeline tests: locator, both recovery methods, cross-checking,
gadget catalog, baseline scan, and the evaluator."""

import random

import pytest
from hypothesis import given, settings

from retobf import isa
from retobf._rewrite import ENC_SLOT_OFFSET
from retobf.attack import (
    AttackResult,
    ImageView,
    LineageError,
    Prediction,
    baseline_gadget_scan,
    combine_predictions,
    evaluate_recovery,
    find_trampolines,
    recover_by_liveness,
    recover_by_symmetry,
    run_attack,
)
from retobf.cli import main
from retobf.image import FirmwareImage, FunctionRecord, Manifest
from retobf.isa import (
    AddReg,
    AddSpImm,
    BxLr,
    MovImm,
    MovReg,
    Pop,
    Push,
    RegisterList,
    SubSpImm,
    encode,
)
from retobf.machine import check_gadget
from retobf.obfuscation import build_table, obfuscate_returns

from conftest import KEY, crafted_images, plant_signature

R = RegisterList.of
BASE = 0x00040000


def make_fixture(fns):
    """Assemble a fixture image from per-function instruction lists.

    ``fns`` is a list of (name, instructions, used_callee_saved | None);
    None marks a leaf.  Returns (image, manifest).
    """
    data = bytearray()
    records = []
    for name, insns, used in fns:
        start = BASE + len(data)
        prologue = None
        epilogues = []
        for insn in insns:
            addr = BASE + len(data)
            raw = encode(insn, address=addr)
            if isinstance(insn, Push) and insn.regs.has_lr and prologue is None:
                prologue = addr
            if isa.is_return(insn):
                epilogues.append(addr)
            data += raw
        records.append(
            FunctionRecord(
                name=name,
                start=start,
                end=BASE + len(data),
                prologue_site=prologue,
                epilogue_sites=epilogues,
                true_pop=None if used is None else used.union(R("pc")),
                used_callee_saved=used if used is not None else RegisterList(0),
            )
        )
    image = FirmwareImage(BASE, bytes(data))
    manifest = Manifest(
        base=BASE,
        sram_base=image.sram_base,
        table_base=image.table_base,
        seed=0,
        functions=records,
    )
    manifest.record_pass(image, "generate", params={"fixture": True})
    return image, manifest


def symmetric_pair_fixture():
    """Two functions shaped like the classic symmetric pair examples."""
    fns = [
        (
            "four_regs",
            [
                Push(R("r4", "r6", "r7", "lr")),
                MovImm(4, 1), MovImm(6, 2), MovImm(7, 3), MovImm(0, 9),
                Pop(R("r4", "r6", "r7", "pc")),
            ],
            R("r4", "r6", "r7"),
        ),
        (
            "one_reg",
            [
                Push(R("r7", "lr")),
                MovImm(7, 5), MovImm(1, 6),
                Pop(R("r7", "pc")),
            ],
            R("r7"),
        ),
    ]
    return make_fixture(fns)


def test_locator_matches_ground_truth(obfuscated):
    image, manifest, records = obfuscated
    sites = find_trampolines(image)
    assert {s.core for s in sites} == {rec.core for rec in records}
    report = run_attack(image).to_json()
    offsets = {int(s["address"], 16): s["inferred_table_offset"] for s in report["sites"]}
    base_offset = min(rec.table_offset for rec in records)
    for rec in records:
        assert offsets[rec.core] == rec.table_offset - base_offset


def test_locator_empty_on_plain_image(corpus):
    image, _ = corpus
    assert find_trampolines(image) == []


def test_adversarial_literal_counts_as_false_positive():
    image, manifest = symmetric_pair_fixture()
    obf, man2, records = obfuscate_returns(image, manifest, KEY)
    # Append a data word region that happens to spell the signature.
    fake = (
        (0x4803).to_bytes(2, "little")
        + (0x3020).to_bytes(2, "little")
        + (0x4687).to_bytes(2, "little")
        + bytes(8)
        + (0x00240000).to_bytes(4, "little")
    )
    from retobf.image import splice

    spiked, man3 = splice(obf, man2, obf.end, fake + bytes(2))
    sites = find_trampolines(spiked)
    assert len(sites) == len(records) + 1
    result = run_attack(spiked)
    report = evaluate_recovery(result, man3, spiked)
    assert report.false_positives == 1
    assert report.site_recall == 1.0


def test_signature_inside_another_core(tmp_path):
    """A signature starting in the sealed slot of another is located, but
    neither method gives it a verdict; the outer site keeps its own."""
    data = bytearray(96)
    data[0:4] = encode(Push(R("r4", "lr"))) + encode(MovImm(4, 1))
    outer, inner = 6, 6 + ENC_SLOT_OFFSET + 2
    for off in (outer, inner):
        assert plant_signature(data, BASE, off, 0, 0x00240000)
    image = FirmwareImage(BASE, bytes(data))
    result = run_attack(image)
    assert [s.core for s in result.sites] == [BASE + outer, BASE + inner]
    for method in ("symmetry", "liveness", "combined"):
        pred = result.predictions_at(method)[BASE + inner]
        assert not pred.ok and f"overlaps site 0x{BASE + outer:x}" in pred.reason
    assert result.predictions_at("symmetry")[BASE + outer].reglist == R("r4", "pc")
    (tmp_path / "img.bin").write_bytes(image.data)
    assert main(["attack", "--in", str(tmp_path / "img"), "--out", str(tmp_path / "atk")]) == 0


def test_region_ends_after_the_literal():
    """A core at 0 mod 4 keeps its literal at core+16..core+20; the next
    segment must start after it, not decode its high half as code."""
    data = bytearray(encode(MovImm(0, 1)) * 24)
    assert plant_signature(data, BASE, 0, 0, 0x11223344)
    image = FirmwareImage(BASE, bytes(data))
    view = ImageView(image)
    assert view.segments == [(BASE, BASE), (BASE + 20, image.end)]
    decoded = [view.decode_at(a, image.end)[0] for a in view.summary(1).starts]
    assert isa.Unknown(0x1122) not in decoded


@given(crafted_images())
@settings(max_examples=150, deadline=None)
def test_attack_never_raises_on_crafted_images(image):
    result = run_attack(image)
    for preds in result.predictions.values():
        assert [p.site for p in preds] == result.sites


def _assert_report_round_trips(result):
    """The report rebuilds to itself, each prediction with the method of the
    list it is filed under, which its record does not repeat."""
    report = result.to_json()
    rebuilt = AttackResult.from_json(report)
    assert rebuilt.to_json() == report
    for method, preds in rebuilt.predictions.items():
        assert [p.method for p in preds] == [method] * len(preds)
        assert all("method" not in p for p in report["predictions"][method])


@given(crafted_images())
@settings(max_examples=100, deadline=None)
def test_report_round_trips_on_crafted_images(image):
    _assert_report_round_trips(run_attack(image))


def test_report_round_trips_on_corpus(obfuscated):
    _assert_report_round_trips(run_attack(obfuscated[0]))


def test_symmetry_on_symmetric_pair_fixture():
    image, manifest = symmetric_pair_fixture()
    obf, man2, records = obfuscate_returns(image, manifest, KEY)
    sites = find_trampolines(obf)
    by_fn = {rec.core: rec.fn for rec in records}
    want = {"four_regs": R("r4", "r6", "r7", "pc"), "one_reg": R("r7", "pc")}
    for site in sites:
        pred = recover_by_symmetry(ImageView(obf), site)
        assert pred.ok and pred.kind == "pop"
        assert pred.reglist == want[by_fn[site.core]]
        assert pred.confidence > 0.9


def test_symmetry_minimal_pair():
    image, manifest = make_fixture(
        [("tiny", [Push(R("lr")), MovImm(0, 1), Pop(R("pc"))], RegisterList(0))]
    )
    obf, _, _ = obfuscate_returns(image, manifest, KEY)
    (site,) = find_trampolines(obf)
    pred = recover_by_symmetry(ImageView(obf), site)
    assert pred.ok and pred.reglist == R("pc")


def test_symmetry_failure_without_push():
    image, manifest = make_fixture(
        [("leaf", [MovImm(0, 1), MovImm(1, 2), BxLr()], None)]
    )
    obf, _, _ = obfuscate_returns(image, manifest, KEY)
    (site,) = find_trampolines(obf)
    pred = recover_by_symmetry(ImageView(obf), site)
    assert not pred.ok
    assert "no push-with-lr" in pred.reason


def test_symmetry_and_liveness_exact_on_corpus(obfuscated):
    image, manifest, _ = obfuscated
    result = run_attack(image)
    report = evaluate_recovery(result, manifest, image)
    for method in ("symmetry", "liveness", "combined"):
        assert report.methods[method].exact_rate == 1.0, method
    assert report.site_recall == 1.0
    assert report.false_positives == 0
    live = report.methods["liveness"]
    assert live.leaf_total > 0 and live.leaf_correct == live.leaf_total


def test_liveness_pop_pc_for_pushless_body():
    image, manifest = make_fixture(
        [
            (
                "no_callee",
                [Push(R("lr")), MovImm(0, 3), AddReg(1, 0, 0), Pop(R("pc"))],
                RegisterList(0),
            )
        ]
    )
    obf, _, _ = obfuscate_returns(image, manifest, KEY)
    (site,) = find_trampolines(obf)
    pred = recover_by_liveness(ImageView(obf), site)
    assert pred.ok and pred.reglist == R("pc")


def test_liveness_leaf_verdict():
    image, manifest = make_fixture(
        [("leaf", [MovImm(0, 1), AddReg(2, 0, 0), BxLr()], None)]
    )
    obf, _, _ = obfuscate_returns(image, manifest, KEY)
    (site,) = find_trampolines(obf)
    pred = recover_by_liveness(ImageView(obf), site)
    assert pred.ok and pred.kind == "bx_lr"


def test_liveness_collects_high_register_writes():
    image, manifest = make_fixture(
        [
            (
                "high",
                [
                    Push(R("r4", "r9", "lr")),
                    MovImm(0, 7),
                    MovReg(9, 0),
                    MovImm(4, 1),
                    Pop(R("r4", "r9", "pc")),
                ],
                R("r4", "r9"),
            )
        ]
    )
    obf, _, _ = obfuscate_returns(image, manifest, KEY)
    (site,) = find_trampolines(obf)
    pred = recover_by_liveness(ImageView(obf), site)
    assert pred.ok and pred.reglist == R("r4", "r9", "pc")


def test_multi_epilogue_recovery(multi_epilogue_corpus):
    image, manifest = multi_epilogue_corpus
    assert any(len(fn.epilogue_sites) > 1 for fn in manifest.functions)
    obf, man2, _ = obfuscate_returns(image, manifest, KEY)
    result = run_attack(obf)
    report = evaluate_recovery(result, man2, obf)
    for method in ("symmetry", "liveness", "combined"):
        assert report.methods[method].exact_rate == 1.0, method


def test_combine_agreement_and_passthrough(obfuscated):
    image, _, _ = obfuscated
    view = ImageView(image)
    site = view.sites[0]
    sym = recover_by_symmetry(view, site)
    live = recover_by_liveness(view, site)
    both = combine_predictions(sym, live)
    assert both.method == "combined"
    if sym.ok and live.ok and sym.reglist == live.reglist:
        assert both.reglist == sym.reglist
        assert both.confidence == max(sym.confidence, live.confidence)
    failed = Prediction(site, "symmetry", ok=False, reason="x")
    solo = combine_predictions(failed, live)
    assert solo.ok and solo.reglist == live.reglist and solo.method == "combined"
    assert "single method" in solo.reason


def test_combine_disagreement_keeps_union_and_intersection():
    image, manifest = symmetric_pair_fixture()
    obf, _, _ = obfuscate_returns(image, manifest, KEY)
    (site, _) = find_trampolines(obf)
    a = Prediction(site, "symmetry", ok=True, kind="pop", reglist=R("r4", "r7", "pc"),
                   confidence=1.0)
    b = Prediction(site, "liveness", ok=True, kind="pop", reglist=R("r7", "pc"),
                   confidence=1.0)
    both = combine_predictions(a, b)
    assert both.kind == "ambiguous"
    assert both.union == R("r4", "r7", "pc")
    # The verdict states no intersection: it is the intersection of the two
    # single-method reglists at the same site, which the report also holds.
    assert not hasattr(both, "intersection")
    assert a.reglist.intersection(b.reglist) == R("r7", "pc")
    assert both.confidence == 0.5


def test_gadget_catalog_slot_arithmetic():
    image, manifest = symmetric_pair_fixture()
    obf, _, _ = obfuscate_returns(image, manifest, KEY)
    result = run_attack(obf)
    by_site = {}
    for cand in result.catalog:
        by_site.setdefault(cand.site_address, []).append(cand)
    preds = result.predictions_at("combined")
    for addr, cands in by_site.items():
        bare = next(c for c in cands if not c.instructions)
        m = len(preds[addr].reglist)
        assert bare.stack_delta == 4 * m
        assert bare.pc_slot_index == m - 1
    # The four-register epilogue: delta 16, next address in slot 3.
    four = [c for c in by_site.values() if any(cc.stack_delta == 16 for cc in c)]
    assert four


def test_gadget_catalog_sp_adjustment_window():
    image, manifest = make_fixture(
        [
            (
                "frame",
                [
                    Push(R("r4", "lr")),
                    SubSpImm(8),
                    MovImm(4, 2),
                    AddSpImm(8),
                    Pop(R("r4", "pc")),
                ],
                R("r4"),
            )
        ]
    )
    obf, man2, _ = obfuscate_returns(image, manifest, KEY)
    result = run_attack(obf)
    deltas = {tuple(c.instructions): c for c in result.catalog}
    with_add = next(
        c for c in result.catalog if c.instructions and c.instructions[0].startswith("add sp")
    )
    # add sp,#8 then pop {r4, pc}: 8 + 4*2 bytes consumed, slot shifted by 2.
    assert with_add.stack_delta == 8 + 4 * 2
    assert with_add.pc_slot_index == 2 + 1
    # Windows reaching the sub sp are rejected (negative running offset).
    assert not any(
        any(t.startswith("sub sp") for t in c.instructions) for c in result.catalog
    )


def test_gadget_candidates_execute_correctly(obfuscated):
    image, manifest, _ = obfuscated
    table = build_table(image, KEY)
    result = run_attack(image)
    rng = random.Random(17)
    sample = rng.sample(result.catalog, min(40, len(result.catalog)))
    for cand in sample:
        assert check_gadget(
            image, table, cand.start, cand.stack_delta, cand.pc_slot_index
        ), cand


def test_baseline_scan_plain_vs_obfuscated(corpus, obfuscated):
    image, manifest = corpus
    non_leaf = sum(1 for fn in manifest.functions if not fn.is_leaf)
    plain_candidates = baseline_gadget_scan(image)
    bare = [c for c in plain_candidates if not c.instructions]
    assert len(bare) >= non_leaf
    obf_image, _, _ = obfuscated
    assert baseline_gadget_scan(obf_image) == []
    empty = FirmwareImage(BASE, b"")
    assert baseline_gadget_scan(empty) == []


def test_baseline_candidates_execute(corpus):
    image, _ = corpus
    rng = random.Random(23)
    candidates = baseline_gadget_scan(image)
    sample = rng.sample(candidates, min(40, len(candidates)))
    for cand in sample:
        assert check_gadget(
            image, None, cand.start, cand.stack_delta, cand.pc_slot_index
        ), cand


def test_evaluate_empty_report(corpus):
    image, manifest = corpus
    result = run_attack(image)  # plain image: no sites
    report = evaluate_recovery(result, manifest, image)
    assert report.empty
    assert report.site_recall is None
    for metrics in report.methods.values():
        assert metrics.exact_rate is None


def test_evaluate_lineage_mismatch(corpus, obfuscated):
    plain_image, plain_manifest = corpus
    obf_image, obf_manifest, _ = obfuscated
    result = run_attack(obf_image)
    with pytest.raises(LineageError):
        evaluate_recovery(result, plain_manifest, plain_image)


def test_report_is_json_serializable(obfuscated):
    import json

    image, manifest, _ = obfuscated
    result = run_attack(image)
    report = evaluate_recovery(result, manifest, image)
    blob = json.dumps({"attack": result.to_json(), "report": report.to_json()})
    assert "symmetry" in blob
    assert report.text_table().splitlines()[0].startswith("method")
