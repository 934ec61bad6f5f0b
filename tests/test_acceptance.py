"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import random

import pytest

from retobf import isa
from retobf.attack import (
    ImageView,
    baseline_gadget_scan,
    evaluate_recovery,
    find_trampolines,
    recover_by_symmetry,
    run_attack,
)
from retobf.harden import build_rotated_table, harden, position_distribution
from retobf.image import CorpusParams, FirmwareImage, generate_corpus, splice
from retobf.isa import Pop, Push, RegisterList, decode, encode
from retobf.machine import CALLER_STACK_BYTES, call, check_gadget, states_equivalent
from retobf.obfuscation import IntegrityError, build_table, obfuscate_returns, plan_rotation

from test_attack import symmetric_pair_fixture

KEY = 0xA5A5
R = RegisterList.of


def _pass(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


@pytest.fixture(scope="module")
def corpus42():
    return generate_corpus(CorpusParams(function_count=200, seed=42))


@pytest.fixture(scope="module")
def obf42(corpus42):
    image, manifest = corpus42
    return obfuscate_returns(image, manifest, KEY)


@pytest.fixture(scope="module")
def hardened420():
    image, manifest = generate_corpus(CorpusParams(function_count=420, seed=43))
    himg, hman, plans = harden(image, manifest, KEY, kmax=3, rotate=False,
                               encrypt_push=True, seed=17)
    return (image, manifest), (himg, hman, plans)


@pytest.fixture(scope="module")
def rotated60():
    image, manifest = generate_corpus(CorpusParams(function_count=60, seed=44))
    himg, hman, _ = harden(image, manifest, KEY, kmax=2, rotate=True, seed=5)
    return (image, manifest), (himg, hman)


def test_criterion_1_symmetric_pair_recovery():
    """Prologues push{r4,r6,r7,lr} / push{r7,lr} recovered exactly."""
    image, manifest = symmetric_pair_fixture()
    obf, man2, records = obfuscate_returns(image, manifest, KEY)
    by_fn = {rec.core: rec.fn for rec in records}
    want = {"four_regs": R("r4", "r6", "r7", "pc"), "one_reg": R("r7", "pc")}
    for site in find_trampolines(obf):
        pred = recover_by_symmetry(ImageView(obf), site)
        assert pred.ok and pred.kind == "pop"
        assert pred.reglist == want[by_fn[site.core]]
    _pass(1, "prologue symmetry recovers pop{r4,r6,r7,pc} and pop{r7,pc} exactly")


ROTATION_COLUMNS = [
    (3, ["pop {r4, r6, r7, pc}"], ["r4", "r6", "r7", "ret"]),
    (2, ["pop {r6, r7, lr}", "pop {r4}", "bx lr"], ["r6", "r7", "ret", "r4"]),
    (1, ["pop {r7, lr}", "pop {r4, r6}", "bx lr"], ["r7", "ret", "r4", "r6"]),
    (0, ["pop {lr}", "pop {r4, r6, r7}", "bx lr"], ["ret", "r4", "r6", "r7"]),
]


def test_criterion_2_rotation_columns():
    """All four rotation columns, syntactically and by executed slot."""
    for position, pops, layout in ROTATION_COLUMNS:
        plan = plan_rotation(R("r4", "r6", "r7"), position)
        assert [i.text() for i in plan.pop_sequence] == pops
        assert plan.layout == layout
        data = bytearray()
        base = 0x40000
        for insn in plan.pop_sequence:
            data += encode(insn, address=base + len(data))
        image = FirmwareImage(base, bytes(data))
        assert check_gadget(image, None, base, 4 * plan.stack_words, position)
    _pass(2, "rotation emits the four replacement columns; slot checks pass")


def test_criterion_3_plaintext_elimination(corpus42, obf42):
    image, manifest = corpus42
    non_leaf = sum(1 for fn in manifest.functions if not fn.is_leaf)
    before = [c for c in baseline_gadget_scan(image) if not c.instructions]
    assert len(before) >= non_leaf
    obf, _, _ = obf42
    after = baseline_gadget_scan(obf)
    assert after == []
    _pass(3, f"return terminators: {len(before)} before, 0 after obfuscation")


def test_criterion_4_locator_completeness(corpus42, obf42):
    obf, man2, records = obf42
    sites = find_trampolines(obf)
    assert {s.core for s in sites} == {rec.core for rec in records}
    assert len(sites) == len(records)
    # False positives are measured on the adversarial collision fixture.
    fake = (
        (0x4803).to_bytes(2, "little") + (0x3010).to_bytes(2, "little")
        + (0x4687).to_bytes(2, "little") + bytes(8)
        + (0x00240000).to_bytes(4, "little") + bytes(2)
    )
    spiked, man3 = splice(obf, man2, obf.end, fake)
    result = run_attack(spiked)
    report = evaluate_recovery(result, man3, spiked)
    assert report.site_recall == 1.0
    assert report.false_positives == 1
    _pass(4, "locator recall 1.0, FP 0 on corpus; collision fixture counted as FP")


def test_criterion_5_recovery_exactness(obf42):
    obf, man2, _ = obf42
    result = run_attack(obf)
    report = evaluate_recovery(result, man2, obf)
    for method in ("symmetry", "liveness", "combined"):
        assert report.methods[method].exact_rate == 1.0, method
        assert report.methods[method].failures == 0
    _pass(5, "symmetry, liveness, and combined exact-match rates all 1.0")


def test_criterion_6_semantic_preservation(corpus42, obf42, rotated60):
    image, manifest = corpus42
    obf, man2, _ = obf42
    table = build_table(obf, KEY)
    rng = random.Random(606)
    runs = 0
    for _ in range(50):
        idx = rng.randrange(len(manifest.functions))
        regs = {r: rng.randrange(1 << 32) for r in range(13)}
        a = call(image, entry=manifest.functions[idx].start, regs=regs)
        b = call(obf, table, entry=man2.functions[idx].start, regs=regs)
        assert states_equivalent(a.state, b.state)
        assert b.state.sp == b.state.stack_top - CALLER_STACK_BYTES
        runs += 1
    (plain60, man60), (himg, hman) = rotated60
    for seed in range(10):
        rot_table = build_rotated_table(himg, hman, KEY, seed=seed)
        for _ in range(5):
            idx = rng.randrange(len(man60.functions))
            regs = {r: rng.randrange(1 << 32) for r in range(13)}
            a = call(plain60, entry=man60.functions[idx].start, regs=regs)
            b = call(himg, rot_table, entry=hman.functions[idx].start, regs=regs)
            assert states_equivalent(a.state, b.state)
            assert b.state.sp == b.state.stack_top - CALLER_STACK_BYTES
            runs += 1
    assert runs == 100
    _pass(6, "100/100 randomized call comparisons equivalent, sp balanced")


def test_criterion_7_padding_effect(hardened420):
    (plain, plain_man), (himg, hman, plans) = hardened420
    result = run_attack(himg)
    report = evaluate_recovery(result, hman, himg)
    non_leaf = [fn for fn in hman.functions if not fn.is_leaf]
    k0_fraction = sum(1 for fn in non_leaf if fn.pad_registers.is_empty) / len(non_leaf)
    for method in ("liveness", "combined"):
        rate = report.methods[method].fn_exact_rate
        assert abs(rate - k0_fraction) <= 0.05, (method, rate, k0_fraction)
        assert report.methods[method].pad_predicted == 0
    assert abs(k0_fraction - 0.25) < 0.10  # kmax=3 uniform draw sanity
    _pass(7, f"attacker exact-match {report.methods['combined'].fn_exact_rate:.3f} "
             f"matches k=0 fraction {k0_fraction:.3f}; no pad register predicted")


def test_criterion_8_rotation_uniformity(rotated60):
    _, (himg, hman) = rotated60
    seeds = range(1000)
    hist = position_distribution([build_rotated_table(himg, hman, KEY, s) for s in seeds])
    n = 1000
    checked = 0
    for fn in hman.functions:
        if fn.is_leaf:
            continue
        slots = len(fn.true_pop.without_flags()) + 1
        counts = hist[fn.name]["counts"]
        assert sum(counts) == n
        p = 1.0 / slots
        sigma = math.sqrt(n * p * (1 - p))
        for count in counts:
            assert abs(count - n * p) <= 3 * sigma, (fn.name, counts)
            checked += 1
    assert checked > 0
    _pass(8, f"{checked} position cells uniform within 3 sigma over 1000 seeds")


def test_criterion_9_codec_soundness():
    count = 0
    for bits in range(1 << 9):
        mask = (bits & 0xFF) | ((bits >> 8) << isa.LR)
        if mask:
            insn = Push(RegisterList(mask))
            assert decode(encode(insn)) == (insn, 2)
            count += 1
        mask = (bits & 0xFF) | ((bits >> 8) << isa.PC)
        if mask:
            insn = Pop(RegisterList(mask))
            assert decode(encode(insn)) == (insn, 2)
            count += 1
    rng = random.Random(909)
    wide = 0
    while wide < 10_000:
        mask = rng.randrange(1, 1 << 13) | (1 << rng.randrange(8, 13))
        if rng.random() < 0.5:
            insn = Push(RegisterList(mask | (rng.randrange(2) << isa.LR)))
        else:
            extra = rng.choice([0, 1 << isa.LR, 1 << isa.PC])
            insn = Pop(RegisterList(mask | extra))
        data = encode(insn)
        assert len(data) == 4
        assert decode(data) == (insn, 4)
        wide += 1
    _pass(9, f"{count} narrow and {wide} wide push/pop encodings round-trip")


def test_criterion_10_wrong_key_detection(obf42):
    obf, _, _ = obf42
    rng = random.Random(1010)
    trials = 0
    errors = 0
    while trials < 120:
        key = rng.randrange(1, 0x10000)
        if key == KEY:
            continue
        trials += 1
        try:
            build_table(obf, key)
        except IntegrityError:
            errors += 1
    assert errors / trials >= 0.99
    _pass(10, f"wrong-key boot scans error in {errors}/{trials} trials")
