"""The image scans against their linear-search references, and a guard that
each scan's time grows linearly with the image."""

import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scans as ref
from retobf._rewrite import lift
from retobf.attack import (
    _EFFECTS,
    _NO_PAIR,
    _OPENERS,
    CONF_EXTENDED,
    CONF_REGION,
    LIVENESS_WINDOW,
    METHODS,
    SYMMETRY_WINDOW,
    GADGET_WINDOW,
    AttackError,
    ImageView,
    _candidates_for,
    _effect,
    baseline_gadget_scan,
    combine_predictions,
    count_terminators,
    find_trampolines,
    run_attack,
)
from retobf.harden import encrypt_pushes
from retobf.image import DEFAULT_BASE, CorpusParams, FirmwareImage, generate_corpus
from retobf.isa import (
    AddReg,
    AddSpImm,
    Bl,
    BxLr,
    LdrSpRel,
    MovImm,
    MovReg,
    Nop,
    Pop,
    Push,
    RegisterList,
    StrSpRel,
    SubReg,
    SubSpImm,
    Unknown,
    decode,
    encode,
    is_return,
)
from retobf.obfuscation import (
    _RETURN_HIGH_BYTES,
    obfuscate_returns,
    sweep_plaintext,
    trampoline_data_ranges,
)

from conftest import KEY, crafted_images, plant_signature


@pytest.fixture(scope="module", params=["plain", "obfuscated", "hardened"])
def corpus_image(request, corpus, obfuscated, hardened):
    """(image, manifest) for each stage of the shared corpus."""
    return {"plain": corpus, "obfuscated": obfuscated, "hardened": hardened}[request.param][:2]


def _check_lookups(image):
    view = ImageView(image)
    for addr in range(image.base - 2, image.end + 2, 2):
        assert view.segment_at(addr) == ref.segment_at(view, addr)
        want = ref.segment_before(view, addr)
        if want is None:
            with pytest.raises(AttackError, match="no code segment ends"):
                view.segment_before(addr)
        else:
            assert view.segment_before(addr) == want


def _check_sweeps(data, exclude):
    assert sweep_plaintext(data, exclude=exclude) == ref.decoded_returns(data, exclude)


def _check_baseline(image):
    """The baseline catalog equals the reference's, and the terminator count
    is its number of zero-instruction candidates."""
    want = ref.baseline_gadget_scan(image)
    assert baseline_gadget_scan(image) == want
    assert count_terminators(image) == sum(not c.instructions for c in want)


def test_terminators_skip_sweep_hits_that_are_not_returns():
    """The raw ``pop.w {r4, pc}`` pattern is a hit of the loose raw sweep,
    but it needs no wide form, so it decodes as junk and ends no gadget; the
    narrow pop and ``bx lr`` after it do."""
    words = (0xE8BD, 0x8010, 0xBD10, 0x4770)
    image = FirmwareImage(DEFAULT_BASE, b"".join(w.to_bytes(2, "little") for w in words))
    assert ref.sweep_plaintext(image.data) == [0, 4, 6]
    assert sweep_plaintext(image.data) == [4, 6]
    assert count_terminators(image) == 2
    _check_baseline(image)


def test_sweep_matches_reference_on_every_halfword():
    """Each of the 65536 halfwords once (so every high byte a hit can have),
    unmasked, then with some pops masked and the halfword after each wide
    prefix masked; then the ``pop.w`` prefix before each of the 65536 second
    halfwords, unmasked and with a run of second halfwords masked."""
    data = b"".join(hw.to_bytes(2, "little") for hw in range(0x10000))
    _check_sweeps(data, ())
    _check_sweeps(data, [(2 * 0xBD10, 2 * 0xBD20), (2 * 0xE8BD + 2, 2 * 0xE8BD + 4),
                         (2 * 0xE92D + 2, 2 * 0xE92D + 4)])
    prefix = ref.WIDE_POP.to_bytes(2, "little")
    pairs = b"".join(prefix + hw2.to_bytes(2, "little") for hw2 in range(0x10000))
    _check_sweeps(pairs, ())
    _check_sweeps(pairs, [(4 * 0x8100 + 2, 4 * 0x8200)])


def test_return_high_bytes_are_every_return_opener():
    """The sweep decodes only halfwords whose high byte is in
    ``_RETURN_HIGH_BYTES``: exactly the high bytes of the first halfwords
    that ``decode`` reads as a return, over all 65536 of them (a wide one
    followed by a second halfword of each high byte)."""
    seconds = [bytes((0x10, high)) for high in range(0x100)]
    openers = set()
    for hw in range(0x10000):
        first = hw.to_bytes(2, "little")
        tails = seconds if hw >> 8 >= 0xE8 else [b""]
        if any(is_return(decode(first + tail)[0]) for tail in tails):
            openers.add(hw >> 8)
    assert openers == set(_RETURN_HIGH_BYTES)


def test_scans_match_references_on_corpora(corpus_image):
    image, manifest = corpus_image
    _check_sweeps(image.data, trampoline_data_ranges(image))
    _check_sweeps(image.data, ())
    _check_lookups(image)
    _check_baseline(image)
    assert ref.program_items(lift(image, manifest)) == ref.program_items(ref.lift(image, manifest))


@given(crafted_images(), st.data())
@settings(max_examples=100, deadline=None)
def test_scans_match_references_on_crafted_images(image, data):
    size = len(image.data)
    bound = st.integers(-8, size + 8)
    exclude = data.draw(st.lists(st.tuples(bound, bound), max_size=8))
    _check_sweeps(image.data, exclude)
    _check_lookups(image)
    _check_baseline(image)


def _decoded(view, idx):
    """[(address, instruction)] of segment ``idx``, read off its summary."""
    hi = view.segments[idx][1]
    return [(a, view.decode_at(a, hi)[0]) for a in view.summary(idx).starts]


def _check_decoded(image):
    view = ImageView(image)
    for idx, (lo, hi) in enumerate(view.segments):
        assert _decoded(view, idx) == ref.segment_sweep(image, lo, hi), (lo, hi)


#: Wide first halfwords: push.w, pop.w, bl/b.w and two unrecognised ones.
WIDE = st.sampled_from([0xE92D, 0xE8BD, 0xF000, 0xF7FF, 0xE800, 0xFFFF])


@st.composite
def odd_tail_images(draw):
    """Random halfwords, many of them wide prefixes.  Each planted signature
    follows a wide prefix, so that instruction runs into the site's core,
    and the image's last halfword may be a wide prefix with nothing after."""
    base = draw(st.sampled_from([DEFAULT_BASE, 0x08000000]))
    words = draw(st.lists(st.one_of(st.integers(0, 0xFFFF), WIDE), min_size=16, max_size=96))
    data = bytearray(b"".join(w.to_bytes(2, "little") for w in words))
    for _ in range(draw(st.integers(0, 3))):
        off = 2 * draw(st.integers(1, len(words) - 1))
        if plant_signature(data, base, off, draw(st.integers(0, 255)),
                           draw(st.integers(0, 0xFFFFFFFF))):
            data[off - 2 : off] = draw(WIDE).to_bytes(2, "little")
    if draw(st.booleans()):
        data[-2:] = draw(WIDE).to_bytes(2, "little")
    return FirmwareImage(base, bytes(data))


def _check_summaries(image):
    view = ImageView(image)
    for idx, (lo, hi) in enumerate(view.segments):
        assert view.summary(idx) == ref.segment_summary(image, lo, hi), (lo, hi)


@given(st.one_of(crafted_images(), odd_tail_images()))
@settings(max_examples=200, deadline=None)
def test_decoded_segments_match_a_linear_sweep(image):
    _check_decoded(image)
    _check_summaries(image)


#: The three 4-byte openers, one of them any 0xF0-0xF7 halfword, each with
#: the second high bytes ``decode`` takes with it (pinned for every second
#: halfword by ``test_opener_classes_are_exact``).
OPENER_SECONDS = {
    opener: [high for high in range(256)
             if decode(opener.to_bytes(2, "little") + bytes((0, high)))[1] == 4]
    for opener in (0xE92D, 0xE8BD, 0xF4C3)
}


@st.composite
def pairs_of(draw, opener):
    first = draw(st.integers(0xF000, 0xF7FF)) if opener == 0xF4C3 else opener
    return [first, draw(st.sampled_from(OPENER_SECONDS[opener])) << 8 | draw(st.integers(0, 255))]


#: A valid pair, a chain of bl/b.w prefixes (each pairs with the next), or
#: any halfword.
PIECES = st.one_of(
    st.sampled_from(list(OPENER_SECONDS)).flatmap(pairs_of),
    st.lists(st.integers(0xF000, 0xF7FF), min_size=2, max_size=7),
    st.integers(0, 0xFFFF).map(lambda hw: [hw]),
)


@st.composite
def paired_images(draw):
    """Halfwords packed with valid 4-byte pairs and prefix chains.  Some
    planted signatures start on a pair's second halfword, cutting it at the
    site's core, and the image may end on an opener."""
    base = draw(st.sampled_from([DEFAULT_BASE, 0x08000000]))
    words, openers = [], []
    for piece in draw(st.lists(PIECES, min_size=4, max_size=40)):
        if len(piece) > 1:
            openers.append(len(words))
        words += piece
    words += [0xBF00] * 12  # room for a literal after a late signature
    data = bytearray(b"".join(w.to_bytes(2, "little") for w in words))
    for _ in range(draw(st.integers(0, 3))):
        cut = openers and draw(st.booleans())
        off = 2 * (draw(st.sampled_from(openers)) + 1 if cut else
                   draw(st.integers(0, len(words) - 1)))
        plant_signature(data, base, off, draw(st.integers(0, 255)), draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        data += draw(st.sampled_from([0xE92D, 0xE8BD, 0xF000])).to_bytes(2, "little")
    return FirmwareImage(base, bytes(data))


@given(paired_images())
@settings(max_examples=200, deadline=None)
def test_summaries_of_packed_pairs_match_the_reference(image):
    _check_summaries(image)
    _check_decoded(image)


@pytest.mark.parametrize("first", [0xE92D, 0xE8BD, 0xF4C3], ids=hex)
def test_opener_classes_are_exact(first):
    """Every second halfword decodes with ``first`` as one 4-byte
    instruction exactly when its high byte is in the class the attack
    derived, and where the class gives the pair's effect code, it is that
    of the decoded instruction."""
    [(_, _, codes)] = [o for o in _OPENERS if first & o[0] == o[1]]
    prefix = first.to_bytes(2, "little")
    for second in range(0x10000):
        insn, length = decode(prefix + second.to_bytes(2, "little"), 0, DEFAULT_BASE)
        code = codes[second >> 8]
        assert (length == 4) == (code != _NO_PAIR), hex(second)
        assert code < 0 or code == _effect(insn), hex(second)
    assert sorted(h for h in range(256) if codes[h] != _NO_PAIR) == OPENER_SECONDS[first]


def test_decoded_junk_rules():
    """The three junk rules, each on a hand-built segment tail."""
    push_w = (0xE92D).to_bytes(2, "little") + (0x4100).to_bytes(2, "little")
    nop = (0xBF00).to_bytes(2, "little")
    # An unrecognised wide prefix is two bytes of junk; the sweep goes on.
    view = ImageView(FirmwareImage(DEFAULT_BASE, (0xE800).to_bytes(2, "little") + nop))
    assert _decoded(view, 0) == [(DEFAULT_BASE, Unknown(0xE800)), (DEFAULT_BASE + 2, Nop())]
    # A wide prefix in the last halfword is Unknown(0) to the end.
    view = ImageView(FirmwareImage(DEFAULT_BASE, nop + push_w[:2]))
    assert _decoded(view, 0) == [(DEFAULT_BASE, Nop()), (DEFAULT_BASE + 2, Unknown(0))]
    # A push.w that runs into a site's core is Unknown(0) to the core.
    data = bytearray(nop * 4 + push_w + nop * 16)
    assert plant_signature(data, DEFAULT_BASE, 10, 0, 0)
    image = FirmwareImage(DEFAULT_BASE, bytes(data))
    view = ImageView(image)
    assert view.segments[0] == (DEFAULT_BASE, DEFAULT_BASE + 10)
    assert _decoded(view, 0)[-1] == (DEFAULT_BASE + 8, Unknown(0))
    _check_decoded(image)
    assert _decoded(ImageView(FirmwareImage(DEFAULT_BASE, bytes(push_w))), 0) == [
        (DEFAULT_BASE, Push(RegisterList.of("r8", "lr")))]


#: Window instructions: every admissible kind, each kind of pop (with pc,
#: with lr, with neither), and inadmissible ones.
WINDOW_INSNS = st.one_of(
    st.builds(MovImm, st.integers(0, 7), st.integers(0, 255)),
    st.builds(MovReg, st.integers(0, 12), st.integers(0, 12)),
    st.builds(AddReg, st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
    st.builds(SubReg, st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
    st.builds(LdrSpRel, st.integers(0, 7), st.integers(0, 255).map(lambda n: 4 * n)),
    st.builds(AddSpImm, st.integers(0, 127).map(lambda n: 4 * n)),
    st.just(Nop()),
    st.builds(Bl, st.integers(0, 0xFFFF).map(lambda n: DEFAULT_BASE + 2 * n)),
    st.builds(lambda regs, extra: Pop(RegisterList(regs | extra)),
              st.integers(0, 0x1FFF), st.sampled_from([0, 1 << 14, 1 << 15])),
    st.builds(lambda regs, lr: Push(RegisterList(regs | lr << 14)),
              st.integers(1, 0x1FFF), st.booleans()),
    st.builds(StrSpRel, st.integers(0, 7), st.integers(0, 255).map(lambda n: 4 * n)),
    st.builds(SubSpImm, st.integers(0, 127).map(lambda n: 4 * n)),
    st.just(BxLr()),
    st.builds(Unknown, st.integers(0, 0xFFFF)),
)


@given(st.lists(WINDOW_INSNS, max_size=GADGET_WINDOW + 4),
       st.one_of(st.builds(lambda regs: ("pop", RegisterList(regs | 1 << 15)),
                           st.integers(0, 0x1FFF)),
                 st.just(("bx_lr", None))))
@settings(max_examples=400, deadline=None)
def test_window_builder_matches_the_reference(insns, terminator):
    site = DEFAULT_BASE + 4 * len(insns)
    window = [(DEFAULT_BASE + 4 * i, insn) for i, insn in enumerate(insns)]
    assert _candidates_for(window, terminator, site) == ref.candidates_for(
        window, terminator, site)


@pytest.mark.parametrize("kind", ["pop", "bx_lr"])
@pytest.mark.parametrize("bad", range(GADGET_WINDOW + 2))
def test_window_builder_stops_at_an_inadmissible_instruction(bad, kind):
    """An inadmissible instruction ``bad`` places before the return cuts
    the candidates there, in the window or just outside it."""
    insns = [MovImm(0, 1)] * (GADGET_WINDOW + 2)
    insns[len(insns) - 1 - bad] = Push(RegisterList.of("r4", "lr"))
    window = [(DEFAULT_BASE + 2 * i, insn) for i, insn in enumerate(insns)]
    terminator = (kind, RegisterList.of("r4", "pc") if kind == "pop" else None)
    got = _candidates_for(window, terminator, DEFAULT_BASE + 2 * len(insns))
    assert got == ref.candidates_for(window, terminator, DEFAULT_BASE + 2 * len(insns))
    assert len(got) == min(bad, GADGET_WINDOW) + 1


# ---------------------------------------------------------------------------
# The attack over segment summaries against the object-walking references.


def _check_attack(image):
    """run_attack's verdicts and catalog equal the reference forms'."""
    result = run_attack(image)
    view = ImageView(image)
    sym = [ref.recover_by_symmetry(view, s) for s in view.sites]
    live = [ref.recover_by_liveness(view, s) for s in view.sites]
    combined = [combine_predictions(a, b) for a, b in zip(sym, live)]
    for method, want in zip(METHODS, (sym, live, combined)):
        got = [p.to_json() for p in result.predictions[method]]
        assert got == [p.to_json() for p in want], method
    assert result.catalog == ref.build_gadget_catalog(view, combined)
    return result


@given(crafted_images())
@settings(max_examples=150, deadline=None)
def test_attack_matches_references_on_crafted_images(image):
    _check_attack(image)


@pytest.mark.parametrize("stage", ["plain", "obfuscated", "hardened", "push-sealed",
                                   "multi-epilogue"])
def test_attack_matches_references_on_corpora(stage, corpus, obfuscated, hardened,
                                              multi_epilogue_corpus):
    image = {
        "plain": lambda: corpus[0],
        "obfuscated": lambda: obfuscated[0],
        "hardened": lambda: hardened[0],
        "push-sealed": lambda: encrypt_pushes(*obfuscated[:2], KEY)[0],
        "multi-epilogue": lambda: obfuscate_returns(*multi_epilogue_corpus, KEY)[0],
    }[stage]()
    result = _check_attack(image)
    assert (len(result.sites) == 0) == (stage == "plain")


R = RegisterList.of


def _code(*insns):
    return b"".join(encode(insn) for insn in insns)


def test_adjacent_sites_leave_an_empty_segment():
    """The second site's symmetry crosses the empty segment between the two
    regions; its liveness finds no body in it."""
    data = bytearray(_code(Push(R("r4", "lr")), MovImm(4, 1)) + bytes(60))
    assert plant_signature(data, DEFAULT_BASE, 4, 0, 0)
    first = find_trampolines(FirmwareImage(DEFAULT_BASE, bytes(data)))[0]
    assert plant_signature(data, DEFAULT_BASE, first.resume - DEFAULT_BASE, 0, 0)
    image = FirmwareImage(DEFAULT_BASE, bytes(data))
    assert ImageView(image).segments[1] == (first.resume, first.resume)
    result = _check_attack(image)
    second = result.sites[1].core
    sym = result.predictions_at("symmetry")[second]
    assert sym.reglist == R("r4", "pc")
    assert sym.confidence == pytest.approx(
        1 - 0.5 * (second - DEFAULT_BASE) / SYMMETRY_WINDOW - 0.1)
    live = result.predictions_at("liveness")[second]
    assert not live.ok and live.reason == "no function body precedes site"


def test_site_at_the_image_base():
    data = bytearray(64)
    assert plant_signature(data, DEFAULT_BASE, 0, 0, 0)
    image = FirmwareImage(DEFAULT_BASE, bytes(data))
    assert ImageView(image).segments[0] == (DEFAULT_BASE, DEFAULT_BASE)
    result = _check_attack(image)
    reasons = [result.predictions[m][0].reason for m in ("symmetry", "liveness")]
    assert reasons == ["no push-with-lr within window", "no function body precedes site"]


def test_wide_instruction_straddling_a_site_core():
    """A push.w prefix just before a core would read the signature's first
    halfword as its register list; clipped at the core, it is junk."""
    data = bytearray(_code(MovImm(4, 1), MovImm(5, 2)) + (0xE92D).to_bytes(2, "little")
                     + bytes(40))
    assert plant_signature(data, DEFAULT_BASE, 6, 0, 0)
    image = FirmwareImage(DEFAULT_BASE, bytes(data))
    assert decode(image.data, 4, DEFAULT_BASE + 4)[0] == Push(R("r0", "r1", "r11", "lr"))
    view = ImageView(image)
    assert view.decode_at(DEFAULT_BASE + 4, DEFAULT_BASE + 6) == (Unknown(0), 2)
    assert view.summary(0).starts == [DEFAULT_BASE, DEFAULT_BASE + 2, DEFAULT_BASE + 4]
    result = _check_attack(image)
    assert not result.predictions["symmetry"][0].ok
    live = result.predictions["liveness"][0]
    assert (live.reglist, live.confidence) == (R("r4", "r5", "pc"), CONF_REGION)


@pytest.mark.parametrize("crossing", [False, True], ids=["same-segment", "crossing"])
@pytest.mark.parametrize("back", [SYMMETRY_WINDOW, SYMMETRY_WINDOW + 2])
def test_symmetry_window_edge(back, crossing):
    """A push-with-lr exactly SYMMETRY_WINDOW bytes back counts; 2 bytes
    further it does not, in the site's own segment or across a region."""
    core = 4 + back
    data = bytearray(_code(MovImm(0, 1)) * ((core + 40) // 2))
    data[4:6] = encode(Push(R("r4", "lr")))
    if crossing:
        assert plant_signature(data, DEFAULT_BASE, 200, 0, 0)
    assert plant_signature(data, DEFAULT_BASE, core, 0, 0)
    result = _check_attack(FirmwareImage(DEFAULT_BASE, bytes(data)))
    pred = result.predictions_at("symmetry")[DEFAULT_BASE + core]
    if back > SYMMETRY_WINDOW:
        assert not pred.ok
    else:
        assert pred.reglist == R("r4", "pc")
        assert pred.confidence == pytest.approx(0.5 - 0.1 * crossing)


@pytest.mark.parametrize("back", [LIVENESS_WINDOW, LIVENESS_WINDOW + 2])
def test_liveness_walk_window_edge(back):
    """The walk enters a crossed segment that starts exactly LIVENESS_WINDOW
    before the site, and stops at one that starts 2 bytes further."""
    data = bytearray(_code(MovImm(6, 1)) * ((back + 40) // 2))
    data[0:2] = encode(Push(R("r6", "lr")))
    assert plant_signature(data, DEFAULT_BASE, 1000, 0, 0)
    resume = find_trampolines(FirmwareImage(DEFAULT_BASE, bytes(data)))[0].resume - DEFAULT_BASE
    data[resume:back] = _code(MovImm(4, 1)) * ((back - resume) // 2)
    assert plant_signature(data, DEFAULT_BASE, back, 0, 0)
    result = _check_attack(FirmwareImage(DEFAULT_BASE, bytes(data)))
    pred = result.predictions_at("liveness")[DEFAULT_BASE + back]
    if back > LIVENESS_WINDOW:
        assert (pred.reglist, pred.confidence) == (R("r4", "pc"), CONF_REGION)
    else:
        assert (pred.reglist, pred.confidence) == (R("r4", "r6", "pc"), CONF_EXTENDED)


def test_summary_of_a_trailing_wide_prefix():
    image = FirmwareImage(DEFAULT_BASE, _code(MovImm(4, 1)) + (0xE92D).to_bytes(2, "little"))
    summary = ImageView(image).summary(0)
    assert summary == ref.segment_summary(image, image.base, image.end)
    assert (summary.pushes, summary.written, summary.starts) == (
        [], R("r4").mask, [DEFAULT_BASE, DEFAULT_BASE + 2])


def test_effect_table_covers_every_halfword():
    """One sweep of an image holding every halfword fills the narrow entries
    from the decoder; every entry from 0xE800 up, a lone wide prefix, is 0."""
    image = FirmwareImage(DEFAULT_BASE, b"".join(hw.to_bytes(2, "little") for hw in range(0x10000)))
    ImageView(image).summary(0)
    assert len(_EFFECTS) == 0x10000
    for hw in range(0xE800):
        assert _EFFECTS[hw] == _effect(decode(hw.to_bytes(2, "little"))[0]), hex(hw)
    assert not any(_EFFECTS[0xE800:])


@given(st.integers(0, 12), st.integers(0, 2**16), st.booleans(), st.data())
@settings(max_examples=30, deadline=None)
def test_lift_matches_reference_and_lays_out_the_image(count, seed, obfuscate, data):
    image, manifest = generate_corpus(CorpusParams(function_count=count, seed=seed))
    if obfuscate:
        image, manifest, _ = obfuscate_returns(image, manifest, KEY)
    prog = lift(image, manifest)
    assert ref.program_items(prog) == ref.program_items(ref.lift(image, manifest))
    assert prog.layout().data == image.data
    # Functions left out of the manifest lift as blobs between the kept ones.
    keep = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    partial = replace(manifest, functions=[f for f, k in zip(manifest.functions, keep) if k])
    assert ref.program_items(lift(image, partial)) == ref.program_items(ref.lift(image, partial))


# ---------------------------------------------------------------------------
# Scaling: 10x the functions must cost well under 100x the time.

SMALL, LARGE = 200, 2000
MAX_GROWTH = 30


def _junk_image(size, seed):
    """Random bytes of ``size`` with a signature planted about every 400."""
    rng = random.Random(seed)
    data = bytearray(rng.randbytes(size))
    for off in range(0, size - 400, 400):
        plant_signature(data, DEFAULT_BASE, off + 2 * rng.randrange(100), rng.randrange(256),
                        rng.getrandbits(32))
    return FirmwareImage(DEFAULT_BASE, bytes(data))


@pytest.fixture(scope="module")
def sized_images():
    """(plain image, manifest, obfuscated image, junk of the obfuscated size)."""
    out = {}
    for count in (SMALL, LARGE):
        image, manifest = generate_corpus(CorpusParams(function_count=count, seed=1))
        obf, _, _ = obfuscate_returns(image, manifest, KEY)
        out[count] = (image, manifest, obf, _junk_image(len(obf.data), count))
    return out


STAGES = {
    "lift": lambda image, manifest, obf, junk: lift(image, manifest),
    "baseline_plain": lambda image, manifest, obf, junk: baseline_gadget_scan(image),
    "baseline_obfuscated": lambda image, manifest, obf, junk: baseline_gadget_scan(obf),
    "run_attack": lambda image, manifest, obf, junk: run_attack(obf),
    "run_attack_junk": lambda image, manifest, obf, junk: run_attack(junk),
}


def _best_cpu_time(stage, args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        stage(*args)
        best = min(best, time.process_time() - start)
    return best


@pytest.mark.parametrize("name", STAGES)
def test_scan_time_grows_linearly(name, sized_images):
    small = _best_cpu_time(STAGES[name], sized_images[SMALL])
    large = _best_cpu_time(STAGES[name], sized_images[LARGE])
    assert large < MAX_GROWTH * small, f"{name}: {small:.4f} s -> {large:.4f} s"
