"""The image scans against their linear-search references, and a guard that
each scan's time grows linearly with the image."""

import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scans as ref
from retobf._rewrite import lift
from retobf.attack import (
    AttackError,
    ImageView,
    baseline_gadget_scan,
    run_attack,
)
from retobf.image import DEFAULT_BASE, CorpusParams, FirmwareImage, generate_corpus
from retobf.isa import Nop, Push, RegisterList, Unknown
from retobf.obfuscation import obfuscate_returns, sweep_plaintext, trampoline_data_ranges

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
    for want in ("returns", "pushes"):
        assert sweep_plaintext(data, exclude=exclude, want=want) == ref.sweep_plaintext(
            data, exclude, want
        )


def test_scans_match_references_on_corpora(corpus_image):
    image, manifest = corpus_image
    _check_sweeps(image.data, trampoline_data_ranges(image))
    _check_sweeps(image.data, ())
    _check_lookups(image)
    assert baseline_gadget_scan(image) == ref.baseline_gadget_scan(image)
    assert ref.program_items(lift(image, manifest)) == ref.program_items(ref.lift(image, manifest))


@given(crafted_images(), st.data())
@settings(max_examples=100, deadline=None)
def test_scans_match_references_on_crafted_images(image, data):
    size = len(image.data)
    bound = st.integers(-8, size + 8)
    exclude = data.draw(st.lists(st.tuples(bound, bound), max_size=8))
    _check_sweeps(image.data, exclude)
    _check_lookups(image)
    assert baseline_gadget_scan(image) == ref.baseline_gadget_scan(image)


def _check_decoded(image):
    view = ImageView(image)
    for idx, (lo, hi) in enumerate(view.segments):
        assert view.decoded(idx) == ref.segment_sweep(image, lo, hi), (lo, hi)


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


@given(st.one_of(crafted_images(), odd_tail_images()))
@settings(max_examples=200, deadline=None)
def test_decoded_segments_match_a_linear_sweep(image):
    _check_decoded(image)


def test_decoded_junk_rules():
    """The three junk rules, each on a hand-built segment tail."""
    push_w = (0xE92D).to_bytes(2, "little") + (0x4100).to_bytes(2, "little")
    nop = (0xBF00).to_bytes(2, "little")
    # An unrecognised wide prefix is two bytes of junk; the sweep goes on.
    view = ImageView(FirmwareImage(DEFAULT_BASE, (0xE800).to_bytes(2, "little") + nop))
    assert view.decoded(0) == [(DEFAULT_BASE, Unknown(0xE800)), (DEFAULT_BASE + 2, Nop())]
    # A wide prefix in the last halfword is Unknown(0) to the end.
    view = ImageView(FirmwareImage(DEFAULT_BASE, nop + push_w[:2]))
    assert view.decoded(0) == [(DEFAULT_BASE, Nop()), (DEFAULT_BASE + 2, Unknown(0))]
    # A push.w that runs into a site's core is Unknown(0) to the core.
    data = bytearray(nop * 4 + push_w + nop * 16)
    assert plant_signature(data, DEFAULT_BASE, 10, 0, 0)
    image = FirmwareImage(DEFAULT_BASE, bytes(data))
    view = ImageView(image)
    assert view.segments[0] == (DEFAULT_BASE, DEFAULT_BASE + 10)
    assert view.decoded(0)[-1] == (DEFAULT_BASE + 8, Unknown(0))
    _check_decoded(image)
    assert ImageView(FirmwareImage(DEFAULT_BASE, bytes(push_w))).decoded(0) == [
        (DEFAULT_BASE, Push(RegisterList.of("r8", "lr")))]


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


@pytest.fixture(scope="module")
def sized_images():
    out = {}
    for count in (SMALL, LARGE):
        image, manifest = generate_corpus(CorpusParams(function_count=count, seed=1))
        obf, _, _ = obfuscate_returns(image, manifest, KEY)
        out[count] = (image, manifest, obf)
    return out


STAGES = {
    "lift": lambda image, manifest, obf: lift(image, manifest),
    "baseline_plain": lambda image, manifest, obf: baseline_gadget_scan(image),
    "baseline_obfuscated": lambda image, manifest, obf: baseline_gadget_scan(obf),
    "run_attack": lambda image, manifest, obf: run_attack(obf),
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
