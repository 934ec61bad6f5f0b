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
from retobf.image import CorpusParams, generate_corpus
from retobf.obfuscation import obfuscate_returns, sweep_plaintext, trampoline_data_ranges

from conftest import KEY, crafted_images


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
