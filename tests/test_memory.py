"""Peak memory of the CLI stages on a 1000-function corpus.

Each stage runs in-process under ``tracemalloc``: its traced peak counts the
Python objects the stage allocates on top of what the process already holds.
It depends neither on the clock nor on the allocator's heap layout, so it
holds a memory bound where peak RSS is too noisy to.  The stages should grow
with edits and records, not with instruction count or artifact text: the
rewrite keeps one item per cut point, every JSON artifact is written record
by record, ``attack`` drops its gadget catalog once written, and ``eval``
parses the attack report first, without keeping its text.
"""

import contextlib
import io
import tracemalloc

import pytest

from retobf.cli import main

KEY = "a5a5"
MIB = 1 << 20

#: Traced peak bound per stage, in MiB.  With one item per instruction and
#: whole-text artifacts these stages peaked at 6.8, 6.9, 5.8 and 8.3 MiB
#: (Python 3.11); with cut-point items and streamed artifacts they read
#: about 3.1, 3.6, 3.9 and 5.0 MiB.  With typed site records that layout
#: never writes, ``harden`` reads about 3.6 MiB and ``init`` about 2.2 MiB.
BOUNDS = {"obfuscate": 4.5, "attack": 4.5, "eval": 4.5, "harden": 4.5, "init": 3.0}


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """Each stage's command line, over inputs made once, untraced."""
    d = tmp_path_factory.mktemp("memory")
    c, o, a = str(d / "c"), str(d / "o"), str(d / "a")
    assert _run("gen", "--out", c, "--seed", "1", "--functions", "1000") == 0
    assert _run("obfuscate", "--in", c, "--out", o, "--key", KEY) == 0
    assert _run("attack", "--in", o, "--out", a) == 0
    return {
        "obfuscate": ("obfuscate", "--in", c, "--out", str(d / "o2"), "--key", KEY),
        "attack": ("attack", "--in", o, "--out", str(d / "a2")),
        "eval": ("eval", "--plain", c, "--image", o, "--attack", a, "--out", str(d / "e"),
                 "--key", KEY),
        "harden": ("harden", "--in", c, "--out", str(d / "h"), "--key", KEY, "--rotate", "on"),
        "init": ("init", "--in", o, "--out", str(d / "t.json"), "--key", KEY),
    }


def _run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


@pytest.mark.parametrize("stage", list(BOUNDS))
def test_stage_peak_stays_within_its_bound(stages, stage):
    tracemalloc.start()
    try:
        assert _run(*stages[stage]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BOUNDS[stage] * MIB, f"{stage}: {peak / MIB:.2f} MiB"
