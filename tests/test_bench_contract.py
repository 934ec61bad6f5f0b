"""The benchmark's output checks accept what the CLI writes today.

``perfbench/checks.py`` reads the artifacts of three pipelines (an
obfuscated corpus, a hardened and rotated one, and untrusted random images)
by field name.  These tests run small pipelines of the same shapes through
``retobf.cli.main``, into the directory layout the checks expect, and
require every check to find no problem, so a format change that drops a
field the checks read fails here and not first in a benchmark run.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from retobf import cli, image, machine
from retobf.image import DEFAULT_BASE, DEFAULT_TABLE_BASE

from conftest import plant_signature

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import checks  # noqa: E402

KEY = "0xA5A5"


def _run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0, argv


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 30-function plain corpus: enough epilogue sites for the 25 gadget
    samples ``check_obfuscated`` wants."""
    d = tmp_path_factory.mktemp("bench")
    _run("gen", "--out", d / "in" / "corpus", "--seed", 1, "--functions", 30)
    return d


def test_obfuscated_outputs_pass_the_benchmark_check(corpus):
    d, out = corpus, corpus / "out"
    _run("obfuscate", "--in", d / "in" / "corpus", "--out", out / "obf", "--key", KEY)
    _run("init", "--in", out / "obf", "--key", KEY, "--out", out / "table.json")
    _run("attack", "--in", out / "obf", "--out", out / "atk")
    _run("eval", "--plain", d / "in" / "corpus", "--image", out / "obf",
         "--attack", out / "atk", "--out", out / "ev", "--key", KEY)
    assert checks.check_obfuscated(d, equivalence_runs=40, gadget_samples=25) == []


def test_hardened_outputs_pass_the_benchmark_check(corpus):
    d, out = corpus, corpus / "out"
    boot_seeds, rotation_seeds, runs = (1, 2), 8, 60
    _run("harden", "--in", d / "in" / "corpus", "--out", out / "hard", "--key", KEY,
         "--kmax", 3, "--rotate", "on", "--seed", 7)
    for seed in boot_seeds:
        _run("init", "--in", out / "hard", "--key", KEY, "--seed", seed,
             "--out", out / f"boot{seed}.json")
    _run("attack", "--in", out / "hard", "--out", out / "hatk")
    _run("eval", "--plain", d / "in" / "corpus", "--image", out / "hard",
         "--attack", out / "hatk", "--out", out / "hev", "--key", KEY,
         "--rotation-seeds", rotation_seeds, "--equivalence-runs", runs)
    assert checks.check_hardened(d, boot_seeds=boot_seeds, rotation_seeds=rotation_seeds,
                                 equivalence_runs=runs, machine=machine,
                                 image_mod=image) == []


def _untrusted_image(rng: random.Random, count: int, overlap: bool) -> bytes:
    """4 KiB of random bytes with ``count`` planted signatures, the last one
    inside the first one's sealed bytes when ``overlap``."""
    data = bytearray(rng.randbytes(4096))
    offsets: list[int] = []
    while len(offsets) < count - overlap:
        off = rng.randrange(0, 4096 - 40, 2)
        if all(abs(off - o) >= 40 for o in offsets):
            offsets.append(off)
    if overlap:
        offsets.append(offsets[0] + rng.randrange(checks.SEALED_SLOT, checks.CORE_BYTES, 2))
    for off in offsets:
        literal = DEFAULT_TABLE_BASE + 256 * rng.randrange(64)
        assert plant_signature(data, DEFAULT_BASE, off, rng.randrange(256), literal)
    return bytes(data)


def test_untrusted_outputs_pass_the_benchmark_check(tmp_path):
    rng = random.Random(29)
    for index in range(12):
        overlap = index % 4 == 3
        data = _untrusted_image(rng, rng.randint(2 if overlap else 1, 8), overlap)
        (tmp_path / f"img{index}.bin").write_bytes(data)
        prefix, error = tmp_path / f"atk{index}", None
        try:
            _run("attack", "--in", tmp_path / f"img{index}", "--out", prefix)
        except Exception as exc:  # the benchmark counts what escapes the CLI
            error = (type(exc).__name__, str(exc))
        report = None if error else Path(f"{prefix}.attack.json")
        assert checks.check_untrusted(data, DEFAULT_BASE, report, error) == [], index
