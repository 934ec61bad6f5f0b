"""The three workloads: their inputs, the CLI stages of one pass, and the
checks of the pass's outputs.

Each pass is a closed loop: one caller runs the stages in order, each
waiting for the previous one.  Stage times are wall-clock times of
``retobf.cli.main`` called in-process.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

from . import checks

KEY = "0xA5A5"
IMAGE_BASE = 0x00040000  # the CLI's default load address
TABLE_BASE = 0x00240000  # the default RAM table base, for plausible literals


def _capacity_fault(error):
    kind, text = error
    if kind == "exit" and re.fullmatch(r"error: table needs \d+ bytes, capacity \d+", text):
        return "TableCapacityError"
    return None


def _segment_fault(error):
    kind, text = error
    if kind == checks.FAULT_TYPE and checks.FAULT_TEXT in text:
        return kind
    return None


class ObfLarge:
    """Scan-heavy: a 1000-function plain corpus through obfuscate, init,
    attack and eval with CLI defaults."""

    name = "obf-large"
    functions = 1000
    equivalence_runs = 40  # CLI default
    gadget_samples = 25  # fixed in cmd_eval
    #: Corpus for the known-fault harden attempt; fixed so that the attempt
    #: fails the same way for every --seed.
    fault_corpus_seed = 42

    def setup(self, cli, d: Path, seed: int) -> None:
        cli(["gen", "--out", str(d / "in" / "corpus"), "--seed", str(seed),
             "--functions", str(self.functions)])
        cli(["gen", "--out", str(d / "in" / "fixed"), "--seed", str(self.fault_corpus_seed),
             "--functions", str(self.functions)])

    def run_pass(self, stages, d: Path) -> None:
        corpus, out = d / "in" / "corpus", d / "out"
        stages.run(["obfuscate", "--in", str(corpus), "--out", str(out / "obf"),
                    "--key", KEY], "obfuscate")
        stages.run(["init", "--in", str(out / "obf"), "--key", KEY,
                    "--out", str(out / "table.json")], "init")
        stages.run(["attack", "--in", str(out / "obf"), "--out", str(out / "atk")], "attack")
        stages.run(["eval", "--plain", str(corpus), "--image", str(out / "obf"),
                    "--attack", str(out / "atk"), "--out", str(out / "ev"), "--key", KEY],
                   "eval")
        # Known fault: rotation overflows the fixed 16 KiB table at this
        # size.  Untimed and untraced, outside the artifact directory.
        stages.run(["harden", "--in", str(d / "in" / "fixed"),
                    "--out", str(d / "attempt" / "hard"), "--key", KEY,
                    "--kmax", "3", "--rotate", "on"],
                   None, fault=_capacity_fault, traced=False)

    def check(self, d: Path, lib, errors) -> list[str]:
        return checks.check_obfuscated(
            d, equivalence_runs=self.equivalence_runs, gadget_samples=self.gadget_samples
        )

    def sizes(self, d: Path) -> dict:
        table = checks.read_json(d / "out" / "table.json")
        return {
            "image.overhead_bytes": (d / "out" / "obf.bin").stat().st_size
            - (d / "in" / "corpus.bin").stat().st_size,
            "obfuscation.table_bytes": _table_bytes(table),
        }

    def images(self, d: Path) -> list[bytes]:
        return [(d / "in" / "corpus.bin").read_bytes(), (d / "out" / "obf.bin").read_bytes()]


class HardenOracle:
    """Interpreter- and rotation-heavy: a 300-function corpus hardened with
    rotation, booted under several seeds, attacked, and evaluated with 50
    rotation seeds and 3000 equivalence runs."""

    name = "harden-oracle"
    functions = 300
    boot_seeds = (1, 2, 3, 4, 5)
    rotation_seeds = 50
    equivalence_runs = 3000
    pad_seed = 7

    def setup(self, cli, d: Path, seed: int) -> None:
        cli(["gen", "--out", str(d / "in" / "corpus"), "--seed", str(seed),
             "--functions", str(self.functions)])

    def run_pass(self, stages, d: Path) -> None:
        corpus, out = d / "in" / "corpus", d / "out"
        stages.run(["harden", "--in", str(corpus), "--out", str(out / "hard"), "--key", KEY,
                    "--kmax", "3", "--rotate", "on", "--seed", str(self.pad_seed)],
                   "harden")
        for seed in self.boot_seeds:
            stages.run(["init", "--in", str(out / "hard"), "--key", KEY, "--seed", str(seed),
                        "--out", str(out / f"boot{seed}.json")], "init")
        stages.run(["attack", "--in", str(out / "hard"), "--out", str(out / "hatk")], "attack")
        stages.run(["eval", "--plain", str(corpus), "--image", str(out / "hard"),
                    "--attack", str(out / "hatk"), "--out", str(out / "hev"), "--key", KEY,
                    "--rotation-seeds", str(self.rotation_seeds),
                    "--equivalence-runs", str(self.equivalence_runs)], "eval")

    def check(self, d: Path, lib, errors) -> list[str]:
        return checks.check_hardened(
            d, boot_seeds=self.boot_seeds, rotation_seeds=self.rotation_seeds,
            equivalence_runs=self.equivalence_runs, machine=lib.machine, image_mod=lib.image,
        )

    def sizes(self, d: Path) -> dict:
        tables = [checks.read_json(d / "out" / f"boot{s}.json") for s in self.boot_seeds]
        return {
            "image.overhead_bytes": (d / "out" / "hard.bin").stat().st_size
            - (d / "in" / "corpus.bin").stat().st_size,
            "obfuscation.table_bytes": max(_table_bytes(t) for t in tables),
        }

    def images(self, d: Path) -> list[bytes]:
        return [(d / "in" / "corpus.bin").read_bytes(), (d / "out" / "hard.bin").read_bytes()]


def _table_bytes(table: dict) -> int:
    return max((e["offset"] + len(e["data"]) // 2 for e in table["entries"]), default=0)


class AttackUntrusted:
    """Many small untrusted images: 4 KiB of random bytes with 1-11 planted
    trampoline signatures each, every image run through ``retobf attack``."""

    name = "attack-untrusted"
    images_count = 300
    image_bytes = 4096
    #: The layout (signature count, offsets, which images overlap) comes
    #: from this seed alone.  Images with overlapping signatures take their
    #: bytes from it too, so the set that hits the known fault is the same
    #: for every --seed; the other images take their bytes from --seed.
    layout_seed = 42
    overlap_share = 0.12
    spacing = 40  # bytes between non-overlapping signatures, > one core

    def __init__(self):
        self.plans = self._plan()

    def _plan(self) -> list[tuple[list[int], bool]]:
        rng = random.Random(self.layout_seed)
        plans = []
        for _ in range(self.images_count):
            count = rng.randint(1, 11)
            overlap = count >= 2 and rng.random() < self.overlap_share
            offsets: list[int] = []
            while len(offsets) < count - overlap:
                off = rng.randrange(0, self.image_bytes - self.spacing, 2)
                if all(abs(off - o) >= self.spacing for o in offsets):
                    offsets.append(off)
            if overlap:
                inner = rng.randrange(checks.SEALED_SLOT, checks.CORE_BYTES, 2)
                offsets.append(offsets[0] + inner)
            plans.append((offsets, overlap))
        return plans

    def faulty(self, index: int) -> bool:
        return self.plans[index][1]

    def report_prefix(self, d: Path, index: int) -> Path:
        # Fault images write outside out/, so that mending the fault adds
        # no artifact bytes.
        return d / ("attempt" if self.faulty(index) else "out") / f"atk{index:03d}"

    def build(self, index: int, seed: int) -> bytes:
        offsets, overlap = self.plans[index]
        rng = random.Random(f"{self.layout_seed if overlap else seed}:{index}")
        while True:
            data = bytearray(rng.randbytes(self.image_bytes))
            for off in offsets:
                data[off : off + 2] = checks.LDR_R0_PC12
                data[off + 2] = rng.randrange(256)
                data[off + 3] = checks.ADDS_R0_HIGH_BYTE
                data[off + 4 : off + 6] = checks.MOV_PC_R0
                lit = ((IMAGE_BASE + off + 4) & ~3) + 12 - IMAGE_BASE
                if rng.random() < 0.5:
                    value = TABLE_BASE + 256 * rng.randrange(64)
                else:
                    value = rng.getrandbits(32)
                data[lit : lit + 4] = value.to_bytes(4, "little")
            found = checks.find_signatures(bytes(data), IMAGE_BASE)
            # Random bytes almost never form a signature; redraw if they do,
            # so every image holds exactly its planned sites.
            if found == sorted(IMAGE_BASE + off for off in offsets):
                return bytes(data)

    def setup(self, cli, d: Path, seed: int) -> None:
        (d / "in").mkdir(parents=True, exist_ok=True)
        for i in range(self.images_count):
            (d / "in" / f"img{i:03d}.bin").write_bytes(self.build(i, seed))

    def run_pass(self, stages, d: Path) -> None:
        for i in range(self.images_count):
            # Fault images count as operations but enter no stage time, so
            # mending the fault shows as fewer failures, not a slower stage.
            stages.run(["attack", "--in", str(d / "in" / f"img{i:03d}"),
                        "--out", str(self.report_prefix(d, i))],
                       None if self.faulty(i) else "attack",
                       fault=_segment_fault, label=i)

    def check(self, d: Path, lib, errors) -> list[str]:
        problems = []
        for i in range(self.images_count):
            data = (d / "in" / f"img{i:03d}.bin").read_bytes()
            report = Path(f"{self.report_prefix(d, i)}.attack.json")
            for problem in checks.check_untrusted(data, IMAGE_BASE, report, errors.get(i)):
                problems.append(f"img{i:03d}: {problem}")
        return problems

    def sizes(self, d: Path) -> dict:
        return {"image.overhead_bytes": 0, "obfuscation.table_bytes": 0}

    def images(self, d: Path) -> list[bytes]:
        return [(d / "in" / f"img{i:03d}.bin").read_bytes() for i in range(self.images_count)]


WORKLOADS = {w.name: w for w in (ObfLarge, HardenOracle, AttackUntrusted)}
