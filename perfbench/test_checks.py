"""Tests of the benchmark's own checks: each accepts the outputs the CLI
really writes and rejects a deliberately spoiled copy.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import checks
from perfbench.run import Stages, load_library, quiet_cli
from perfbench.workloads import IMAGE_BASE, AttackUntrusted, HardenOracle, ObfLarge

LIB = load_library()
KEY = 0xA5A5


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


@pytest.fixture(scope="module")
def obf_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("obf")
    workload = ObfLarge()
    workload.functions = 30
    workload.setup(quiet_cli(LIB.cli.main), d, 3)
    stages = Stages(LIB.cli.main)
    workload.run_pass(stages, d)
    assert not stages.unexpected
    return d


@pytest.fixture
def obf(obf_dir, tmp_path):
    """A private copy of the obf pipeline outputs, safe to spoil."""
    import shutil

    d = tmp_path / "w"
    shutil.copytree(obf_dir, d)
    return d


def _check_obf(d: Path) -> list[str]:
    return ObfLarge().check(d, LIB, {})


def test_obf_outputs_pass(obf):
    assert _check_obf(obf) == []


def test_table_with_wrong_key_rejected(obf):
    wrong = 0x5A5A

    def rekey(table):
        for entry in table["entries"]:
            data = bytes.fromhex(entry["data"])
            out = bytearray()
            for i in range(0, len(data), 2):
                hw = int.from_bytes(data[i : i + 2], "little") ^ KEY ^ wrong
                out += hw.to_bytes(2, "little")
            entry["data"] = out.hex()

    _edit_json(obf / "out" / "table.json", rekey)
    assert any(p.startswith("table +") for p in _check_obf(obf))


def test_dropped_site_rejected(obf):
    _edit_json(obf / "out" / "atk.attack.json", lambda a: a["sites"].pop(3))
    assert any(p.startswith("attack located") for p in _check_obf(obf))


def test_plaintext_return_left_rejected(obf):
    path = obf / "out" / "obf.bin"
    data = bytearray(path.read_bytes())
    data[0:2] = b"\x70\x47"  # bx lr in the boot-scan stub
    path.write_bytes(bytes(data))
    assert any("raw return" in p for p in _check_obf(obf))


def test_wrong_register_list_rejected(obf):
    def spoil(attack):
        for pred in attack["predictions"]["liveness"]:
            if pred["kind"] == "pop":
                pred["reglist"] = ["r4", "r5", "r6", "r7", "r8", "pc"]
                return

    _edit_json(obf / "out" / "atk.attack.json", spoil)
    assert any(p.startswith("liveness:") for p in _check_obf(obf))


def test_failed_equivalence_run_rejected(obf):
    _edit_json(obf / "out" / "ev.eval.json",
               lambda ev: ev["equivalence"].update(passed=ev["equivalence"]["runs"] - 1))
    assert any(p.startswith("equivalence") for p in _check_obf(obf))


@pytest.fixture(scope="module")
def hard_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hard")
    workload = HardenOracle()
    workload.functions = 24
    workload.equivalence_runs = 200
    workload.setup(quiet_cli(LIB.cli.main), d, 3)
    stages = Stages(LIB.cli.main)
    workload.run_pass(stages, d)
    assert not stages.unexpected
    return d


@pytest.fixture
def hard(hard_dir, tmp_path):
    import shutil

    d = tmp_path / "w"
    shutil.copytree(hard_dir, d)
    return d


def _check_hard(d: Path) -> list[str]:
    workload = HardenOracle()
    workload.equivalence_runs = 200
    return workload.check(d, LIB, {})


def test_hardened_outputs_pass(hard):
    assert _check_hard(hard) == []


def test_callee_saved_register_changed_rejected(hard):
    """Swap one register of a rotated pop in boot table 1: the hardened
    call then returns with a callee-saved register changed."""

    def spoil(table):
        for entry in table["entries"]:
            data = bytearray(bytes.fromhex(entry["data"]))
            if data[1] == 0xBD or (data[0], data[1]) == (0xBD, 0xE8):
                pos = 0 if data[1] == 0xBD else 2  # byte holding r0-r7 bits
                low = data[pos]
                have = [r for r in range(4, 8) if low >> r & 1]
                free = [r for r in range(4, 8) if not low >> r & 1]
                if have and free:
                    data[pos] = low & ~(1 << have[0]) | 1 << free[0]
                    entry["data"] = data.hex()
                    return
        raise AssertionError("no pop entry to spoil")

    _edit_json(hard / "out" / "boot1.json", spoil)
    problems = _check_hard(hard)
    assert problems and all(p.startswith("boot 1:") for p in problems)


def test_histogram_spoiled_rejected(hard):
    def spoil(ev):
        for cell in ev["position_histogram"].values():
            if cell["slots"]:
                cell["counts"][0] += 1
                return

    _edit_json(hard / "out" / "hev.eval.json", spoil)
    assert any(p.startswith("histogram:") for p in _check_hard(hard))


def test_padding_register_predicted_rejected(hard):
    manifest = checks.functions(json.loads((hard / "out" / "hard.json").read_text()))
    padded = next(fn for fn in manifest if fn["pads"])

    def spoil(attack):
        for pred in attack["predictions"]["combined"]:
            if padded["start"] <= int(pred["site"], 16) < padded["end"]:
                pred["reglist"] = sorted(padded["pads"]) + ["pc"]
                return
        raise AssertionError("no site in the padded function")

    _edit_json(hard / "out" / "hatk.attack.json", spoil)
    assert any("padding register" in p for p in _check_hard(hard))


def test_untrusted_images_hold_exactly_their_planned_sites():
    workload = AttackUntrusted()
    for index in range(0, workload.images_count, 7):
        offsets, overlap = workload.plans[index]
        data = workload.build(index, seed=5)
        found = checks.find_signatures(data, IMAGE_BASE)
        assert found == sorted(IMAGE_BASE + off for off in offsets)
        assert checks.overlapping(found) == overlap


def test_fault_images_do_not_depend_on_seed():
    workload = AttackUntrusted()
    faulty = [i for i in range(workload.images_count) if workload.faulty(i)]
    assert faulty
    for index in faulty[:5]:
        assert workload.build(index, seed=1) == workload.build(index, seed=2)


def test_untrusted_check_rejects_other_failures(tmp_path):
    workload = AttackUntrusted()
    clean = next(i for i in range(workload.images_count) if not workload.faulty(i))
    faulty = next(i for i in range(workload.images_count) if workload.faulty(i))
    fault = (checks.FAULT_TYPE, "no code segment ends at 0x40010")
    data = workload.build(clean, seed=1)
    assert checks.check_untrusted(data, IMAGE_BASE, None, ("ValueError", "x"))
    assert checks.check_untrusted(data, IMAGE_BASE, None, fault)
    assert checks.check_untrusted(workload.build(faulty, 1), IMAGE_BASE, None, fault) == []

    attack = tmp_path / "a.attack.json"
    sites = checks.find_signatures(data, IMAGE_BASE)
    attack.write_text(json.dumps({"sites": [{"address": hex(a)} for a in sites]}))
    assert checks.check_untrusted(data, IMAGE_BASE, attack, None) == []
    attack.write_text(json.dumps({"sites": [{"address": hex(a)} for a in sites[1:]]}))
    assert checks.check_untrusted(data, IMAGE_BASE, attack, None)


def test_stages_count_known_and_unexpected_faults():
    def fake_main(argv):
        if argv[0] == "boom":
            raise LIB.attack.AttackError("no code segment ends at 0x1")
        if argv[0] == "odd":
            raise KeyError("x")
        return 0

    def known(error):
        return error[0] if error[0] == checks.FAULT_TYPE else None

    stages = Stages(fake_main)
    stages.run(["ok"], "attack")
    stages.run(["boom"], None, fault=known)
    stages.run(["odd"], None, fault=known)
    assert stages.attempted == 3
    assert stages.failed == {"AttackError": 1, "KeyError": 1}
    assert len(stages.unexpected) == 1 and "KeyError" in stages.unexpected[0]
    assert set(stages.times) == {"attack"}
