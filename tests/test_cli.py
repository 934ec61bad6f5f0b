"""End-to-end command-line tests: determinism, exit codes, manifest
isolation of the attack command, report golden behavior."""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import retobf
from retobf import cli
from retobf.attack import GadgetCandidate, run_attack
from retobf.cli import _equivalence_suite, _gadget_check, main
from retobf.image import MAX_IMAGE_SIZE, load
from retobf.obfuscation import build_table

KEY = "0xa5a5"


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full pipeline run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("cli")
    assert run("gen", "--out", str(root / "corpus"), "--seed", "42",
               "--functions", "30") == 0
    assert run("obfuscate", "--in", str(root / "corpus"),
               "--out", str(root / "obf"), "--key", KEY) == 0
    assert run("init", "--in", str(root / "obf"), "--key", KEY,
               "--out", str(root / "table.json")) == 0
    assert run("attack", "--in", str(root / "obf"),
               "--out", str(root / "atk")) == 0
    assert run("eval", "--plain", str(root / "corpus"),
               "--image", str(root / "obf"), "--attack", str(root / "atk"),
               "--out", str(root / "ev"), "--key", KEY) == 0
    return root


def test_gen_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run("gen", "--out", str(tmp_path / name), "--seed", "42",
                   "--functions", "12") == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_zero_functions(tmp_path):
    assert run("gen", "--out", str(tmp_path / "empty"), "--functions", "0") == 0
    assert (tmp_path / "empty.bin").read_bytes() == b""


def test_gen_rejects_bad_probability(tmp_path):
    assert run("gen", "--out", str(tmp_path / "bad"), "--leaf-ratio", "2.0") == 1


def test_init_table_matches_truth(workdir):
    table = json.loads((workdir / "table.json").read_text())
    manifest = json.loads((workdir / "obf.json").read_text())
    non_leaf = [fn for fn in manifest["functions"] if fn["true_pop"] is not None]
    pops = {e["text"] for e in table["entries"] if e["text"].startswith("pop")}
    want = {
        "pop {" + ", ".join(fn["true_pop"]) + "}" for fn in non_leaf
    }
    assert want <= pops
    assert len(table["entries"]) == len(manifest["functions"]) \
        or len(table["entries"]) == sum(len(f["epilogue_sites"]) for f in manifest["functions"])


def test_init_wrong_key_fails(workdir, capsys):
    assert run("init", "--in", str(workdir / "obf"), "--key", "0x1111",
               "--out", str(workdir / "bad_table.json")) == 1
    assert "wrong key" in capsys.readouterr().err


def test_init_seed_without_rotation_builds_plain_table(workdir, tmp_path):
    """A push-sealed image without rotation room boots one table, with or
    without a boot seed."""
    hard = tmp_path / "sealed"
    assert run("harden", "--in", str(workdir / "corpus"), "--out", str(hard),
               "--key", KEY, "--encrypt-push", "on") == 0
    assert run("init", "--in", str(hard), "--key", KEY,
               "--out", str(tmp_path / "plain.json")) == 0
    assert run("init", "--in", str(hard), "--key", KEY, "--seed", "1",
               "--out", str(tmp_path / "seeded.json")) == 0
    plain, seeded = (json.loads((tmp_path / name).read_text())
                     for name in ("plain.json", "seeded.json"))
    assert seeded["entries"] == plain["entries"]


def test_key_env_fallback(workdir, tmp_path, monkeypatch):
    monkeypatch.setenv("RETOBF_KEY", KEY)
    assert run("init", "--in", str(workdir / "obf"),
               "--out", str(tmp_path / "t.json")) == 0
    monkeypatch.delenv("RETOBF_KEY")
    assert run("init", "--in", str(workdir / "obf"),
               "--out", str(tmp_path / "t2.json")) == 1


def test_attack_reads_only_the_binary(workdir, tmp_path):
    """The attack command must work in a directory holding nothing but the
    raw image: no manifest file exists to even accidentally open."""
    lair = tmp_path / "attacker"
    lair.mkdir()
    shutil.copy(workdir / "obf.bin", lair / "target.bin")
    assert run("attack", "--in", str(lair / "target"),
               "--out", str(lair / "result")) == 0
    report = json.loads((lair / "result.attack.json").read_text())
    assert report["sites"]
    full = json.loads((workdir / "atk.attack.json").read_text())
    assert report["sites"] == full["sites"]
    assert report["predictions"] == full["predictions"]


def test_attack_on_plain_image_notes_empty(workdir, tmp_path):
    assert run("attack", "--in", str(workdir / "corpus"),
               "--out", str(tmp_path / "plainatk")) == 0
    report = json.loads((tmp_path / "plainatk.attack.json").read_text())
    assert report["sites"] == []
    assert "unobfuscated" in report["note"]


def test_attack_outputs_deterministic(workdir, tmp_path):
    assert run("attack", "--in", str(workdir / "obf"),
               "--out", str(tmp_path / "atk2")) == 0
    a = (workdir / "atk.gadgets.jsonl").read_bytes()
    b = (tmp_path / "atk2.gadgets.jsonl").read_bytes()
    assert a == b


@pytest.mark.parametrize("base, message", [
    ("0x100000000", "flash 0x100000000..0x10000"),
    ("0x240000", "flash 0x240000..0x24"),
])
def test_attack_rejects_a_base_outside_the_address_map(workdir, tmp_path, capsys, base,
                                                        message):
    """Flash past the 32-bit space or over the RAM table is one error line,
    not a report with out-of-range site addresses."""
    capsys.readouterr()
    assert run("attack", "--in", str(workdir / "obf"), "--out", str(tmp_path / "atk"),
               "--base", base) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_attack_rejects_an_oversized_image(tmp_path, capsys):
    (tmp_path / "big.bin").write_bytes(bytes(MAX_IMAGE_SIZE + 2))
    assert run("attack", "--in", str(tmp_path / "big"), "--out", str(tmp_path / "atk")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: image is {MAX_IMAGE_SIZE + 2} bytes, limit {MAX_IMAGE_SIZE}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["big.bin"]


def _solo(argv):
    """(exit code, stdout, stderr) of ``argv`` run in a process of its own."""
    src = str(Path(retobf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "retobf.cli", *argv], capture_output=True,
                          text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _artifacts(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_one_parser_serves_many_commands_in_a_process(workdir, tmp_path, capsys):
    """Commands run one after another through one process's parser exit,
    print and write exactly what each does in a process of its own: no
    option value carries over from one call to the next."""
    image = tmp_path / "in" / "obf"
    image.parent.mkdir()
    shutil.copy(workdir / "obf.bin", image.with_suffix(".bin"))
    out = tmp_path / "out"
    commands = [
        ["attack", "--in", str(image), "--out", str(out / "json"), "--format", "json"],
        ["attack", "--in", str(image), "--out", str(out / "text")],
        ["attack", "--in", str(image), "--out", str(out / "bad"), "--base", "0x40001"],
        ["attack", "--in", str(image), "--out", str(out / "usage"), "--format", "xml"],
        ["gen", "--out", str(out / "gen"), "--functions", "3"],
        ["attack", "--in", str(image), "--out", str(out / "again")],
    ]
    capsys.readouterr()
    together = [_in_process(argv, capsys) for argv in commands]
    written = _artifacts(out)
    shutil.rmtree(out)
    alone = [_solo(argv) for argv in commands]
    assert [code for code, _, _ in together] == [0, 0, 1, 2, 0, 0]
    assert together[2][2] == "error: base addresses must be word-aligned\n"
    assert together == alone
    assert written == _artifacts(out)
    assert written[Path("again.attack.txt")] == written[Path("text.attack.txt")]


def test_json_format_prints_the_report_file(workdir, tmp_path, capsys):
    """``--format json`` prints exactly the bytes of the report it writes."""
    capsys.readouterr()
    assert run("attack", "--in", str(workdir / "obf"), "--out", str(tmp_path / "a"),
               "--format", "json") == 0
    assert capsys.readouterr().out == (tmp_path / "a.attack.json").read_text()
    assert run("eval", "--plain", str(workdir / "corpus"), "--image", str(workdir / "obf"),
               "--attack", str(workdir / "atk"), "--out", str(tmp_path / "e"), "--key", KEY,
               "--equivalence-runs", "3", "--format", "json") == 0
    assert capsys.readouterr().out == (tmp_path / "e.eval.json").read_text()


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    """N calls to ``main`` in one process build the argparse tree once."""
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for i in range(5):
            assert run("gen", "--out", str(tmp_path / f"g{i}"), "--functions", "0") == 0
        with pytest.raises(SystemExit):
            run("gen", "--functions", "0")  # --out is required
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_eval_report(workdir):
    payload = json.loads((workdir / "ev.eval.json").read_text())
    assert payload["gadget_terminators"]["after"] == 0
    assert payload["gadget_terminators"]["before"] > 0
    assert payload["equivalence"]["passed"] == payload["equivalence"]["runs"] > 0
    rec = payload["recovery"]
    assert rec["site_recall"] == 1.0
    for method in ("symmetry", "liveness", "combined"):
        assert rec["methods"][method]["exact_rate"] == 1.0
    assert payload["gadget_check"]["passed"] == payload["gadget_check"]["sampled"]
    assert payload["size_overhead_bytes"] > 0
    text = (workdir / "ev.eval.txt").read_text()
    assert "gadget terminators" in text


def test_eval_deterministic(workdir, tmp_path):
    assert run("eval", "--plain", str(workdir / "corpus"),
               "--image", str(workdir / "obf"), "--attack", str(workdir / "atk"),
               "--out", str(tmp_path / "ev2"), "--key", KEY) == 0
    a = json.loads((workdir / "ev.eval.json").read_text())
    b = json.loads((tmp_path / "ev2.eval.json").read_text())
    a.pop("config"), b.pop("config")  # configs embed the differing out paths
    assert a == b


def test_eval_plain_against_itself_counts_each_return_once(workdir, tmp_path):
    """Before and after count gadget terminators, one per plaintext return,
    so an image evaluated against itself reports the same number twice."""
    assert run("attack", "--in", str(workdir / "corpus"), "--out", str(tmp_path / "a")) == 0
    assert run("eval", "--plain", str(workdir / "corpus"), "--image", str(workdir / "corpus"),
               "--attack", str(tmp_path / "a"), "--out", str(tmp_path / "e"),
               "--key", KEY) == 0
    terminators = json.loads((tmp_path / "e.eval.json").read_text())["gadget_terminators"]
    plain = json.loads((workdir / "corpus.json").read_text())
    returns = sum(len(fn["epilogue_sites"]) for fn in plain["functions"])
    assert terminators == {"before": returns, "after": returns}


@pytest.mark.parametrize("stage, option, value", [
    ("eval", "--equivalence-runs", "-5"),
    ("eval", "--rotation-seeds", "-3"),
    ("harden", "--kmax", "-1"),
])
def test_negative_counts_are_one_error_line(workdir, tmp_path, capsys, stage, option, value):
    if stage == "eval":
        argv = ["eval", "--plain", str(workdir / "corpus"), "--image", str(workdir / "obf"),
                "--attack", str(workdir / "atk")]
    else:
        argv = ["harden", "--in", str(workdir / "corpus")]
    capsys.readouterr()
    assert run(*argv, "--out", str(tmp_path / "o"), "--key", KEY, option, value) == 1
    err = capsys.readouterr().err
    assert err == f"error: {option} must be non-negative, got {value}\n"
    assert list(tmp_path.iterdir()) == []


def test_eval_lineage_mismatch(workdir, tmp_path):
    assert run("attack", "--in", str(workdir / "corpus"),
               "--out", str(tmp_path / "stale")) == 0
    assert run("eval", "--plain", str(workdir / "corpus"),
               "--image", str(workdir / "obf"), "--attack", str(tmp_path / "stale"),
               "--out", str(tmp_path / "ev3"), "--key", KEY) == 1


def test_eval_rejects_malformed_attack_report(workdir, tmp_path, capsys):
    """A report missing its digest, or one of the method verdict lists,
    ends in one error line, not a traceback."""
    digest = hashlib.sha256((workdir / "obf.bin").read_bytes()).hexdigest()
    wide_halfword = {"address": "0x40000", "adds_imm": 0, "literal_value": "0x0",
                     "encrypted_halfword": "0x10000", "inferred_table_offset": 0}
    for report in ({"sites": []}, {"image_sha256": digest, "sites": [], "predictions": {}},
                   {"image_sha256": digest, "sites": [wide_halfword],
                    "predictions": {"symmetry": [], "liveness": [], "combined": []}}):
        (tmp_path / "bad.attack.json").write_text(json.dumps(report))
        assert run("eval", "--plain", str(workdir / "corpus"),
                   "--image", str(workdir / "obf"), "--attack", str(tmp_path / "bad"),
                   "--out", str(tmp_path / "ev4"), "--key", KEY) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed attack report") and err.count("\n") == 1



@pytest.mark.parametrize("damage", ["deleted", "truncated", "extended"])
def test_eval_rejects_a_catalog_short_of_the_gadget_count(workdir, tmp_path, capsys, damage):
    """A gadget file that is missing, or holds fewer or more lines than the
    report's gadget_count, ends in one error line: the gadget check is never
    skipped silently."""
    shutil.copy(workdir / "atk.attack.json", tmp_path / "bad.attack.json")
    lines = (workdir / "atk.gadgets.jsonl").read_text().splitlines(keepends=True)
    assert json.loads((workdir / "atk.attack.json").read_text())["gadget_count"] == len(lines)
    if damage != "deleted":
        kept = lines[:-1] if damage == "truncated" else lines + lines[:1]
        (tmp_path / "bad.gadgets.jsonl").write_text("".join(kept))
    assert run("eval", "--plain", str(workdir / "corpus"),
               "--image", str(workdir / "obf"), "--attack", str(tmp_path / "bad"),
               "--out", str(tmp_path / "ev"), "--key", KEY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed attack report") and err.count("\n") == 1
    assert "gadget_count" in err
    assert f"{tmp_path / 'bad.gadgets.jsonl'}: " in err
    assert not (tmp_path / "ev.eval.json").exists()


@pytest.mark.parametrize("edit", [
    {"stack_delta": "8"}, {"stack_delta": -4},
    {"stack_delta": 6}, {"stack_delta": True}, {"stack_delta": 4.0},
    {"stack_delta": 8, "pc_slot_index": 2}, {"stack_delta": 8, "pc_slot_index": -1},
    {"stack_delta": 8, "pc_slot_index": "1"}, {"stack_delta": 0, "pc_slot_index": 0},
], ids=lambda edit: "-".join(f"{k}={v!r}" for k, v in edit.items()))
def test_eval_rejects_a_tampered_gadget_line(workdir, tmp_path, capsys, edit):
    """A gadget line whose stack delta is not a non-negative multiple of 4,
    or whose pc slot is not one of its words, ends in one error line naming
    the catalog file and the line, first or last; the gadget check never
    runs on it."""
    shutil.copy(workdir / "atk.attack.json", tmp_path / "bad.attack.json")
    original = (workdir / "atk.gadgets.jsonl").read_text().splitlines()
    for index in (0, len(original) - 1):
        lines = list(original)
        lines[index] = json.dumps({**json.loads(lines[index]), **edit})
        (tmp_path / "bad.gadgets.jsonl").write_text("\n".join(lines) + "\n")
        assert run("eval", "--plain", str(workdir / "corpus"),
                   "--image", str(workdir / "obf"), "--attack", str(tmp_path / "bad"),
                   "--out", str(tmp_path / "ev"), "--key", KEY) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed attack report") and err.count("\n") == 1
        assert f"{tmp_path / 'bad.gadgets.jsonl'} line {index + 1}: " in err


def test_eval_fails_gadgets_too_deep_for_the_stack(workdir, tmp_path, capsys):
    """Gadget lines asking for more stack words than the stack holds are
    well formed: each sampled one fails its check instead of faulting."""
    shutil.copy(workdir / "atk.attack.json", tmp_path / "deep.attack.json")
    lines = [json.dumps({**json.loads(line), "stack_delta": 100000})
             for line in (workdir / "atk.gadgets.jsonl").read_text().splitlines()]
    (tmp_path / "deep.gadgets.jsonl").write_text("\n".join(lines) + "\n")
    assert run("eval", "--plain", str(workdir / "corpus"),
               "--image", str(workdir / "obf"), "--attack", str(tmp_path / "deep"),
               "--out", str(tmp_path / "ev"), "--key", KEY, "--format", "json") == 0
    check = json.loads((tmp_path / "ev.eval.json").read_text())["gadget_check"]
    assert check == {"sampled": min(25, len(lines)), "passed": 0}
    assert capsys.readouterr().err.count("stack delta 100000) failed") == check["sampled"]


@pytest.mark.parametrize("transform", ["obfuscate", "harden-kmax-3"])
def test_eval_runs_the_sample_drawn_from_the_parsed_catalog(workdir, tmp_path, monkeypatch,
                                                           transform):
    """Eval builds only the sampled candidates, yet runs exactly the ones
    ``random.Random(0xCA7).sample`` draws from the fully parsed catalog, in
    the same order, on an obfuscated and on a padded image."""
    image = workdir / "obf"
    if transform != "obfuscate":
        image = tmp_path / "padded"
        assert run("harden", "--in", str(workdir / "corpus"), "--out", str(image),
                   "--key", KEY, "--kmax", "3") == 0
    assert run("attack", "--in", str(image), "--out", str(tmp_path / "atk")) == 0
    catalog = [GadgetCandidate.from_json(json.loads(line))
               for line in (tmp_path / "atk.gadgets.jsonl").read_text().splitlines()]
    assert len(catalog) > 25
    runs = []
    real = cli._gadget_check
    monkeypatch.setattr(cli, "_gadget_check",
                        lambda image, table, sample: runs.append(sample) or real(image, table, sample))
    assert run("eval", "--plain", str(workdir / "corpus"), "--image", str(image),
               "--attack", str(tmp_path / "atk"), "--out", str(tmp_path / "ev"),
               "--key", KEY) == 0
    assert runs == [random.Random(0xCA7).sample(catalog, 25)]
    check = json.loads((tmp_path / "ev.eval.json").read_text())["gadget_check"]
    assert check == {"sampled": 25, "passed": 25}


def test_eval_builds_only_the_candidates_it_runs(workdir, tmp_path, monkeypatch, capsys):
    """An unrotated image builds min(25, n) of its n candidates; a rotated
    image builds none, yet every line of its catalog is still checked."""
    n = len((workdir / "atk.gadgets.jsonl").read_text().splitlines())
    built = []
    real = GadgetCandidate.__init__
    monkeypatch.setattr(GadgetCandidate, "__init__",
                        lambda self, *a, **k: built.append(1) or real(self, *a, **k))
    assert run("eval", "--plain", str(workdir / "corpus"), "--image", str(workdir / "obf"),
               "--attack", str(workdir / "atk"), "--out", str(tmp_path / "ev"),
               "--key", KEY) == 0
    assert len(built) == min(25, n)

    assert run("harden", "--in", str(workdir / "corpus"), "--out", str(tmp_path / "h"),
               "--key", KEY, "--rotate", "on") == 0
    assert run("attack", "--in", str(tmp_path / "h"), "--out", str(tmp_path / "hatk")) == 0
    lines = (tmp_path / "hatk.gadgets.jsonl").read_text().splitlines()
    assert lines
    argv = ["eval", "--plain", str(workdir / "corpus"), "--image", str(tmp_path / "h"),
            "--attack", str(tmp_path / "hatk"), "--out", str(tmp_path / "hev"), "--key", KEY,
            "--rotation-seeds", "2", "--equivalence-runs", "4"]
    built.clear()
    assert run(*argv) == 0
    assert built == []
    assert json.loads((tmp_path / "hev.eval.json").read_text())["gadget_check"] is None

    lines[-1] = json.dumps({**json.loads(lines[-1]), "stack_delta": 6})
    (tmp_path / "hatk.gadgets.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "hev.eval.json").unlink()
    capsys.readouterr()
    assert run(*argv) == 1
    assert built == []
    assert f"{tmp_path / 'hatk.gadgets.jsonl'} line {len(lines)}: " in capsys.readouterr().err
    assert not (tmp_path / "hev.eval.json").exists()


def test_every_emitted_gadget_line_reads_back(workdir):
    """The attack's own candidates meet the rules a gadget line is read
    under, so a report the attack wrote always loads."""
    lines = (workdir / "atk.gadgets.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        assert GadgetCandidate.from_json(json.loads(line)).to_json() == json.loads(line)


def _edited_corpus(tmp_path, edit, functions=20):
    assert run("gen", "--out", str(tmp_path / "c"), "--functions", str(functions),
               "--seed", "1") == 0
    manifest = json.loads((tmp_path / "c.json").read_text())
    edit(manifest)
    (tmp_path / "c.json").write_text(json.dumps(manifest))
    return tmp_path / "c"


def _lower_first_epilogue(manifest):
    sites = manifest["functions"][3]["epilogue_sites"]
    sites[0] = f"0x{int(sites[0], 16) - 1:x}"


@pytest.mark.parametrize("edit", [
    _lower_first_epilogue,
    lambda m: m.update(seed=None),
    lambda m: m.update(transform_log=5),
    lambda m: m["functions"][2].update(true_pop=["lr", "pc"]),
    lambda m: m["transform_log"][0].update(sites=[{"kind": "return"}]),
    lambda m: m["transform_log"].append("pass"),
    lambda m: m.update(table_base="0x23f000"),
    lambda m: m.update(table_base="0x24f000"),
    lambda m: m["functions"][0].update(prologue_site=m["functions"][0]["start"]),
    lambda m: m["functions"][1].update(prologue_site=m["functions"][2]["start"]),
], ids=["epilogue-off-boundary", "null-seed", "scalar-log", "lr-and-pc-pop",
        "truncated-site", "non-object-log-entry", "table-below-ram", "table-in-stack",
        "leaf-with-prologue", "prologue-outside-function"])
def test_malformed_manifest_is_one_error_line(tmp_path, capsys, edit):
    corpus = _edited_corpus(tmp_path, edit)
    capsys.readouterr()
    assert run("obfuscate", "--in", str(corpus), "--out", str(tmp_path / "o"),
               "--key", KEY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_leaf_without_prologue_fails_every_stage(tmp_path, capsys):
    """A non-leaf function whose prologue site is null (its true_pop still
    set) is refused at load by every stage that reads a manifest, rather
    than crashing inside a pass."""
    assert run("gen", "--out", str(tmp_path / "c"), "--functions", "20", "--seed", "1") == 0
    assert run("obfuscate", "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
               "--key", KEY) == 0
    assert run("attack", "--in", str(tmp_path / "o"), "--out", str(tmp_path / "a")) == 0
    for name in ("c", "o"):
        path = tmp_path / f"{name}.json"
        manifest = json.loads(path.read_text())
        assert manifest["functions"][1]["true_pop"] is not None
        manifest["functions"][1]["prologue_site"] = None
        path.write_text(json.dumps(manifest))
    capsys.readouterr()
    stages = [
        ("obfuscate", "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o2")),
        ("harden", "--in", str(tmp_path / "c"), "--out", str(tmp_path / "h"),
         "--rotate", "on"),
        ("init", "--in", str(tmp_path / "o"), "--out", str(tmp_path / "t.json")),
        ("eval", "--plain", str(tmp_path / "c"), "--image", str(tmp_path / "o"),
         "--attack", str(tmp_path / "a"), "--out", str(tmp_path / "e")),
    ]
    for argv in stages:
        assert run(*argv, "--key", KEY) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "fn_001" in err and err.count("\n") == 1


def test_misaligned_sram_base_is_one_error_line(tmp_path, capsys):
    """A RAM base off the word grid would misalign the stack top, so every
    pushing call would fault; ``load`` refuses it in every stage that reads
    a manifest, as it refuses the other bases."""
    assert run("gen", "--out", str(tmp_path / "c"), "--functions", "12", "--seed", "2",
               "--high-reg-prob", "0.5") == 0
    assert run("obfuscate", "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
               "--key", KEY) == 0
    assert run("attack", "--in", str(tmp_path / "o"), "--out", str(tmp_path / "a")) == 0
    for name in ("c", "o"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "sram_base": "0x23fffe"}))
    capsys.readouterr()
    stages = [
        ("obfuscate", "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o2")),
        ("init", "--in", str(tmp_path / "o"), "--out", str(tmp_path / "t.json")),
        ("eval", "--plain", str(tmp_path / "c"), "--image", str(tmp_path / "o"),
         "--attack", str(tmp_path / "a"), "--out", str(tmp_path / "e")),
    ]
    for argv in stages:
        assert run(*argv, "--key", KEY) == 1, argv[0]
        assert capsys.readouterr().err == "error: base addresses must be word-aligned\n"
    assert not (tmp_path / "e.eval.json").exists()


def test_eval_refuses_an_image_whose_address_map_moved(workdir, tmp_path, capsys):
    """A transformed manifest whose base moved up a word still loads, but
    every function would run from the wrong address: ``eval`` refuses an
    address map that differs from the plain corpus's rather than report
    failed runs."""
    for suffix in (".bin", ".json"):
        shutil.copyfile(workdir / f"obf{suffix}", tmp_path / f"o{suffix}")
    manifest = json.loads((tmp_path / "o.json").read_text())
    manifest["base"] = f"0x{int(manifest['base'], 16) + 4:x}"
    (tmp_path / "o.json").write_text(json.dumps(manifest))
    load(tmp_path / "o")
    capsys.readouterr()
    assert run("eval", "--plain", str(workdir / "corpus"), "--image", str(tmp_path / "o"),
               "--attack", str(workdir / "atk"), "--out", str(tmp_path / "e"),
               "--key", KEY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "disagree on the base" in err and err.count("\n") == 1


@pytest.mark.parametrize("edit, path", [
    (lambda m: m["functions"][5].update(name="zz"),
     "transform_log[1].sites[5].fn: ValueError(\"'fn_005' names no function\")"),
    (lambda m: m["transform_log"][1]["sites"][0].update(fn="nope"),
     "transform_log[1].sites[0].fn: ValueError(\"'nope' names no function\")"),
    (lambda m: m["functions"][5].update(name=["fn_005"]),
     "functions[5].name: ValueError('not a unique string')"),
    (lambda m: m["functions"][5].update(name="fn_004"),
     "functions[5].name: ValueError('not a unique string')"),
], ids=["renamed-function", "dangling-site-fn", "list-as-name", "duplicate-name"])
def test_eval_refuses_a_site_that_names_no_function(tmp_path, capsys, edit, path):
    """Function names are unique strings and every site record names one;
    otherwise ``load`` refuses the manifest, naming the field, before
    ``eval`` scores the attack against it."""
    assert run("gen", "--out", str(tmp_path / "c"), "--functions", "12", "--seed", "2") == 0
    assert run("obfuscate", "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
               "--key", KEY) == 0
    assert run("attack", "--in", str(tmp_path / "o"), "--out", str(tmp_path / "a")) == 0
    manifest = json.loads((tmp_path / "o.json").read_text())
    edit(manifest)
    (tmp_path / "o.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run("eval", "--plain", str(tmp_path / "c"), "--image", str(tmp_path / "o"),
               "--attack", str(tmp_path / "a"), "--out", str(tmp_path / "e"),
               "--key", KEY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed manifest ") and err.endswith(f": {path}\n")
    assert err.count("\n") == 1


def test_equivalence_suite_reports_each_failed_run(workdir, capsys):
    """With one table entry zeroed, the runs through it fail, each with one
    stderr line naming its function, table and fault kind."""
    plain, plain_man = load(workdir / "corpus")
    image, manifest = load(workdir / "obf")
    table = build_table(image, int(KEY, 16))
    entry = table.entries[2]
    table.image[entry.offset : entry.offset + len(entry.data)] = bytes(len(entry.data))
    victim = next(rec.fn for rec in manifest.trampoline_records()
                  if rec.table_offset == entry.offset)
    capsys.readouterr()
    runs, passed = _equivalence_suite(plain, plain_man, image, manifest, [table], runs=300)
    lines = capsys.readouterr().err.splitlines()
    assert runs == 300 and 0 < len(lines) == runs - passed
    for line in lines:
        assert line.startswith("equivalence run ")
        assert line.split(": ", 1)[1].startswith(f"{victim} under table 0: UNDECODABLE")


def test_gadget_check_reports_each_failed_sample(workdir, capsys):
    """With one site's table entry zeroed, the sampled gadgets ending at that
    site fail, each with one stderr line naming its start, site and stack
    delta; the gadgets of an intact site still pass."""
    image, _ = load(workdir / "obf")
    table = build_table(image, int(KEY, 16))
    victim, intact = table.entries[2], table.entries[3]
    table.image[victim.offset : victim.offset + len(victim.data)] = bytes(len(victim.data))
    catalog = [c for c in run_attack(image).catalog
               if c.site_address in (victim.site, intact.site)]
    failing = {c.start for c in catalog if c.site_address == victim.site}
    assert 0 < len(failing) < len(catalog) <= 25
    capsys.readouterr()
    check = _gadget_check(image, table, catalog)
    lines = capsys.readouterr().err.splitlines()
    assert check == {"sampled": len(catalog), "passed": len(catalog) - len(failing)}
    assert len(lines) == len(failing)
    for line in lines:
        start = int(line.split("candidate ")[1].split()[0], 16)
        cand = next(c for c in catalog if c.start == start)
        assert start in failing
        assert line == (f"gadget check: candidate 0x{start:x} (site 0x{victim.site:x}, "
                        f"stack delta {cand.stack_delta}) failed")


def test_malformed_manifest_names_the_exception(tmp_path, capsys):
    corpus = _edited_corpus(
        tmp_path, lambda m: m["transform_log"][0].update(sites=[{"kind": "return"}])
    )
    capsys.readouterr()
    assert run("obfuscate", "--in", str(corpus), "--out", str(tmp_path / "o"),
               "--key", KEY) == 1
    assert "KeyError('fn')" in capsys.readouterr().err


@pytest.mark.parametrize("edit, path", [
    (lambda m: m["functions"][12].update(epilogue_sites=["0x40000", "0xzz"]),
     "functions[12].epilogue_sites[1]: ValueError(\"invalid literal for int() with base 16: "
     "'0xzz'\")"),
    (lambda m: m["functions"][12].update(true_pop=["r4", "pc", "fp"]),
     "functions[12].true_pop: KeyError('fp')"),
    (lambda m: m["transform_log"][0].update(sites=[{"kind": "return"}]),
     "transform_log[0].sites[0]: KeyError('fn')"),
], ids=["epilogue-site", "register-name", "site-record"])
def test_malformed_manifest_names_the_field(tmp_path, capsys, edit, path):
    corpus = _edited_corpus(tmp_path, edit)
    capsys.readouterr()
    assert run("init", "--in", str(corpus), "--key", KEY,
               "--out", str(tmp_path / "t.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed manifest ") and err.endswith(f": {path}\n")
    assert err.count("\n") == 1


def test_init_rejects_odd_epilogue_site(tmp_path, capsys):
    corpus = _edited_corpus(tmp_path, _lower_first_epilogue)
    capsys.readouterr()
    assert run("init", "--in", str(corpus), "--key", KEY,
               "--out", str(tmp_path / "t.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "halfword-aligned" in err and err.count("\n") == 1


def test_harden_rejects_an_epilogue_site_off_the_return(tmp_path, capsys):
    """An even epilogue site two bytes low names the instruction before the
    pop: padding must refuse it, as sealing does, not overwrite it."""
    def lower_by_two(manifest):
        sites = manifest["functions"][3]["epilogue_sites"]
        sites[0] = f"0x{int(sites[0], 16) - 2:x}"

    corpus = _edited_corpus(tmp_path, lower_by_two)
    capsys.readouterr()
    assert run("harden", "--in", str(corpus), "--out", str(tmp_path / "h"),
               "--key", KEY, "--rotate", "on") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a plaintext return" in err
    assert err.count("\n") == 1


def test_obfuscate_fails_when_the_table_has_no_room(tmp_path, capsys):
    """256 bytes below the stack cannot hold 200 functions' return entries."""
    corpus = _edited_corpus(tmp_path, lambda m: m.update(table_base="0x24bf00"), 200)
    capsys.readouterr()
    assert run("obfuscate", "--in", str(corpus), "--out", str(tmp_path / "o"),
               "--key", KEY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: table needs ") and err.endswith("capacity 256\n")


def test_harden_identity_knobs(workdir, tmp_path):
    assert run("harden", "--in", str(workdir / "corpus"),
               "--out", str(tmp_path / "h0"), "--key", KEY,
               "--kmax", "0", "--rotate", "off", "--encrypt-push", "off",
               "--seed", "0") == 0
    assert (tmp_path / "h0.bin").read_bytes() == (workdir / "obf.bin").read_bytes()


def test_dotted_prefixes_keep_their_suffix_through_the_pipeline(tmp_path, capsys):
    """Every artifact of gen, obfuscate, init, attack and eval sits under
    its full dotted prefix, and eval finds each of them there."""
    d = tmp_path / "d"
    assert run("gen", "--out", str(d / "corpus.v2"), "--seed", "5", "--functions", "12") == 0
    assert run("obfuscate", "--in", str(d / "corpus.v2"), "--out", str(d / "obf.v2"),
               "--key", KEY) == 0
    assert f"wrote {d / 'obf.v2.bin'} and {d / 'obf.v2.sites.json'}" in capsys.readouterr().out
    assert run("init", "--in", str(d / "obf.v2"), "--key", KEY) == 0
    assert run("attack", "--in", str(d / "obf.v2"), "--out", str(d / "atk.v2")) == 0
    assert run("eval", "--plain", str(d / "corpus.v2"), "--image", str(d / "obf.v2"),
               "--attack", str(d / "atk.v2"), "--out", str(d / "ev.v2"), "--key", KEY) == 0
    assert sorted(p.name for p in d.iterdir()) == sorted([
        "corpus.v2.bin", "corpus.v2.json", "obf.v2.bin", "obf.v2.json",
        "obf.v2.sites.json", "obf.v2.table.json", "atk.v2.attack.json",
        "atk.v2.attack.txt", "atk.v2.gadgets.jsonl", "ev.v2.eval.json", "ev.v2.eval.txt",
    ])
    payload = json.loads((d / "ev.v2.eval.json").read_text())
    assert payload["equivalence"]["passed"] == payload["equivalence"]["runs"] > 0
    assert payload["gadget_terminators"]["after"] == 0


@pytest.mark.parametrize("given", ["obf", "obf.bin", "obf.json"])
def test_init_writes_its_default_table_under_the_prefix(workdir, tmp_path, capsys, given):
    """Without --out, init names its table by the one prefix rule: the
    prefix, the .bin and the .json all write <prefix>.table.json."""
    for name in ("obf.bin", "obf.json"):
        shutil.copy(workdir / name, tmp_path / name)
    capsys.readouterr()
    assert run("init", "--in", str(tmp_path / given), "--key", KEY) == 0
    out = tmp_path / "obf.table.json"
    assert capsys.readouterr().out.endswith(f" -> {out}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["obf.bin", "obf.json",
                                                          "obf.table.json"]
    assert out.read_bytes() == (workdir / "table.json").read_bytes()


def test_harden_full_pipeline(tmp_path):
    assert run("gen", "--out", str(tmp_path / "c"), "--seed", "9",
               "--functions", "20") == 0
    assert run("harden", "--in", str(tmp_path / "c"), "--out", str(tmp_path / "h"),
               "--key", KEY, "--kmax", "3", "--rotate", "on", "--seed", "4") == 0
    assert run("init", "--in", str(tmp_path / "h"), "--key", KEY, "--seed", "1",
               "--out", str(tmp_path / "rot.json")) == 0
    table = json.loads((tmp_path / "rot.json").read_text())
    assert table["draws"]
    assert run("attack", "--in", str(tmp_path / "h"),
               "--out", str(tmp_path / "hatk")) == 0
    assert run("eval", "--plain", str(tmp_path / "c"), "--image", str(tmp_path / "h"),
               "--attack", str(tmp_path / "hatk"), "--out", str(tmp_path / "hev"),
               "--key", KEY, "--rotation-seeds", "20",
               "--equivalence-runs", "20") == 0
    payload = json.loads((tmp_path / "hev.eval.json").read_text())
    assert payload["equivalence"]["passed"] == payload["equivalence"]["runs"]
    assert payload["position_histogram"]
    sym = payload["recovery"]["methods"]["symmetry"]
    assert sym["exact_rate"] == 0.0
    live = payload["recovery"]["methods"]["liveness"]
    assert live["pad_registers_predicted"] == 0
