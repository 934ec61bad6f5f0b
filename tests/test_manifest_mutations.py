"""The manifest-mutation property: on a small corpus, one mutated manifest
field either leaves ``obfuscate → init → attack → eval`` running to N/N
equivalence, or makes one stage exit 1 with exactly one ``error:`` line.

The mutated fields are the addresses (bases, function bounds, prologue and
epilogue sites, site records' starts and literals), the register lists, the
names, the site records' other fields and their ``fn``.  A mutation of the
plain manifest runs the whole pipeline; one of the obfuscated manifest runs
``init``, ``attack`` and ``eval`` against the untouched plain corpus."""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retobf.cli import main

KEY = "0xa5a5"
REGISTERS = [f"r{i}" for i in range(13)] + ["sp", "lr", "pc"]
JUNK = st.sampled_from([None, "zz", "0x", -1, 7, [], {}])
SITE_COUNTS = ("table_offset", "adds_imm", "capacity")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A seed-2, 12-function corpus with wide pops, obfuscated and attacked."""
    root = tmp_path_factory.mktemp("mutations")
    for argv in (
        ("gen", "--out", root / "c", "--functions", "12", "--seed", "2",
         "--high-reg-prob", "0.5"),
        ("obfuscate", "--in", root / "c", "--out", root / "o", "--key", KEY),
        ("attack", "--in", root / "o", "--out", root / "a"),
    ):
        assert _run(argv)[0] == 0
    return root


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def _fields(manifest) -> dict[str, list[tuple[tuple, str]]]:
    """``(path, kind)`` of every field the property mutates, by group, so
    that the three bases are drawn as often as the many function fields."""
    groups = {"bases": [((key,), "address") for key in ("base", "sram_base", "table_base")],
              "addresses": [], "registers": [], "names": [], "sites": []}
    for i, fn in enumerate(manifest["functions"]):
        groups["addresses"] += [(("functions", i, key), "address")
                                for key in ("start", "end", "prologue_site")]
        groups["addresses"] += [(("functions", i, "epilogue_sites", j), "address")
                                for j in range(len(fn["epilogue_sites"]))]
        groups["registers"] += [(("functions", i, key), "registers")
                                for key in ("true_pop", "used_callee_saved", "pad_registers")]
        groups["names"].append((("functions", i, "name"), "name"))
    for k, entry in enumerate(manifest["transform_log"]):
        for j, _ in enumerate(entry.get("sites", ())):
            site = ("transform_log", k, "sites", j)
            groups["names"].append(((*site, "fn"), "name"))
            groups["sites"] += [((*site, "kind"), "name"), ((*site, "item_start"), "address"),
                                ((*site, "literal_value"), "address"), ((*site, "enc"), "enc")]
            groups["sites"] += [((*site, key), "count") for key in SITE_COUNTS]
    return {group: fields for group, fields in groups.items() if fields}


def _values(kind: str, current, manifest):
    """A strategy for a replacement of a ``kind`` field holding ``current``."""
    if kind == "address":
        anchor = int(current if isinstance(current, str) else manifest["base"], 16)
        near = st.sampled_from([-0x10000, -0x100, -4, -2, -1, 1, 2, 4, 0x100, 0x10000])
        return st.one_of(near.map(lambda d: f"0x{max(anchor + d, 0):x}"),
                         st.integers(0, 1 << 33).map(hex), JUNK)
    if kind == "registers":
        return st.one_of(st.lists(st.sampled_from(REGISTERS), max_size=6, unique=True), JUNK)
    if kind == "name":
        names = [fn["name"] for fn in manifest["functions"]]
        return st.one_of(st.sampled_from(names + ["return", "push", "zz", ""]), JUNK)
    if kind == "enc":
        return st.one_of(st.binary(max_size=6).map(bytes.hex), JUNK)
    return st.one_of(st.integers(-4, 0x10004), JUNK)


def _set(obj, path, value) -> None:
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_a_mutated_manifest_runs_clean_or_fails_in_one_line(corpus, data):
    target = data.draw(st.sampled_from(["c", "o"]), label="manifest")
    manifest = json.loads((corpus / f"{target}.json").read_text())
    groups = _fields(manifest)
    group = data.draw(st.sampled_from(sorted(groups)), label="group")
    path, kind = data.draw(st.sampled_from(groups[group]), label="field")
    value = data.draw(_values(kind, _get(manifest, path), manifest), label="value")
    _set(manifest, path, value)

    run = corpus / "run"
    run.mkdir(exist_ok=True)
    for name in ("c.bin", "c.json", "o.bin", "o.json"):
        shutil.copyfile(corpus / name, run / name)
    (run / f"{target}.json").write_text(json.dumps(manifest))
    stages = [
        ("init", "--in", run / "o", "--out", run / "t.json", "--key", KEY),
        ("attack", "--in", run / "o", "--out", run / "a"),
        ("eval", "--plain", run / "c", "--image", run / "o", "--attack", run / "a",
         "--out", run / "e", "--key", KEY),
    ]
    if target == "c":
        stages.insert(0, ("obfuscate", "--in", run / "c", "--out", run / "o", "--key", KEY))
    for argv in stages:
        code, err = _run(argv)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err)
            return
        assert code == 0, (argv[0], code, err)
    report = json.loads((run / "e.eval.json").read_text())
    equivalence = report["equivalence"]
    assert equivalence["passed"] == equivalence["runs"] > 0, err
