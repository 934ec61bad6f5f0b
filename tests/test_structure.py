"""Module-structure rules for the library: imports stay at module top, no
module reaches into another module's private names and no test oracle into
the library's, the trampoline geometry and the RAM map each have one
definition, each source of trampolines (the rewriter, the byte scan) has
one trampoline type, every instruction type the interpreter can run has a
handler, register lists and instructions carry no instance dict, every function
the benchmark's span tracer wraps exists, only the boot pass touches
the image's boot-plan memo, only the interpreter touches its block memos,
the attack keeps no module-level memo but its fixed-size effect table, and
indented JSON is written only through ``image.json_text``."""

import ast
import importlib
import random
import re
import sys
from array import array
from pathlib import Path

import pytest

from retobf import attack, isa, machine
from retobf.image import DEFAULT_BASE, FirmwareImage

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "retobf").glob("*.py"))


def _function_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted({node.lineno for node in _function_imports(tree)})
    assert lines == [], f"{path.name}: import inside a function body at lines {lines}"


def _private_imports(path, from_library):
    """``(line, name)`` of each ``_``-prefixed name ``path`` imports through
    an ``ImportFrom`` node that ``from_library`` accepts."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, f"{node.module}.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and from_library(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    private = _private_imports(path, lambda node: node.level > 0)
    assert private == [], f"{path.name}: imports private names {private}"


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("reference_*.py")),
                         ids=lambda p: p.name)
def test_oracles_import_no_private_library_names(path):
    """A reference shares no private code with the library it checks."""
    private = _private_imports(
        path, lambda node: (node.module or "").partition(".")[0] == "retobf")
    assert private == [], f"{path.name}: imports private names {private}"


GEOMETRY = ("enc_slot", "literal_slot", "resume", "entry_address")


def _defined_names(tree):
    """Names a module defines: functions, methods and (annotated) assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_slot_offsets_named_only_in_rewrite():
    users = [
        path.name
        for path in SOURCES
        if path.name != "_rewrite.py"
        and re.search(r"\b(ENC_SLOT_OFFSET|LITERAL_SLOT_OFFSET)\b", path.read_text())
    ]
    assert users == []


RAM_MAP = ("SRAM_SIZE", "STACK_RESERVE", "TABLE_SIZE")


def test_geometry_and_table_size_defined_once():
    """The trampoline geometry lives in ``_rewrite``; the RAM map lives in
    ``image``, and the table's room is derived from it, never a constant."""
    where: dict[str, list[str]] = {}
    for path in SOURCES:
        for name in _defined_names(ast.parse(path.read_text(), filename=str(path))):
            if name in GEOMETRY or name in RAM_MAP:
                where.setdefault(name, []).append(path.name)
    want = {name: ["_rewrite.py"] for name in GEOMETRY}
    want.update(SRAM_SIZE=["image.py"], STACK_RESERVE=["image.py"])
    assert where == want


def test_one_trampoline_type_per_source():
    """The rewriter plants records and the byte scan yields sightings; the
    attack reads the scan's sightings as they are, as the boot pass does."""
    users = sorted(
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "TrampolineGeometry"
                for base in node.bases)
    )
    assert users == ["_rewrite.TrampolineRecord", "obfuscation.RawSighting"]


def _span_targets() -> list[str]:
    """The ``layer.name`` strings of ``TARGETS`` in ``perfbench/spans.py``,
    read from its source so the tracer is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    value = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    return [f"{layer}.{name}" for layer, names in ast.literal_eval(value).items()
            for name in names]


@pytest.mark.parametrize("target", _span_targets())
def test_span_targets_resolve(target):
    """A renamed function would otherwise only fail a traced benchmark run."""
    layer, _, dotted = target.partition(".")
    owner = importlib.import_module(f"retobf.{layer}")
    for attr in dotted.split("."):
        owner = getattr(owner, attr, None)
    assert callable(owner), f"retobf.{target} does not resolve to a function"


def _concrete_instructions():
    """Every live subclass of ``isa.Instruction``: the class its module
    binds to its name.  ``dataclass(slots=True)`` replaces each class it
    decorates, and the replaced class stays in ``__subclasses__()``."""
    pending, found = [isa.Instruction], set()
    while pending:
        for sub in pending.pop().__subclasses__():
            if getattr(sys.modules[sub.__module__], sub.__qualname__, None) is sub:
                found.add(sub)
                pending.append(sub)
    return found


def test_every_instruction_type_has_a_handler(monkeypatch):
    """The interpreter compiles each instruction to an op by its exact type,
    in ``step`` and in a flash block alike, so a new ``isa`` class without
    an op builder would fault instead of running; only ``Unknown`` and the
    emission-only ``RawWord`` are left without one, and fetching either
    faults UNDECODABLE."""
    unhandled = {isa.Unknown, isa.RawWord}
    assert set(machine.OPS) == _concrete_instructions() - unhandled
    for insn in (isa.Unknown(0xDEFF), isa.RawWord(0)):
        img = FirmwareImage(0x40000, bytes(4))
        monkeypatch.setattr(machine, "decode",
                            lambda data, off, pc, insn=insn: (insn, insn.byte_length()))
        state = machine.make_state(img)
        state.pc = img.base
        with pytest.raises(machine.MachineFault) as err:
            machine.step(state)
        assert err.value.kind == machine.FaultKind.UNDECODABLE


def test_isa_values_carry_no_instance_dict():
    """Register lists and instructions are slotted: the rewriter holds one
    per instruction of an image, and a ``__dict__`` each would double them."""
    assert not hasattr(isa.RegisterList(0x4010), "__dict__")
    examples = [
        isa.Push(isa.RegisterList.of("r4", "lr")), isa.Pop(isa.RegisterList.of("r4", "pc")),
        isa.BxLr(), isa.LdrLitR0(8), isa.AddsImmR0(3), isa.MovPcR0(), isa.Bl(0x40100),
        isa.BranchW(0x40100), isa.MovImm(1, 2), isa.MovReg(8, 1), isa.AddReg(0, 1, 2),
        isa.SubReg(0, 1, 2), isa.StrSpRel(1, 4), isa.LdrSpRel(1, 4), isa.AddSpImm(8),
        isa.SubSpImm(8), isa.Nop(), isa.RawWord(0), isa.Unknown(0xDEFF),
    ]
    assert {type(insn) for insn in examples} == _concrete_instructions()
    for insn in examples:
        assert not hasattr(insn, "__dict__"), type(insn).__name__


def test_only_obfuscation_touches_the_boot_plans():
    """The image's boot-plan memo has one reader and writer,
    ``obfuscation.boot_scan``; any other module would bypass its key and
    integrity checks."""
    users = [
        path.name
        for path in SOURCES
        if path.name != "obfuscation.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "boot_plans"
    ]
    assert users == []


def test_only_machine_touches_the_interpreter_memos():
    """The image's ``blocks`` and ``table_blocks`` memos hold what the
    interpreter compiled from flash and from table code; only ``machine``
    reads or fills them.  A method call such as ``view.blocks()`` would not
    be the memo."""
    memos = {"blocks", "table_blocks"}
    users = []
    for path in SOURCES:
        if path.name == "machine.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        users += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in memos
                  and id(node) not in called]
    assert users == []


def _module_containers(module):
    return {name for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, (list, dict, set, bytearray, array))}


def test_attack_keeps_no_module_memo():
    """What the attack learns of one image lives on its ``ImageView`` and is
    freed with it.  The one module-level container is the effect table, and
    attacking images does not grow it: a module-level memo filled per image
    raised the benchmark's peak RSS through fragmentation in later passes."""
    assert _module_containers(attack) == {"_EFFECTS"}
    rng = random.Random(3)
    for _ in range(5):
        attack.run_attack(FirmwareImage(DEFAULT_BASE, rng.randbytes(4096)))
    assert _module_containers(attack) == {"_EFFECTS"}
    assert len(attack._EFFECTS) == 0x10000


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    """Indented JSON has one writer, ``image.json_text``: no module passes
    ``indent=`` to ``json.dump`` or ``json.dumps``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert calls == [], f"{path.name}: json.dump(s) with indent= at lines {calls}"
