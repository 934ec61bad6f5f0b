"""Command-line pipeline: gen, obfuscate, init, attack, harden, eval.

Every command is deterministic given its flags and input digests; reports
embed both so regenerating a run yields byte-identical outputs.  The attack
command reads the raw image only: it never opens a manifest.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import random
import sys
from pathlib import Path

from . import harden as harden_mod
from . import image as image_mod
from . import machine, obfuscation
from ._rewrite import RewriteError
from .attack import (
    AttackError,
    AttackResult,
    GadgetCandidate,
    count_terminators,
    evaluate_recovery,
    run_attack,
)
from .image import MALFORMED_INPUT, CorpusParams, FirmwareImage, ImageError, json_text, load, save
from .machine import MachineFault, call, check_gadget, states_equivalent
from .obfuscation import ObfuscationError, build_table

KEY_ENV = "RETOBF_KEY"


class CliError(Exception):
    pass


def _dump_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(obj))


def _parse_key(value: str | None) -> int:
    raw = value if value is not None else os.environ.get(KEY_ENV)
    if raw is None:
        raise CliError(f"a key is required (--key or ${KEY_ENV})")
    try:
        key = int(raw, 16) if isinstance(raw, str) else raw
    except ValueError as exc:
        raise CliError(f"bad key {raw!r}: {exc}") from exc
    return obfuscation.check_key(key)


def _hex(value: str) -> int:
    return int(value, 16)


def _check_counts(args, *names: str) -> None:
    """Refuse a negative value for any of the count options ``names``."""
    for name in names:
        if getattr(args, name) < 0:
            raise CliError(f"--{name.replace('_', '-')} must be non-negative, "
                           f"got {getattr(args, name)}")


def _echo(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    cfg.pop("key", None)  # never echo key material into reports
    cfg.update(extra)
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in sorted(cfg.items())}


def cmd_gen(args) -> int:
    params = CorpusParams(
        function_count=args.functions,
        seed=args.seed,
        leaf_ratio=args.leaf_ratio,
        multi_epilogue_prob=args.multi_epilogue_prob,
        high_reg_prob=args.high_reg_prob,
    )
    image, manifest = image_mod.generate_corpus(params)
    bin_path, json_path = save(image, manifest, args.out)
    print(f"wrote {bin_path} ({len(image.data)} bytes, "
          f"{len(manifest.functions)} functions) and {json_path}")
    return 0


def cmd_obfuscate(args) -> int:
    key = _parse_key(args.key)
    image, manifest = load(args.input)
    obf, man2, records = obfuscation.obfuscate_returns(image, manifest, key)
    bin_path, _ = save(obf, man2, args.out)
    sites = image_mod.artifact_path(args.out, ".sites.json")
    _dump_json(sites, {"sites": [rec.to_json() for rec in records]})
    print(f"sealed {len(records)} return(s); wrote {bin_path} and {sites}")
    return 0


def cmd_init(args) -> int:
    key = _parse_key(args.key)
    image, manifest = load(args.input)
    if args.seed is not None and manifest.boots_rotated:
        table = harden_mod.build_rotated_table(image, manifest, key, args.seed)
    else:
        table = build_table(image, key)
    out = Path(args.out) if args.out else image_mod.artifact_path(args.input, ".table.json")
    payload = table.to_json()
    payload["image_sha256"] = image.sha256()
    _dump_json(out, payload)
    print(f"rebuilt {len(table.entries)} table entrie(s) -> {out}")
    return 0


def cmd_attack(args) -> int:
    bin_path = image_mod.artifact_path(args.input, ".bin")
    image = FirmwareImage(base=args.base, data=bin_path.read_bytes())
    result = run_attack(image)
    out = Path(args.out)
    report = result.to_json()
    report["config"] = _echo(args)
    report["gadget_count"] = len(result.catalog)
    if not result.sites:
        report["note"] = "no trampolines located; image looks unobfuscated"
    _dump_json(Path(str(out) + ".attack.json"), report)
    encode = json.JSONEncoder(sort_keys=True).encode
    Path(str(out) + ".gadgets.jsonl").write_text(
        "".join([encode(cand.to_json()) + "\n" for cand in result.catalog]))
    lines = [
        f"sites located: {len(result.sites)}",
        f"gadget candidates: {len(result.catalog)}",
    ]
    for method, preds in result.predictions.items():
        ok = sum(p.ok for p in preds)
        lines.append(f"{method}: {ok}/{len(preds)} sites with a verdict")
    text = "\n".join(lines)
    Path(str(out) + ".attack.txt").write_text(text + "\n")
    sys.stdout.write(text + "\n" if args.format == "text" else json_text(report))
    return 0


def cmd_harden(args) -> int:
    _check_counts(args, "kmax")
    key = _parse_key(args.key)
    image, manifest = load(args.input)
    himg, hman, plans = harden_mod.harden(
        image,
        manifest,
        key,
        kmax=args.kmax,
        rotate=args.rotate == "on",
        encrypt_push=args.encrypt_push == "on",
        seed=args.seed,
    )
    bin_path, _ = save(himg, hman, args.out)
    padded = sum(1 for p in plans if not p.extra.is_empty)
    print(
        f"hardened {len(hman.functions)} function(s): {padded} padded, "
        f"rotate={args.rotate}, encrypt-push="
        f"{'on' if args.rotate == 'on' else args.encrypt_push}; wrote {bin_path}"
    )
    return 0


def _load_attack(prefix) -> tuple[AttackResult, object]:
    """The result ``<prefix>.attack.json`` holds, and its ``gadget_count``
    as read: ``_sample_catalog`` checks it against the catalog."""
    path = Path(str(prefix) + ".attack.json")
    text = path.read_text()
    try:
        obj = json.loads(text)
        return AttackResult.from_json(obj), obj["gadget_count"]
    except MALFORMED_INPUT as exc:
        raise CliError(f"malformed attack report {path}: {exc!r}") from exc


def _sample_catalog(prefix, count, size: int) -> list[GadgetCandidate]:
    """Check ``<prefix>.gadgets.jsonl`` in one pass and build the sample of
    up to ``size`` candidates the gadget check runs.

    Every line is checked as ``GadgetCandidate.from_json`` reads it, and the
    file (none counts as empty) must hold ``count`` lines.  Only the lines
    at the indices ``random.Random(0xCA7).sample`` draws from ``range(count)``
    are built, in draw order: the sample it draws from the parsed list.  A
    refused line is named by its 1-based number."""
    path = Path(str(prefix) + ".gadgets.jsonl")
    counted = type(count) is int and count >= 0
    picks = random.Random(0xCA7).sample(range(count), min(size, count)) if counted else []
    sample = dict.fromkeys(picks)
    n = 0
    try:
        with path.open("rb") if path.exists() else io.BytesIO() as lines:
            for raw in lines:
                # Split as str.splitlines does, which also breaks at \r, \v, \f.
                for line in raw.decode().splitlines():
                    fields = GadgetCandidate.json_fields(json.loads(line))
                    if n in sample:
                        sample[n] = GadgetCandidate(*fields)
                    n += 1
    except MALFORMED_INPUT as exc:
        raise CliError(f"malformed attack report {path} line {n + 1}: {exc!r}") from exc
    if not counted or count != n:
        raise CliError(f"malformed attack report {path}: gadget_count {count!r} "
                       f"but the catalog holds {n} candidate(s)")
    return list(sample.values())


def _equivalence_suite(plain, plain_man, image, manifest, tables, *, runs):
    """Randomized original-vs-transformed call comparisons, cycling through
    the boot ``tables``; returns (runs, passed).  Each failed run prints one
    stderr line naming the function, the table index and the fault kind (or
    a state mismatch)."""
    rng = random.Random(0xEC0)
    passed = 0
    total = 0
    pairs = list(zip(plain_man.functions, manifest.functions))
    if not pairs:
        return 0, 0
    for i in range(runs):
        fn_old, fn_new = pairs[rng.randrange(len(pairs))]
        table_index = i % len(tables)
        regs = {r: rng.randrange(1 << 32) for r in range(13)}
        total += 1
        try:
            a = call(plain, entry=fn_old.start, regs=regs, keep_trace=False)
            b = call(image, tables[table_index], entry=fn_new.start, regs=regs,
                     keep_trace=False)
        except MachineFault as exc:
            reason = f"{exc.kind.name} ({exc})"
        else:
            sp_ok = b.state.sp == b.state.stack_top - machine.CALLER_STACK_BYTES
            if states_equivalent(a.state, b.state) and sp_ok:
                passed += 1
                continue
            reason = "state mismatch"
        print(f"equivalence run {i}: {fn_new.name} under table {table_index}: {reason}",
              file=sys.stderr)
    return total, passed


def _gadget_check(image, table, sample) -> dict:
    """Run the ``sample`` candidates under ``table``.  Each failed one
    prints one stderr line with the candidate's start, site and stack
    delta."""
    passed = 0
    for c in sample:
        if check_gadget(image, table, c.start, c.stack_delta, c.pc_slot_index):
            passed += 1
        else:
            print(f"gadget check: candidate 0x{c.start:x} (site 0x{c.site_address:x}, "
                  f"stack delta {c.stack_delta}) failed", file=sys.stderr)
    return {"sampled": len(sample), "passed": passed}


def cmd_eval(args) -> int:
    _check_counts(args, "equivalence_runs", "rotation_seeds")
    key = _parse_key(args.key)
    plain, plain_man = load(args.plain)
    image, manifest = load(args.image)
    if (plain.base, plain.sram_base, plain.table_base) != (
            image.base, image.sram_base, image.table_base):
        raise CliError(f"{args.image} and its plain corpus {args.plain} disagree on the base, "
                       "sram_base or table_base, which no transform moves")
    rotated = manifest.boots_rotated
    result, gadget_count = _load_attack(args.attack)
    report = evaluate_recovery(result, manifest, image)
    del result
    # Every catalog line is checked; a rotated image runs no gadget sample.
    sample = _sample_catalog(args.attack, gadget_count, 0 if rotated else 25)

    before, after = count_terminators(plain), count_terminators(image)
    if rotated:
        seeds = range(max(args.rotation_seeds, 1))
        tables = [harden_mod.build_rotated_table(image, manifest, key, s) for s in seeds]
    else:
        tables = [build_table(image, key) if manifest.has_pass("obfuscate_returns") else None]
    runs, passed = _equivalence_suite(
        plain, plain_man, image, manifest, tables, runs=args.equivalence_runs
    )

    gadget_check = None
    if sample:
        gadget_check = _gadget_check(image, tables[0], sample)

    histogram = None
    if rotated and args.rotation_seeds > 1:
        histogram = harden_mod.position_distribution(tables)

    payload = {
        "config": _echo(args),
        "inputs": {
            "plain_sha256": plain.sha256(),
            "image_sha256": image.sha256(),
        },
        "gadget_terminators": {"before": before, "after": after},
        "equivalence": {"runs": runs, "passed": passed},
        "gadget_check": gadget_check,
        "size_overhead_bytes": len(image.data) - len(plain.data),
        "recovery": report.to_json(),
        "position_histogram": histogram,
    }
    out = Path(args.out)
    _dump_json(Path(str(out) + ".eval.json"), payload)
    text_lines = [
        f"gadget terminators: {before} before, {after} after",
        f"equivalence: {passed}/{runs} runs",
        f"size overhead: {payload['size_overhead_bytes']} bytes",
        report.text_table(),
    ]
    text = "\n".join(text_lines)
    Path(str(out) + ".eval.txt").write_text(text + "\n")
    sys.stdout.write(text + "\n" if args.format == "text" else json_text(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retobf",
        description="Return-instruction obfuscation lab: transform, attack, "
        "harden, and evaluate Thumb firmware images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output prefix (.bin/.json)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--functions", type=int, default=200)
    p.add_argument("--leaf-ratio", type=float, default=0.2)
    p.add_argument("--multi-epilogue-prob", type=float, default=0.0)
    p.add_argument("--high-reg-prob", type=float, default=0.15)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("obfuscate", help="seal returns behind trampolines")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--key", help=f"16-bit hex key (default ${KEY_ENV})")
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("init", help="rebuild the RAM table like the boot pass")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.add_argument("--key", help=f"16-bit hex key (default ${KEY_ENV})")
    p.add_argument("--seed", type=int, help="boot seed (rotated tables)")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("attack", help="locate and recover sealed returns "
                       "from image bytes alone")
    p.add_argument("--in", dest="input", required=True, help="image prefix or .bin")
    p.add_argument("--out", required=True)
    p.add_argument("--base", type=_hex, default=image_mod.DEFAULT_BASE,
                   help="load address of the image (hex)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("harden", help="pad, seal, and rotation-enable a corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--key", help=f"16-bit hex key (default ${KEY_ENV})")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--rotate", choices=("on", "off"), default="off")
    p.add_argument("--encrypt-push", dest="encrypt_push", choices=("on", "off"),
                   default="off")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_harden)

    p = sub.add_parser("eval", help="join attack output with ground truth")
    p.add_argument("--plain", required=True, help="pre-transform corpus prefix")
    p.add_argument("--image", required=True, help="transformed image prefix")
    p.add_argument("--attack", required=True, help="attack output prefix")
    p.add_argument("--out", required=True)
    p.add_argument("--key", help=f"16-bit hex key (default ${KEY_ENV})")
    p.add_argument("--equivalence-runs", type=int, default=40)
    p.add_argument("--rotation-seeds", type=int, default=50)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_eval)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one argparse tree, built on the first ``main`` call.

    Parsing keeps no state in the tree (each call fills a fresh namespace),
    so in-process callers that run many commands build it only once.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ImageError, RewriteError, ObfuscationError, AttackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
