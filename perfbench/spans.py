"""Span tracer that wraps the library's public functions from outside.

The tracer patches module attributes in place: every attribute of a
``retobf`` module that is one of the target functions (including the names
``cli`` and the other layers bound with ``from ... import``) is replaced by
a wrapper that records a span (name, start, end, parent).  Spans stay in
memory; ``write`` stores them when the run ends.  Counts that belong to a
boundary (bytes scanned, sites located, interpreter steps) are taken from
the wrapped call's arguments and result, after its end time is read.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from statistics import median

#: Layer -> traced functions ("Class.method" for methods).  isa.decode and
#: isa.encode run per halfword; wrapping them would swamp every other span,
#: so the codec is measured by a separate sweep instead (see ``codec_rates``).
TARGETS = {
    "image": ("generate_corpus", "save", "load", "remap_manifest"),
    "_rewrite": ("lift", "Program.layout"),
    "obfuscation": (
        "obfuscate_returns",
        "build_table",
        "scan_trampolines",
        "sweep_plaintext",
        "trampoline_data_ranges",
    ),
    "attack": (
        "run_attack",
        "find_trampolines",
        "recover_by_symmetry",
        "recover_by_liveness",
        "build_gadget_catalog",
        "baseline_gadget_scan",
        "evaluate_recovery",
    ),
    "harden": (
        "harden",
        "pad_corpus",
        "encrypt_pushes",
        "build_rotated_table",
        "position_distribution",
    ),
    "machine": ("call", "check_gadget", "make_state", "states_equivalent"),
}

PACKAGE = "retobf"
LAYERS = ("image", "_rewrite", "obfuscation", "attack", "harden", "machine", "cli")


class Tracer:
    """Records spans around calls into the library while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, error]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._states: list = []
        self._images: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        #: While set, wrappers call straight through and record nothing.
        self.paused = False

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS]
        originals = {}
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                func = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", func)
                originals[id(func)] = wrapper
                if owner_name:  # a method: patch the class only
                    self._patch(owner, attr, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            span[4] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str) -> list:
        """Append a span under the innermost open one and push it."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name: str, func):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return func(*args, **kwargs)
            span = tracer._open(name)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[4] = type(exc).__name__
                if observe is not None:
                    observe(tracer, args, None, exc)
                raise
            finally:
                tracer._stack.pop()
            span[2] = time.perf_counter()
            if observe is not None:
                observe(tracer, args, result, None)
            return result

        return wrapper

    def reset(self) -> None:
        """Forget spans and counts (between rounds); keeps patches."""
        self.spans = []
        self.counts = defaultdict(float)
        self._stack.clear()
        self._states.clear()
        self._images.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive total, self total, durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[i]
            entry["durations"].append(end - start)
        return out

    def write(self, path, rounds: list[list]) -> None:
        """Write the spans of every traced round as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, spans in enumerate(rounds):
                for span_id, (name, start, end, parent, error) in enumerate(spans):
                    fh.write(json.dumps({
                        "round": index, "id": span_id, "name": name,
                        "start": start, "end": end, "parent": parent,
                        "error": error,
                    }) + "\n")


# -- counts observed at boundaries -------------------------------------------


def _scan(tracer, args, result, exc):
    data = args[0]
    tracer.counts["scan_bytes"] += len(data)
    tracer._images.add(hash(bytes(data)))


def _sweep(tracer, args, result, exc):
    tracer.counts["sweep_bytes"] += len(args[0])


def _find(tracer, args, result, exc):
    if result is not None:
        tracer.counts["sites_located"] += len(result)


def _run_attack(tracer, args, result, exc):
    if result is not None:
        tracer.counts["gadget_candidates"] += len(result.catalog)
    elif exc is not None:
        tracer.counts["images_raised"] += 1


def _save(tracer, args, result, exc):
    if result is not None:
        tracer.counts["manifest_bytes"] += os.path.getsize(result[1])


def _make_state(tracer, args, result, exc):
    if result is not None:
        tracer._states.append(result)


def _steps(tracer) -> None:
    tracer.counts["steps"] += sum(state.step_count for state in tracer._states)
    tracer._states.clear()


def _call(tracer, args, result, exc):
    _steps(tracer)
    if exc is not None and type(exc).__name__ == "MachineFault":
        tracer.counts["faults"] += 1


def _check_gadget(tracer, args, result, exc):
    _steps(tracer)


def _rotated_table(tracer, args, result, exc):
    if result is None:
        return
    tracer.counts["table_used"] += sum(len(e.data) for e in result.entries)
    tracer.counts["table_reserved"] += sum(
        rec.capacity for rec in args[1].trampoline_records()
    )


_OBSERVERS = {
    "obfuscation.scan_trampolines": _scan,
    "obfuscation.sweep_plaintext": _sweep,
    "attack.find_trampolines": _find,
    "attack.run_attack": _run_attack,
    "image.save": _save,
    "machine.make_state": _make_state,
    "machine.call": _call,
    "machine.check_gadget": _check_gadget,
    "harden.build_rotated_table": _rotated_table,
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values for one traced round."""
    summary, counts, images = tracer.summary(), tracer.counts, len(tracer._images)

    def total(name):
        return summary.get(name, {}).get("total", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    self_time = defaultdict(float)
    for name, entry in summary.items():
        self_time[name.split(".")[0]] += entry["self"]

    call_durations = summary.get("machine.call", {}).get("durations", [])
    tables = calls("harden.build_rotated_table")
    steps_time = total("machine.call") + total("machine.check_gadget")
    out = {
        "image.generate_corpus_s": total("image.generate_corpus"),
        "image.save_s": total("image.save"),
        "image.load_s": total("image.load"),
        "image.manifest_bytes": counts.get("manifest_bytes", 0),
        "rewrite.lift_calls": calls("_rewrite.lift"),
        "rewrite.lift_s": total("_rewrite.lift"),
        "rewrite.layout_s": total("_rewrite.layout"),
        "obfuscation.obfuscate_returns_s": total("obfuscation.obfuscate_returns"),
        "obfuscation.build_table_s": total("obfuscation.build_table"),
        "obfuscation.sweep_plaintext_s": total("obfuscation.sweep_plaintext"),
        "obfuscation.sweep_bytes_per_s": rate(
            counts.get("sweep_bytes", 0), total("obfuscation.sweep_plaintext")
        ),
        "obfuscation.scan_bytes_per_s": rate(
            counts.get("scan_bytes", 0), total("obfuscation.scan_trampolines")
        ),
        "obfuscation.scan_trampolines_calls": (
            calls("obfuscation.scan_trampolines") / images if images else 0.0
        ),
        "attack.run_attack_s": total("attack.run_attack"),
        "attack.find_trampolines_s": total("attack.find_trampolines"),
        "attack.recover_by_symmetry_s": total("attack.recover_by_symmetry"),
        "attack.recover_by_liveness_s": total("attack.recover_by_liveness"),
        "attack.build_gadget_catalog_s": total("attack.build_gadget_catalog"),
        "attack.baseline_gadget_scan_s": total("attack.baseline_gadget_scan"),
        "attack.evaluate_recovery_s": total("attack.evaluate_recovery"),
        "attack.sites_located": counts.get("sites_located", 0),
        "attack.gadget_candidates": counts.get("gadget_candidates", 0),
        "attack.images_raised": counts.get("images_raised", 0),
        "harden.harden_s": total("harden.harden"),
        "harden.pad_corpus_s": total("harden.pad_corpus"),
        "harden.encrypt_pushes_s": total("harden.encrypt_pushes"),
        "harden.position_distribution_s": total("harden.position_distribution"),
        "harden.build_rotated_table_s": (
            total("harden.build_rotated_table") / tables if tables else 0.0
        ),
        "harden.tables_built": tables,
        "harden.table_fill": (
            counts["table_used"] / counts["table_reserved"]
            if counts.get("table_reserved") else 0.0
        ),
        "machine.calls": calls("machine.call"),
        "machine.steps": counts.get("steps", 0),
        "machine.check_gadget_calls": calls("machine.check_gadget"),
        "machine.faults": counts.get("faults", 0),
        "machine.calls_per_s": rate(calls("machine.call"), total("machine.call")),
        "machine.steps_per_s": rate(counts.get("steps", 0), steps_time),
        "machine.check_gadget_per_s": rate(
            calls("machine.check_gadget"), total("machine.check_gadget")
        ),
        "machine.call_s": median(call_durations) if call_durations else 0.0,
        "machine.make_state_s": total("machine.make_state"),
    }
    for layer in LAYERS:
        # Metric names start with a letter: _rewrite reports as rewrite.
        out[f"{layer.lstrip('_')}.self_s"] = self_time.get(layer, 0.0)
    return out


def codec_rates(isa, images: list[bytes], base: int) -> dict[str, float]:
    """Decode every halfword offset of ``images`` and re-encode every
    instruction of a linear sweep over them; returns per-second rates."""
    decode, encode = isa.decode, isa.encode
    halfwords = 0
    swept = []
    t0 = time.perf_counter()
    for data in images:
        for off in range(0, len(data) - 1, 2):
            try:
                decode(data, off, base + off)
            except isa.TruncatedStreamError:
                pass
            halfwords += 1
    decode_s = time.perf_counter() - t0
    for data in images:
        off = 0
        while off + 2 <= len(data):
            try:
                insn, length = decode(data, off, base + off)
            except isa.TruncatedStreamError:
                break
            if not isinstance(insn, (isa.Unknown, isa.RawWord)):
                swept.append((insn, base + off))
            off += length
    encoded = 0
    t0 = time.perf_counter()
    for insn, addr in swept:
        try:
            encode(insn, address=addr)
        except isa.IsaError:
            continue
        encoded += 1
    encode_s = time.perf_counter() - t0
    return {
        "isa.decode_hw_per_s": halfwords / decode_s if decode_s > 0 else 0.0,
        "isa.encode_per_s": encoded / encode_s if encode_s > 0 else 0.0,
    }
