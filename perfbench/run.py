"""retobf benchmark: times the CLI stages in-process on fixed-seed workloads
and checks every output.

    python3 perfbench/run.py --workload obf-large --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics and the
tracing overhead.  ``--workload all`` runs every workload in turn, each in
its own process.  The last line of standard output is one JSON object.
Run it from anywhere inside a checkout; it imports ``retobf`` from the
checkout's ``src`` and writes only under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import mean, median
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402
from perfbench.workloads import IMAGE_BASE, WORKLOADS  # noqa: E402

OUT_DIR = Path(".perfbench_out")
#: Before every pass, set-up repeats at least this often and for at least
#: this long, so that its samples spread over the whole run; the smaller
#: set-ups take ~50 ms.
SETUP_REPEATS = 2
SETUP_SECONDS = 0.3
STAGE_METRICS = ("obfuscate", "harden", "init", "attack", "eval")


def load_library():
    """Import retobf from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "retobf" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'retobf'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"retobf.{name}")
           for name in ("isa", "image", "machine", "attack", "cli")}
    )
    if Path(lib.cli.__file__).resolve().parent != (src / "retobf").resolve():
        sys.exit(f"perfbench: imported retobf from {lib.cli.__file__}, not {src}")
    return lib


class Stages:
    """Runs CLI commands in-process for one pass and records stage times,
    operations attempted and failed, and failure kinds."""

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.times: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed: Counter = Counter()
        self.unexpected: list[str] = []
        self.errors: dict = {}

    def run(self, argv, metric, *, fault=None, traced=True, label=None) -> float:
        """Run one command and return its wall time.  A failure that
        ``fault`` names is a known fault; any other failure is unexpected."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        error = None
        paused = self.tracer is not None and not traced
        if paused:
            self.tracer.paused = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is not None and traced:
                    with self.tracer.span(f"cli.{argv[0]}"):
                        rc = self.cli_main(argv)
                else:
                    rc = self.cli_main(argv)
            if rc != 0:
                error = ("exit", err.getvalue().strip())
        except Exception as exc:  # the CLI lets some library errors escape
            error = (type(exc).__name__, str(exc))
        finally:
            elapsed = time.perf_counter() - t0
            if paused:
                self.tracer.paused = False
        if metric is not None:
            self.times[metric] += elapsed
        if error is not None:
            self.errors[label if label is not None else argv[0]] = error
            kind = fault(error) if fault is not None else None
            self.failed[kind or error[0]] += 1
            if kind is None:
                self.unexpected.append(f"{' '.join(argv)}: {error[0]}: {error[1]}")
        return elapsed


def quiet_cli(cli_main):
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command failed: {' '.join(argv)}")
    return run


def tree_digest(path: Path) -> tuple[str, int]:
    """Combined sha256 over every file under ``path`` (name and bytes), and
    their total size."""
    h = hashlib.sha256()
    size = 0
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        h.update(str(file.relative_to(path)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
        size += len(data)
    return h.hexdigest(), size


class Run:
    """State shared by the passes of one run."""

    def __init__(self, workload, lib, seed: int):
        self.workload = workload
        self.lib = lib
        self.seed = seed
        self.dir = OUT_DIR / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.problems: list[str] = []
        self.input_digest = None
        self.artifact_digest = None
        self.artifact_bytes = 0
        self.reproduced = True
        self.passes: list[Stages] = []
        self.checked = False

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.workload.setup(quiet_cli(self.lib.cli.main), self.dir, self.seed)
        elapsed = time.perf_counter() - t0
        digest, _ = tree_digest(self.dir / "in")
        if self.input_digest is None:
            self.input_digest = digest
        elif digest != self.input_digest:
            self.problems.append("set-up is not deterministic: inputs differ")
        return elapsed

    def one_pass(self, tracer=None) -> float:
        """Run one pass; returns its pipeline time (the sum of its timed
        stages)."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        (self.dir / "out").mkdir(parents=True)
        stages = Stages(self.lib.cli.main, tracer)
        self.workload.run_pass(stages, self.dir)
        self.passes.append(stages)
        self.problems += [f"unexpected failure: {u}" for u in stages.unexpected]
        digest, size = tree_digest(self.dir / "out")
        if self.artifact_digest is None:
            self.artifact_digest, self.artifact_bytes = digest, size
        elif digest != self.artifact_digest:
            self.reproduced = False
            self.problems.append(
                f"pass {len(self.passes)} artifacts differ from the first pass"
            )
        if not self.checked and tracer is None:
            self.checked = True
            self.problems += self.workload.check(self.dir, self.lib, stages.errors)
        return sum(stages.times.values())

    def result(self, metrics: dict) -> dict:
        attempted = sum(s.attempted for s in self.passes)
        failed = sum(sum(s.failed.values()) for s in self.passes)
        kinds = Counter()
        for s in self.passes:
            kinds.update(s.failed)
        if not self.checked:
            self.problems.append("outputs were never checked")
        print(f"workload {self.workload.name} seed {self.seed}: {len(self.passes)} pass(es)")
        print(f"artifacts sha256 {self.artifact_digest} ({self.artifact_bytes} bytes), "
              f"identical in every pass: {self.reproduced}")
        print(f"operations attempted {attempted}, failed {failed} {dict(kinds)}")
        for problem in self.problems[:20]:
            print(f"PROBLEM {problem}")
        for name, metric in metrics.items():
            print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
        return {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }


def stage_medians(passes: list[Stages]) -> dict[str, float]:
    return {
        stage: median(s.times.get(stage, 0.0) for s in passes) for stage in STAGE_METRICS
    }


def run_untraced(run: Run, seconds: float) -> dict:
    setup_times = []
    deadline = time.perf_counter() + seconds
    while len(run.passes) < 2 or time.perf_counter() < deadline:
        batch = []
        while len(batch) < SETUP_REPEATS or sum(batch) < SETUP_SECONDS:
            batch.append(run.setup())
        setup_times += batch
        run.one_pass()
    print(f"set-up repeated {len(setup_times)} times")
    timed = run.passes[1:]  # the first pass warms the process up
    stages = stage_medians(timed)
    for stage, value in stages.items():
        print(f"stage {stage}_s median {value:.6g} s")
    pipelines = [sum(s.times.values()) for s in timed]
    print("pass pipeline times " + " ".join(f"{t:.4f}" for t in pipelines))
    # Means, not medians: on the 2-core machine of the reference figures,
    # core speed switches between two levels for seconds at a time, and the
    # median of a run's samples jumps between them (ten-seed quartile
    # spread up to 33 % against 17 % for the mean).
    pipeline = mean(pipelines)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": mean(setup_times),
        "pipeline_s": pipeline,
        "artifact_bytes": run.artifact_bytes,
        "peak_rss_mb": peak,
    }
    units = spec_units("end_to_end")
    return run.result({k: {"value": values[k], "unit": units[k]} for k in units})


def run_traced(run: Run, seconds: float) -> dict:
    tracer = spans.Tracer()
    rounds: list[list] = []
    layer_rounds: list[dict] = []
    times = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    untraced_passes = []
    index = 0
    # Round 0 warms the process up and is left out; then traced and
    # untraced rounds alternate.
    while index < 3 or time.perf_counter() < deadline:
        traced = index % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            with tracer.span("setup") if traced else contextlib.nullcontext():
                run.setup()
            pipeline = run.one_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if index > 0:
            times[traced].append(pipeline)
        if traced:
            values = spans.layer_metrics(tracer)
            values.update(spans.codec_rates(run.lib.isa, run.workload.images(run.dir),
                                            IMAGE_BASE))
            values["trace.spans"] = len(tracer.spans)
            layer_rounds.append(values)
            rounds.append(tracer.spans)
        elif index > 0:
            untraced_passes.append(run.passes[-1])
        index += 1
    tracer.write(run.dir / "spans.jsonl", rounds)

    metrics = {name: median(r[name] for r in layer_rounds) for name in layer_rounds[0]}
    stages = stage_medians(untraced_passes)
    for stage, value in stages.items():
        metrics[f"cli.{stage}_s"] = value
    metrics.update(run.workload.sizes(run.dir))
    plain, traced_t = median(times[False]), median(times[True])
    metrics["trace.overhead_s"] = traced_t - plain
    metrics["trace.overhead_pct"] = 100 * (traced_t - plain) / plain
    print(f"untraced pass {plain:.6g} s, traced pass {traced_t:.6g} s, "
          f"overhead {traced_t - plain:.6g} s ({metrics['trace.overhead_pct']:.3g} %)")
    units = spec_units("per_layer")
    return run.result({k: {"value": metrics[k], "unit": units[k]} for k in units})


def spec_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Run every workload in its own process and print a combined summary."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    lib = load_library()
    run = Run(WORKLOADS[args.workload](), lib, args.seed)
    result = run_traced(run, args.seconds) if args.trace else run_untraced(run, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
