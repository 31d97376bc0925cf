"""Benchmark of the orlicz-dynamics command line, run in-process.

    python3 bench/run.py --workload criteria-lab --seed 1 --seconds 45 --trace 0

Writes the workload's seeded configs and vectors into a work directory,
then runs its command list through ``orlicz_dynamics.cli.main`` as a
closed loop: one client, one process, one thread, one command at a time.
A warm-up pass checks every output against its oracle and records the
determinism hashes; each timed pass after it must reproduce them.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-module metrics of
``tracing.py`` plus ``trace.overhead_s``.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  A fuller record
(machine, noise, input sizes, hashes, per-kind times) goes to
``bench/results/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
KINDS = ("check", "simulate", "norm", "probe-young")
MIN_PASSES = 3


@dataclass
class Outcome:
    """What one command did in one pass."""

    exit: int | None
    seconds: float
    status: str  # ok | known_defect | failed
    determinism_hash: str | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def kind_s(self, cmds, kind: str) -> float:
        return sum(o.seconds for c, o in zip(cmds, self.outcomes) if c.kind == kind)


class Runner:
    """Runs a workload's command list in the work directory."""

    def __init__(self, workload, cli_main):
        self.workload = workload
        self.cli_main = cli_main
        self.reference: list[str | None] | None = None
        self.wrong: set[int] = set()  # commands whose warm-up output failed its check

    def run_pass(self, tracer: tracing.Tracer | None = None) -> Pass:
        outcomes = []
        for i, cmd in enumerate(self.workload.commands):
            out = Path(cmd.label + ".out.json")
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.request = i
            err = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    code = self.cli_main(cmd.argv())
            except Exception:  # a crash is a failed command, reported below
                code = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
            outcomes.append(self._judge(i, cmd, code, seconds, err.getvalue(), out))
        if self.reference is None:
            self.reference = [o.determinism_hash for o in outcomes]
            self.wrong = {i for i, o in enumerate(outcomes) if o.problems}
        return Pass(outcomes)

    def _judge(self, i, cmd, code, seconds, stderr, out: Path) -> Outcome:
        if code != cmd.expected_exit:
            if cmd.known_defect and code == 1 and cmd.known_defect in stderr:
                return Outcome(code, seconds, "known_defect")
            tail = stderr.strip().splitlines()[-1:] or [""]
            return Outcome(code, seconds, "failed", problems=[f"exit {code}, expected {cmd.expected_exit}: {tail[0]}"])
        report = json.loads(out.read_text())
        digest = report["determinism_hash"]
        if self.reference is None:
            problems = workloads.check_output(cmd, report)
        elif digest != self.reference[i]:
            problems = [f"determinism_hash {digest} differs from the warm-up pass {self.reference[i]}"]
        else:
            problems = []
        status = "failed" if problems or i in self.wrong else "ok"
        return Outcome(code, seconds, status, digest, problems)


def median_summary(samples: list[float], unit: str) -> dict:
    """Median with its sample count, plus the highest percentile that has
    at least ten samples beyond it when there are enough samples."""
    out = {"value": statistics.median(samples), "unit": unit, "samples": len(samples)}
    n = len(samples)
    if n >= 11:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = sorted(samples)[n - 11]
    return out


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import orlicz_dynamics
from orlicz_dynamics.config import load_config
for p in sys.argv[2:]:
    load_config(p)
print(time.perf_counter() - t0)
"""


def setup_once(config_paths: list[Path]) -> float:
    """Seconds for a fresh interpreter to import the package and load
    every config of the workload, measured inside the child."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, config_paths)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def steal_ticks() -> int | None:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop, to expose a slow host."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(numpy_version: str) -> dict:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
    }


def run_untraced(runner: Runner, seconds: float, configs: list[Path]) -> tuple[list[Pass], list[float]]:
    """Timed passes, each after one set-up in a fresh interpreter.  Spread
    over the whole run, set-up samples see the same host as the passes."""
    passes, setup = [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        setup.append(setup_once(configs))
        passes.append(runner.run_pass())
    return passes, setup


def run_traced(runner: Runner, seconds: float) -> tuple[list[Pass], list[Pass], list[tracing.Tracer]]:
    """Alternate untraced and traced passes, so drift hits both alike."""
    plain, traced, tracers = [], [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        plain.append(runner.run_pass())
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(runner.run_pass(tracer))
        tracers.append(tracer)
    return plain, traced, tracers


def per_layer(plain: list[Pass], traced: list[Pass], tracers: list[tracing.Tracer]) -> tuple[dict, list[str]]:
    problems = []
    first = tracers[0].exact_counts()
    for t in tracers[1:]:
        if t.exact_counts() != first:
            problems.append("exact counts differ between traced passes")
    per_pass = [t.metrics() for t in tracers]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {}
    for name, values in per_pass[0].items():
        if name.endswith("_s"):
            metrics[name] = median_summary([m[name] for m in per_pass], "s")
        else:
            metrics[name] = {"value": values, "unit": units[name]}
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": len(traced)}
    return metrics, problems


def write_spans(path: Path, tracers: list[tracing.Tracer]) -> None:
    with path.open("w") as fh:
        for k, t in enumerate(tracers):
            for req, name, start, end, parent in t.spans:
                fh.write(f'[{k},{req},"{name}",{start:.9f},{end:.9f},{parent}]\n')


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time after the warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    sys.path.insert(0, str(SRC))
    import numpy
    import orlicz_dynamics
    from orlicz_dynamics import cli

    if not Path(orlicz_dynamics.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"orlicz_dynamics imported from {orlicz_dynamics.__file__}, not from {SRC}")
    return cli.main, numpy.__version__


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; return its results record and, when traced, the
    tracers of the traced passes."""
    cli_main, numpy_version = import_package()
    steal0, calib0 = steal_ticks(), calibration_s()
    workload = workloads.build(name, seed, ROOT / "configs", scale)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / ".work"))
    cwd = Path.cwd()
    metrics, problems, tracers = {}, [], []
    try:
        workload.write(work)
        configs = [work / c for c in workload.config_files()]
        setup_once(configs)  # writes the bytecode caches
        os.chdir(work)
        runner = Runner(workload, cli_main)
        warm = runner.run_pass()
        if trace:
            # Every pass is held to the warm-up pass's hashes, so traced
            # hashes that differ from untraced ones show as problems.
            plain, measured, tracers = run_traced(runner, seconds)
            layer, problems = per_layer(plain, measured, tracers)
            metrics.update(layer)
            passes = plain + measured
        else:
            passes, setup = run_untraced(runner, seconds, configs)
            metrics["setup_s"] = median_summary(setup, "s")
            metrics["wall_s"] = median_summary([p.wall_s for p in passes], "s")
            cmds = workload.commands
            for kind in KINDS:
                if any(c.kind == kind for c in cmds):
                    key = kind.replace("-", "_")
                    metrics[f"{key}_s"] = median_summary([p.kind_s(cmds, kind) for p in passes], "s")
                    latencies = [o.seconds for p in passes for c, o in zip(cmds, p.outcomes) if c.kind == kind]
                    metrics[f"{key}_command_s"] = median_summary(latencies, "s")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    problems = [msg for p in (warm, *passes) for o in p.outcomes for msg in o.problems] + problems
    # The warm-up pass checks outputs; only timed passes count as attempted.
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(o.status != "ok" for p in passes for o in p.outcomes)
    if not trace:
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    steal1 = steal_ticks()
    record = {
        "workload": name,
        "seed": seed,
        "why": workload.why,
        "trace": int(trace),
        "seconds": seconds,
        "input_sizes": workload.sizes,
        "input_sha256": hashlib.sha256(b"".join(workload.files[k] for k in sorted(workload.files))).hexdigest(),
        "machine": machine(numpy_version),
        "noise": {
            "steal_s": (steal1 - steal0) / os.sysconf("SC_CLK_TCK") if None not in (steal0, steal1) else None,
            "calibration_s": [calib0, calibration_s()],
        },
        "commands": [
            {"label": c.label, "kind": c.kind, "expected_exit": c.expected_exit, "exit": o.exit,
             "status": o.status, "determinism_hash": o.determinism_hash, "problems": o.problems}
            for c, o in zip(workload.commands, warm.outcomes)
        ],
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
    return record, tracers


def contract_metrics(record: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if record["trace"] else "end_to_end"]]
    return {n: {"value": record["metrics"][n]["value"], "unit": record["metrics"][n]["unit"]} for n in names}


def main(argv=None) -> int:
    args = parse_args(argv)
    record, tracers = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracers:
        # One spans file per workload, replaced by each traced run: a
        # pass can hold a quarter of a million spans.
        write_spans(RESULTS / f"BENCH_{args.workload}.spans.jsonl", tracers)
    for name, m in record["metrics"].items():
        extra = "".join(f" {k}={v:.6g}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{extra}")
    for msg in record["problems"]:
        print(f"problem: {msg}")
    print(f"results: {RESULTS / (stem + '.json')}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": contract_metrics(record),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
