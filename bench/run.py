"""tough2f benchmark: one workload per run, one caller, one core.

Usage, from the repository root:

    python3 bench/run.py --workload hunt-shared --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

The run builds its inputs from the seed, then issues passes of outside
calls for about ``--seconds`` seconds (at least ``Sizes.min_passes``
passes), checking every answer. The import and set-up are timed several
times across the run. With ``--trace 0`` it reports the end-to-end
metrics, scaled to a nominal host speed (see reference.py); with
``--trace 1`` it alternates untraced and traced passes and reports
per-layer metrics from the traced ones. The last line of stdout is one
JSON object: correct, attempted, failed, metrics. The exit code is 1 when
any answer was wrong and 2 when the package is missing. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
WORKLOAD_NAMES = ("hunt-shared", "hunt-cli", "instances", "certify")
SETUP_FIRST = 3      # set-up samples before the first pass
SETUP_BETWEEN = 2    # set-up samples before each later pass
TAIL_BEYOND = 10


def import_package() -> None:
    """Import tough2f from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tough2f.cli  # noqa: F401  (loads every layer module)
    if Path(tough2f.__file__).resolve().parent != SRC / "tough2f":
        raise ImportError(f"tough2f was imported from {tough2f.__file__}, "
                          f"not from {SRC}")


def package_modules() -> list:
    return [m for m in sys.modules if m == "tough2f" or m.startswith("tough2f.")]


def fresh_import_s() -> float:
    """Time one fresh import of the whole package, then put back the
    modules the benchmark already holds, so every caller keeps seeing the
    same module objects."""
    held = {name: sys.modules.pop(name) for name in package_modules()}
    try:
        start = perf_counter()
        import tough2f.cli  # noqa: F401
        return perf_counter() - start
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(held)


class SetupClock:
    """Set-up time: a fresh import of the package plus the workload's
    set-up (corpus generation, file writing, instance building), sampled
    several times across the run, each part scaled to the nominal host
    speed like the calls of the passes. ``seconds`` is the median import
    plus the median set-up."""

    def __init__(self, setup, args, sizes, rundir: Path, in_process: bool):
        self.make = lambda workdir: setup(args.seed, sizes, workdir, in_process)
        self.rundir = rundir
        self.imports: list = []
        self.setups: list = []

    def sample(self, keep: bool = False):
        """One timed import and one timed set-up. Returns the inputs; their
        files are removed unless ``keep``."""
        workdir = self.rundir / f"setup-{len(self.setups)}"
        workdir.mkdir(parents=True)
        before = reference.sample()
        import_s = fresh_import_s()
        middle = reference.sample()
        start = perf_counter()
        inputs = self.make(workdir)
        setup_s = perf_counter() - start
        after = reference.sample()
        self.imports.append(reference.scale(import_s, before, middle))
        self.setups.append(reference.scale(setup_s, middle, after))
        if not keep:
            shutil.rmtree(workdir)
        return inputs

    @property
    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.setups)


def pin_to_one_cpu() -> tuple:
    """Keep the run, its kernel samples and its CLI children on one CPU, so
    that the kernel reads the speed of the CPU the calls run on. Returns
    (CPUs usable before, the CPU kept)."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus), min(cpus)


def tail_percentile(calls: int) -> int:
    """The highest whole percentile that leaves at least TAIL_BEYOND of a
    pass's ``calls`` beyond it (the median when none does). A workload's
    calls are fixed, so every run reports the same percentile."""
    return max(50, 100 * (calls - TAIL_BEYOND) // calls)


def provenance(args, inputs, cpus) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=30)
        git_commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tough2f").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpus_usable": cpus[0], "pinned_cpu": cpus[1],
            "git_commit": git_commit, "src_sha256": digest.hexdigest(),
            "op": inputs.op, "corpus": inputs.corpus}


@dataclass
class PassResult:
    wall: float       # seconds spent in the calls
    durations: list   # seconds per call, in call order
    kernel: list      # reference-kernel seconds before each call and after
                      # the last one (empty when not sampled)
    ops: int
    failed: int
    errors: list      # one line per call with failed ops


def run_pass(inputs, tracer=None, speed: bool = False) -> PassResult:
    """Issue one pass of calls one after another, then check every answer.
    With ``speed``, a reference-kernel sample is taken between calls."""
    calls = inputs.make_pass()
    outcomes = []
    durations = []
    kernel = [reference.sample()] if speed else []
    for call in calls:
        t = perf_counter()
        try:
            if tracer is None:
                outcomes.append((call.run(), None))
            else:
                with tracer.span(call.label):
                    outcomes.append((call.run(), None))
        except Exception as exc:  # a failed op, counted and reported below
            outcomes.append((None, exc))
        durations.append(perf_counter() - t)
        if speed:
            kernel.append(reference.sample())
    seen = {call.label: result
            for call, (result, error) in zip(calls, outcomes) if error is None}
    failed = 0
    errors = []
    for call, (result, error) in zip(calls, outcomes):
        if error is None:
            try:
                bad = call.check(result, seen)
            except Exception as exc:  # a malformed answer fails the check
                bad, error = call.ops, exc
        else:
            bad = call.ops
        if bad:
            failed += min(bad, call.ops)
            errors.append(f"{call.label}: {bad} of {call.ops} ops failed"
                          + (f" ({type(error).__name__}: {error})"
                             if error is not None else ""))
    return PassResult(sum(durations), durations, kernel,
                      sum(c.ops for c in calls), failed, errors)


def timed_passes(inputs, seconds: float, clock: SetupClock) -> list:
    """At least ``inputs.min_passes`` passes, then more until the next one
    would end after ``seconds``. Set-up is sampled between passes, outside
    their timing."""
    passes = []
    start = perf_counter()
    while True:
        if passes:
            for _ in range(SETUP_BETWEEN):
                clock.sample()
        passes.append(run_pass(inputs, speed=True))
        elapsed = perf_counter() - start
        if (len(passes) >= inputs.min_passes
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            return passes


def traced_rounds(inputs, seconds: float, tracer) -> list:
    """Rounds of (untraced pass, traced pass) until the next round would
    end after ``seconds``; each traced pass records the span index range."""
    rounds = []
    start = perf_counter()
    while True:
        plain = run_pass(inputs)
        first = len(tracer.spans)
        with tracer:
            traced = run_pass(inputs, tracer)
        rounds.append((plain, traced, first, len(tracer.spans)))
        elapsed = perf_counter() - start
        if elapsed + plain.wall + traced.wall > seconds:
            return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, clock: SetupClock, inputs) -> dict:
    """Every pass issues the same calls in the same order. Each call's
    duration is scaled to the nominal host speed by the kernel samples on
    either side of it (see reference.py), and the call's time is the median
    of its scaled durations across the passes. The pass time and the call
    percentiles use these per-call times; the raw pass times are printed."""
    per_call = [statistics.median(
                    reference.scale(p.durations[i], p.kernel[i], p.kernel[i + 1])
                    for p in passes)
                for i in range(len(passes[0].durations))]
    wall = sum(per_call)
    p_tail = tail_percentile(len(per_call))
    tail = statistics.quantiles(per_call, n=100, method="inclusive")[p_tail - 1]
    beyond = sum(1 for d in per_call if d > tail)
    who = resource.RUSAGE_CHILDREN if inputs.children_rss \
        else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB
    raw_wall = statistics.median(p.wall for p in passes)
    kernel_s = statistics.median(k for p in passes for k in p.kernel)
    print(f"passes {len(passes)}, {len(per_call)} calls and "
          f"{passes[0].ops} ops each (an op is {inputs.op})")
    print(f"raw: median pass {raw_wall:.6g} s, {passes[0].ops / raw_wall:.6g} "
          f"ops/s; reference kernel {kernel_s * 1000:.4g} ms (nominal "
          f"{reference.NOMINAL_S * 1000:.4g} ms)")
    print(f"setup_s is the median of {len(clock.imports)} imports plus the "
          f"median of {len(clock.setups)} set-ups")
    print(f"call_tail_ms is p{p_tail} of {len(per_call)} calls, "
          f"{beyond} beyond it")
    if beyond < TAIL_BEYOND:
        print(f"warning: fewer than {TAIL_BEYOND} calls beyond p{p_tail}")
    return {
        "setup_s": metric(clock.seconds, "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(passes[0].ops / wall, "1/s"),
        "call_p50_ms": metric(statistics.median(per_call) * 1000, "ms"),
        "call_tail_ms": metric(tail * 1000, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def per_layer(rounds, tracer, inputs) -> dict:
    from tracing import LAYER_NAMES
    per_round = [tracer.layer_totals(first, last)
                 for _, _, first, last in rounds]
    calls = {name: row[0] for name, row in per_round[0].items()}
    if any({n: r[0] for n, r in t.items()} != calls for t in per_round[1:]):
        print("warning: layer call counts differ between traced passes")
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = metric(calls[name], "count")
        for col, key in ((1, "total_s"), (2, "self_s")):
            out[f"{name}.{key}"] = metric(statistics.median(
                t[name][col] for t in per_round) / 1e9, "s")
    out["invariants.is_t_tough.calls_per_graph"] = metric(
        calls["invariants.is_t_tough"] / inputs.graphs_per_pass, "calls/graph")
    out["trace.overhead_ratio"] = metric(statistics.median(
        traced.wall / plain.wall for plain, traced, _, _ in rounds), "ratio")
    print(f"rounds {len(rounds)} (untraced pass, traced pass), "
          f"{len(tracer.spans)} spans")
    return out


def run_workload(args, sizes=None) -> int:
    if not (SRC / "tough2f" / "__init__.py").is_file():
        print(f"error: no tough2f package under {SRC}", file=sys.stderr)
        return 2
    import_package()
    cpus = pin_to_one_cpu()
    from tracing import Tracer
    from workloads import WORKLOADS, Sizes
    sizes = sizes or Sizes()
    setup = WORKLOADS[args.workload]
    in_process = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    rundir = OUT / f"run-{os.getpid()}"
    try:
        clock = SetupClock(setup, args, sizes, rundir, in_process)
        inputs = clock.sample(keep=True)  # the inputs of the timed phase
        for _ in range(SETUP_FIRST - 1):
            clock.sample()
        if args.trace:
            tracer = Tracer()
            rounds = traced_rounds(inputs, args.seconds, tracer)
            passes = [p for plain, traced, _, _ in rounds
                      for p in (plain, traced)]
            metrics = per_layer(rounds, tracer, inputs)
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            passes = timed_passes(inputs, args.seconds, clock)
            metrics = end_to_end(passes, clock, inputs)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print("provenance " + json.dumps(provenance(args, inputs, cpus)))
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    for message in [e for p in passes for e in p.errors][:20]:
        print("failure: " + message)
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
          f"ops)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory stays apart."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        print(f"== {name}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            summary["metrics"][f"{name}/{metric_name}"] = m
    print(json.dumps(summary))
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, sizes)


if __name__ == "__main__":
    sys.exit(main())
