"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import io
import json
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402

run.import_package()

from tracing import Tracer, patched  # noqa: E402
from workloads import Sizes  # noqa: E402
from tough2f import barriers, invariants  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def bench(workload, trace=0, seed=5):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)],
                        sizes=Sizes.tiny())
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_workload_names_match_the_runner():
    assert WORKLOADS == run.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    code, result, lines = bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    provenance = json.loads(next(line for line in lines
                                 if line.startswith("provenance "))[11:])
    assert provenance["seed"] == 5 and provenance["python"]
    assert provenance["corpus"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_call_counts_repeat(workload):
    counts = []
    for _ in range(2):
        _, result, _ = bench(workload, trace=1, seed=7)
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if name.endswith(".calls")})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", ("hunt-shared", "hunt-cli"))
def test_hunts_never_reach_barriers(workload):
    _, result, _ = bench(workload, trace=1)
    calls = {name: m["value"] for name, m in result["metrics"].items()
             if name.endswith(".calls")}
    assert calls["theorems.hunt.calls"] > 0
    assert all(value == 0 for name, value in calls.items()
               if name.startswith("barriers."))


def flip(original):
    def wrong(*args, **kwargs):
        return not original(*args, **kwargs)
    return wrong


def toughness_plus_one(original):
    def wrong(g):
        result = original(g)
        return type(result)(result.value + 1, result.witness)
    return wrong


def biased_barrier_without_b(original):
    def wrong(g):
        b = original(g)
        return barriers.Barrier(b.a, frozenset(), b.deficiency)
    return wrong


# (workload, trace, module, function, wrapper): hunt-cli runs the console
# entry point in-process only when traced, so only then can it be patched
FAULTS = (
    ("hunt-shared", 0, "invariants", "is_t_tough", flip),
    ("hunt-cli", 1, "invariants", "is_t_tough", flip),
    ("instances", 0, "invariants", "toughness", toughness_plus_one),
    ("certify", 0, "barriers", "find_biased_barrier", biased_barrier_without_b),
)


@pytest.mark.parametrize("workload, trace, module, function, wrapper", FAULTS)
def test_wrong_answer_is_counted(workload, trace, module, function, wrapper):
    layer = {"invariants": invariants, "barriers": barriers}[module]
    original = getattr(layer, function)
    with patched(module, function, wrapper):
        code, result, lines = bench(workload, trace)
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    ratio = next(line for line in lines if line.startswith("failed_ratio"))
    assert float(ratio.split()[2]) > 0
    assert getattr(layer, function) is original


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("invariants.toughness"):
        with tracer.span("matching.max_matching"):
            sum(range(20000))
        sum(range(20000))
    totals = tracer.layer_totals(0, len(tracer.spans))
    calls, total, own = totals["invariants.toughness"]
    child = totals["matching.max_matching"][1]
    assert calls == 1 and totals["matching.max_matching"][0] == 1
    assert own == total - child and 0 < own < total


@pytest.mark.parametrize("calls, percentile",
                         ((185, 94), (47, 78), (34, 70), (26, 61), (14, 50)))
def test_tail_percentile_leaves_ten_samples_beyond(calls, percentile):
    """The call counts of one pass of each workload, and one too small for
    any tail."""
    assert run.tail_percentile(calls) == percentile
    if percentile > 50:
        xs = list(range(calls))
        tail = statistics.quantiles(xs, n=100, method="inclusive")[percentile - 1]
        assert sum(1 for x in xs if x > tail) >= run.TAIL_BEYOND


def test_reference_scale():
    nominal = reference.NOMINAL_S
    assert reference.scale(0.5, nominal, nominal) == pytest.approx(0.5)
    # a host running the kernel at half speed doubles the raw time
    assert reference.scale(1.0, 2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert reference.scale(0.3, nominal, 2 * nominal) == pytest.approx(0.2)


def test_reference_sample_restores_the_collector():
    import gc
    assert gc.isenabled()
    assert reference.sample() > 0
    assert gc.isenabled()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
