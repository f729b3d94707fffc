"""The benchmark's workloads: seeded inputs, outside calls and their checks.

A workload's set-up builds its inputs from the seed. Its inputs are split
into passes; a pass is a fixed list of outside calls that one caller issues
one after another (a closed loop). Each call carries a check that counts the
ops it got wrong. The checks use no stored answers: they confirm each
result with a separate, simpler test (a certificate recheck, or a
consistency relation between two answers).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tough2f import barriers, cli, families, graphs, invariants, matching, theorems
from tough2f.families import FamilySpec
from tough2f.graphs import Graph, GraphError
from tough2f.rationals import Rational

ROOT = Path(__file__).resolve().parent.parent
HUNT_ORDERS = (8, 9, 10, 11)
CLI_TIMEOUT_S = 150


@dataclass
class Sizes:
    """How much input each workload gets. Tests use ``Sizes.tiny()``."""
    hunt_graphs: int = 800
    hunt_chunk: int = 100       # graphs per hunt call
    cli_graphs: int = 120       # a prefix of the hunt corpus
    cli_files: int = 2          # graph6 files it is split into
    certify_mix: tuple = ((8, 10), (9, 8), (10, 4), (11, 2))  # (order, graphs)
    certify_candidates: int = 240  # graphs drawn and tested at least
    certify_families: tuple = ("H:n=1", "H:n=2")
    instances: tuple = ("H:n=1", "H:n=2", "H:n=3", "R:m=1,a=2,b=1,c=3",
                        "R:m=2,a=2,b=1,c=3", "Gprime:n=1,k=1", "G:n=1,k=1",
                        "Gstar:n=1,k=1", "Ghat:n=1,k=1", "Ghat:n=2,k=1",
                        "Ghat:n=2,k=2")
    min_passes: int = 3

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(hunt_graphs=8, hunt_chunk=4, cli_graphs=4, cli_files=2,
                   certify_mix=((8, 1), (9, 1), (10, 1), (11, 1)),
                   certify_candidates=20,
                   certify_families=("H:n=1",),
                   instances=("H:n=1", "H:n=2", "R:m=1,a=2,b=1,c=3",
                              "Ghat:n=1,k=1"),
                   min_passes=1)


@dataclass
class Call:
    """One outside call. ``run`` is timed; ``check(result, seen)`` returns
    how many of the call's ``ops`` failed, where ``seen`` maps the label of
    every call of the pass that returned to its result."""
    label: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object, dict], int]


@dataclass
class Inputs:
    """What a workload's set-up hands to the timed phase."""
    op: str                       # what one op is
    make_pass: Callable[[], list]  # fresh list of Calls for one pass
    graphs_per_pass: int
    corpus: dict                  # provenance: size and order mix
    min_passes: int
    children_rss: bool = False    # the program runs in child processes


# Seeded graphs ----------------------------------------------------------------

def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """G(n, p) with p uniform in [0.2, 0.7], redrawn until connected (the
    acceptance suite's criterion-5 generator)."""
    while True:
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        if g.is_connected():
            return g


def hunt_corpus(seed: int, size: int) -> list:
    rng = random.Random(seed)
    return [random_connected_graph(rng, HUNT_ORDERS[i % 4])
            for i in range(size)]


def order_mix(gs) -> dict:
    mix: dict = {}
    for g in gs:
        mix[str(g.n)] = mix.get(str(g.n), 0) + 1
    return dict(sorted(mix.items(), key=lambda kv: int(kv[0])))


def hunt_grid() -> list:
    """The 23 theorem configurations of acceptance criterion 5."""
    make = theorems.make_theorem
    specs = [make("THM2", eps=eps)
             for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1))]
    specs += [make("THM3i", ell=ell, k=k) for ell in (1, 2) for k in (1, 2)]
    specs += [make("THM3ii", k=k) for k in (1, 2)]
    specs += [make("THM4i", ell=ell, k=k) for ell in (2, 3) for k in (1, 2)]
    specs += [make("THM4ii", k=k) for k in (1, 2)]
    specs += [make("THM1i", t=t) for t in (Fraction(1), Fraction(5, 4),
                                           Fraction(3, 2), Fraction(7, 4))]
    specs += [make("THM1ii", t=t) for t in (Fraction(3, 2), Fraction(7, 4))]
    specs += [make("EJKS2"), make("NIESSEN")]
    return specs


def family_graph(text: str) -> Graph:
    return families.build(FamilySpec.parse(text)).graph


# Simple checks ------------------------------------------------------------------

def is_barrier(g: Graph, barrier) -> bool:
    return (barrier is not None
            and barriers.deficiency(g, barrier.a, barrier.b) <= -2)


def is_two_factor(g: Graph, edges) -> bool:
    degree = [0] * g.n
    for u, v in edges:
        if not g.has_edge(u, v):
            return False
        degree[u] += 1
        degree[v] += 1
    return g.n > 0 and all(d == 2 for d in degree)


def witness_holds(g: Graph, barrier, witness) -> bool:
    c = graphs.count_components(g, witness.w)
    return (c >= 2 and c == witness.component_count
            and witness.ratio == Rational(len(witness.w), c)
            and barrier.a <= witness.w)


def no_witness_applies(g: Graph, barrier) -> bool:
    """The construction needs max h >= 2 or an odd component with at least
    3 edges into B; without either, extract_witness refuses by design."""
    dec = barriers.decompose(g, barrier.a, barrier.b)
    big_odd = any(info.odd and info.edges_to_b >= 3 for info in dec.components)
    h_max = max((pv.h for pv in dec.per_u.values()), default=0)
    return not big_odd and h_max <= 1


def hunt_failures(size: int, report) -> int:
    """A true theorem over ``size`` graphs: every graph confirms or is
    vacuous, none is a counterexample."""
    if report.total != size or report.malformed:
        return size
    return min(size, max(0, size - report.confirms - report.vacuous))


# hunt-shared --------------------------------------------------------------------

def chunks(items: list, size: int) -> list:
    return [items[i:i + size] for i in range(0, len(items), size)]


def setup_hunt_shared(seed: int, sizes: Sizes, workdir: Path,
                      in_process: bool) -> Inputs:
    corpus = hunt_corpus(seed, sizes.hunt_graphs)
    grid = hunt_grid()
    false1t = theorems.make_theorem("FALSE1T")
    h1 = family_graph("H:n=1")

    def make_pass():
        # fresh facts each pass: one hunt session pays for its own
        # invariants; the corpus is hunted chunk by chunk, every
        # configuration on a chunk sharing that chunk's facts
        facts = [theorems.GraphFacts(g, name=f"random-{i}")
                 for i, g in enumerate(corpus)]
        calls = [Call(f"hunt {spec.describe()} on graphs {k * sizes.hunt_chunk}+",
                      len(chunk),
                      lambda chunk=chunk, spec=spec: theorems.hunt(chunk, spec),
                      lambda report, seen, n=len(chunk): hunt_failures(n, report))
                 for k, chunk in enumerate(chunks(facts, sizes.hunt_chunk))
                 for spec in grid]
        calls.append(Call(
            "hunt FALSE1T on H:n=1", 1,
            lambda: theorems.hunt(
                [theorems.GraphFacts(h1, name="H:n=1")], false1t),
            lambda report, seen: int(report.counterexamples != ["H:n=1"])))
        return calls

    return Inputs("one (graph, configuration) check", make_pass,
                  len(corpus) + 1,
                  {"graphs": len(corpus), "orders": order_mix(corpus),
                   "graphs_per_call": sizes.hunt_chunk,
                   "configurations": len(grid), "self_test": "H:n=1"},
                  sizes.min_passes)


# hunt-cli -----------------------------------------------------------------------

def cli_runner(in_process: bool):
    """Run ``tough2f <argv>``, returning (exit code, stdout).

    Out of process, each call is one fresh interpreter running the console
    script's entry point, as a user's shell loop would."""
    if in_process:
        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()
        return run
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "tough2f.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout
    return run


def theorem_argv(spec) -> list:
    argv = ["--theorem", spec.theorem_id]
    for key, value in sorted(spec.params.items()):
        argv += [f"--{key}", str(value)]
    return argv


def cli_payload(outcome, size: int, code: int):
    """The hunt's JSON report, or None unless the run exited with ``code``
    and covered ``size`` well-formed graphs."""
    exit_code, stdout = outcome
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    if (exit_code != code or payload.get("total") != size
            or payload.get("malformed") != 0):
        return None
    return payload


def cli_hunt_failures(size: int, outcome) -> int:
    payload = cli_payload(outcome, size, 0)
    if payload is None:
        return size
    return min(size, max(0, size - payload["confirms"] - payload["vacuous"]))


def setup_hunt_cli(seed: int, sizes: Sizes, workdir: Path,
                   in_process: bool) -> Inputs:
    corpus = hunt_corpus(seed, sizes.cli_graphs)
    grid = hunt_grid()
    files = []
    for k, part in enumerate(chunks(corpus, -(-len(corpus) // sizes.cli_files))):
        path = workdir / f"corpus-{k}.g6"
        path.write_text("".join(graphs.encode_graph6(g) + "\n" for g in part),
                        encoding="ascii")
        files.append((path, len(part)))
    h1_g6 = graphs.encode_graph6(family_graph("H:n=1"))
    h1_path = workdir / "h1.g6"
    h1_path.write_text(h1_g6 + "\n", encoding="ascii")
    run = cli_runner(in_process)

    def make_pass():
        calls = [Call(f"tough2f hunt {path.name} {spec.describe()}", size,
                      lambda path=path, spec=spec: run(
                          ["hunt", str(path), *theorem_argv(spec)]),
                      lambda out, seen, size=size: cli_hunt_failures(size, out))
                 for path, size in files for spec in grid]
        calls.append(Call(
            "tough2f hunt FALSE1T on H:n=1", 1,
            lambda: run(["hunt", str(h1_path), "--theorem", "FALSE1T"]),
            lambda out, seen: int(
                (cli_payload(out, 1, 1) or {}).get("counterexamples")
                != [h1_g6])))
        return calls

    return Inputs("one (graph, configuration) check", make_pass,
                  len(corpus) + 1,
                  {"graphs": len(corpus), "orders": order_mix(corpus),
                   "files": len(files), "configurations": len(grid),
                   "self_test": "H:n=1",
                   "mode": "in-process cli.main" if in_process
                   else "one interpreter per configuration and file"},
                  sizes.min_passes, children_rss=not in_process)


# instances ----------------------------------------------------------------------

# Direct layer calls, each on the instances within the call's documented
# reach. is_t_tough on G(1,1) (order 28) is left out: it ran for minutes.
# connectivity on Ghat(2,k) (order 62) is left to verify_family, which
# makes that call itself; a shorter pass gets more repeats per run.
DIRECT_CALLS = {
    "toughness": ("H:n=2", "H:n=3", "R:m=2,a=2,b=1,c=3"),
    "is_t_tough": ("H:n=2", "H:n=3", "R:m=2,a=2,b=1,c=3"),
    "independence_number": ("H:n=3", "R:m=2,a=2,b=1,c=3", "Gprime:n=1,k=1",
                            "G:n=1,k=1", "Gstar:n=1,k=1", "Ghat:n=1,k=1"),
    "connectivity": ("H:n=3", "R:m=2,a=2,b=1,c=3", "Gprime:n=1,k=1",
                     "G:n=1,k=1", "Gstar:n=1,k=1", "Ghat:n=1,k=1"),
    "find_two_factor": ("H:n=3", "R:m=2,a=2,b=1,c=3", "Ghat:n=1,k=1",
                        "Ghat:n=2,k=1", "Ghat:n=2,k=2"),
}


def known_barrier(inst):
    """A Tutte pair read off the construction's labelled sets: (A, B) for
    Ghat, (apex, independent side) for H."""
    sets = inst.sets
    if "A" in sets and "B" in sets:
        return barriers.Barrier(sets["A"], sets["B"], -2)
    if inst.spec.family == "H":
        return barriers.Barrier(sets["apex"], sets["independent"], -2)
    return None


def check_toughness(g: Graph, result) -> int:
    c = graphs.count_components(g, result.witness)
    return int(not (c >= 2 and Rational(len(result.witness), c)
                    == result.value))


def check_is_t_tough(name: str, result, seen) -> int:
    tau = seen.get(f"toughness {name}")
    return int(tau is None or result != (tau.value >= 1))


def check_alpha(g: Graph, result) -> int:
    alpha, witness = result
    independent = all(not g.has_edge(u, v)
                      for u in witness for v in witness if u < v)
    return int(not (independent and len(witness) == alpha))


def check_kappa(g: Graph, name: str, kappa, seen) -> int:
    ok = 1 <= kappa <= invariants.min_degree(g)
    tau = seen.get(f"toughness {name}")
    if tau is not None:
        ok = ok and 2 * tau.value <= kappa
    return int(not ok)


def check_two_factor(g: Graph, inst, result) -> int:
    if result.exists:
        return int(not is_two_factor(g, result.factor.edges))
    return int(not is_barrier(g, known_barrier(inst)))


def setup_instances(seed: int, sizes: Sizes, workdir: Path,
                    in_process: bool) -> Inputs:
    specs = {text: FamilySpec.parse(text) for text in sizes.instances}
    built = {text: families.build(spec) for text, spec in specs.items()}

    def direct(fn: str, text: str) -> Call:
        inst = built[text]
        g = inst.graph
        label = f"{fn} {text}"
        if fn == "toughness":
            return Call(label, 1, lambda: invariants.toughness(g),
                        lambda r, seen: check_toughness(g, r))
        if fn == "is_t_tough":
            return Call(label, 1, lambda: invariants.is_t_tough(g, 1),
                        lambda r, seen: check_is_t_tough(text, r, seen))
        if fn == "independence_number":
            return Call(label, 1, lambda: invariants.independence_number(g),
                        lambda r, seen: check_alpha(g, r))
        if fn == "connectivity":
            return Call(label, 1, lambda: invariants.connectivity(g),
                        lambda r, seen: check_kappa(g, text, r, seen))
        return Call(label, 1, lambda: matching.find_two_factor(g),
                    lambda r, seen: check_two_factor(g, inst, r))

    def make_pass():
        calls = [Call(f"verify_family {text}", 1,
                      lambda spec=spec: theorems.verify_family(spec),
                      lambda claims, seen: int(
                          not claims or not all(c.passed for c in claims)))
                 for text, spec in specs.items()]
        for fn, targets in DIRECT_CALLS.items():
            calls += [direct(fn, text) for text in targets if text in built]
        return calls

    return Inputs("one public call on one instance", make_pass, len(built),
                  {"instances": {text: inst.graph.n
                                 for text, inst in built.items()},
                   "seeded": False},
                  sizes.min_passes)


# certify ------------------------------------------------------------------------

def certify_pipeline(g: Graph):
    """2-factor search with a certificate, then the biased barrier, its
    structure report and, where the barrier admits one, the witness cut."""
    certified = matching.find_two_factor(g, certify=True)
    biased = barriers.find_biased_barrier(g)
    report = barriers.check_biased_properties(g, biased)
    try:
        witness = barriers.extract_witness(g, biased)
    except GraphError:
        witness = None  # no witness applies; the check confirms why
    return certified, biased, report, witness


def check_certify(g: Graph, outcome) -> int:
    certified, biased, report, witness = outcome
    ok = (not certified.exists and is_barrier(g, certified.barrier)
          and is_barrier(g, biased) and report.all_hold
          # the biased barrier maximises |A|, then minimises |B|
          and (-len(biased.a), len(biased.b))
          <= (-len(certified.barrier.a), len(certified.barrier.b)))
    if ok and witness is None:
        ok = no_witness_applies(g, biased)
    elif ok:
        ok = witness_holds(g, biased, witness)
    return int(not ok)


def certify_corpus(seed: int, mix: tuple, candidates: int) -> list:
    """For each (order, count) in ``mix``, the first ``count`` graphs of
    that order without a 2-factor, drawn in the criterion-5 order cycle.
    At least ``candidates`` graphs are drawn and tested, more than most
    seeds need, so the set-up work hardly depends on the seed."""
    rng = random.Random(seed)
    wanted = dict(mix)
    picked: dict = {n: [] for n in wanted}
    i = 0
    while i < candidates or any(len(picked[n]) < wanted[n] for n in wanted):
        n = HUNT_ORDERS[i % 4]
        i += 1
        g = random_connected_graph(rng, n)
        if n in wanted and not matching.find_two_factor(g).exists:
            picked[n].append(g)
    return [g for n, count in mix for g in picked[n][:count]]


def setup_certify(seed: int, sizes: Sizes, workdir: Path,
                  in_process: bool) -> Inputs:
    targets = [(text, family_graph(text)) for text in sizes.certify_families]
    targets += [(f"random-{i}", g) for i, g in
                enumerate(certify_corpus(seed, sizes.certify_mix,
                                         sizes.certify_candidates))]

    def make_pass():
        return [Call(f"certify {name}", 1,
                     lambda g=g: certify_pipeline(g),
                     lambda out, seen, g=g: check_certify(g, out))
                for name, g in targets]

    return Inputs("one graph through the certificate pipeline", make_pass,
                  len(targets),
                  {"graphs": len(targets),
                   "orders": order_mix(g for _, g in targets),
                   "families": list(sizes.certify_families)},
                  sizes.min_passes)


WORKLOADS = {
    "hunt-shared": setup_hunt_shared,
    "hunt-cli": setup_hunt_cli,
    "instances": setup_instances,
    "certify": setup_certify,
}
