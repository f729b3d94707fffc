"""Time the toughness kernels and record the figures in BENCH_cut_kernel.json.

The measurements, each made on the tough2f tree given by ``--src``:

- ``hunt_is_t_tough_s``: seconds for the ``is_t_tough`` threshold queries
  that one pass of the benchmark's ``hunt-shared`` workload makes, as
  ``bench/workloads.py`` sets it up for seed 3 and the default ``Sizes``.
  The queries are recorded while the pass runs once, untimed, and then
  replayed in their order, each graph's through one ``CutWalk`` of that
  graph (``walk=``), as ``GraphFacts`` asks them, but without the
  ``alpha`` and ``kappa`` callables it passes: the median of 5 replays.
  So a replayed graph pays for every search its walk asks for, once.
  Before the ``hunt-parent`` and ``hunt-change`` entries, each query was
  replayed on a fresh walk, which a hunt does not pay for since its
  questions share one walk a graph.
- ``hunt_facts_s``: seconds for one such pass through fresh
  ``GraphFacts``, as the workload runs it: the median of 5 passes.
  ``hunt_facts_masks`` counts the ``component_masks`` calls the
  invariants module makes in one pass, ``hunt_reports_sha256`` digests
  the pass's ``HuntReport``s, and ``hunt_sweeps`` and
  ``hunt_sweeps_exhausted`` count the forest sweeps the pass starts and
  runs to their end: ``forbidden._independent_sweep``, one per graph and
  k asked, or, on a tree from before the ``independent-side-change``
  entry, the induced-path sweep ``forbidden._sweep``, one per graph.
  ``hunt_family_builds`` counts the families of disconnected kept sets
  (``invariants._disconnected_families``) the pass builds, null on a tree
  without them, and ``hunt_facts_best_s`` is the fastest of 7 more passes,
  steadier than the median on a shared host. ``hunt_connectivity_delta3``
  and ``hunt_connectivity_delta2`` count the ``invariants.connectivity``
  calls of that pass on graphs of minimum degree at least 3 and at most
  2. ``hunt_kappa_sha256`` and ``hunt_tau_sha256`` digest kappa and tau,
  value and witness, of every corpus graph, each read from fresh
  ``GraphFacts`` after its graph's recorded queries, as a hunt reads them.
- ``toughness_H2_s``, ``toughness_H3_s``, ``toughness_H4_s`` and
  ``toughness_R2213_s``: ``toughness`` on H(2) (order 12), H(3) (order
  17), H(4) (order 22) and R(2,2,1,3) (order 14), each with its value and
  witness, and ``is_t_tough_H4_1_s``: ``is_t_tough(H(4), 1)``. Each is
  timed over 100 calls a repeat, the median of 5, and the figure is per
  call. Before the ``walk-parent`` and ``walk-change`` entries, H(3)
  was the median of 3 single calls and the two H(4) figures one call.
- ``toughness_G11_s`` and ``toughness_Ghat22_s``: ``toughness`` on G(1,1)
  (order 28) and Ghat(2,2) (order 62), the median of 3. The cut walk does
  not finish on them in hours, so they are measured only on a tree that
  has the clique kernel (``tough2f.separator``), and are null otherwise.

Next to each median ``<name>_s`` the run writes ``<name>_best_s``, the
fastest of the same repeats, which holds stiller than the median on a
shared host; ``hunt_facts_best_s`` is the fastest of its own 7 passes.

The run also counts the ``component_masks`` calls the invariants module
makes over the hunt queries, split by the query's answer
(``hunt_masks_yes``, ``hunt_masks_no``); the hunt queries that the
dispatch sends to the clique kernel (``hunt_kernel_queries``; null on a
tree without it); and the hunt queries on graphs with a universal vertex,
one adjacent to every other (``hunt_universal_queries``). Results and the
provenance of ``benchkit.provenance`` are merged into
BENCH_cut_kernel.json under ``--label``, so a parent tree and a changed
tree can be recorded side by side:

    python3 scripts/bench_cut_kernel.py --src ../parent/src --label hunt-parent
    python3 scripts/bench_cut_kernel.py --label hunt-change
"""

from __future__ import annotations

import hashlib
import sys

from benchkit import ROOT, parse_args, provenance, save, timed

OUT = ROOT / "BENCH_cut_kernel.json"
SEED = 3
REPEATS = 5
BEST_OF = 7


def main(argv=None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    from tough2f import forbidden, invariants, theorems
    from tough2f.families import FamilySpec, build
    import workloads

    inputs = workloads.setup_hunt_shared(SEED, workloads.Sizes(), ROOT,
                                         in_process=True)
    queries = []
    is_t_tough = invariants.is_t_tough

    def recording(g, t, **kwargs):
        queries.append((g, t))
        return is_t_tough(g, t, **kwargs)

    invariants.is_t_tough = recording
    try:
        for call in inputs.make_pass():
            call.run()
    finally:
        invariants.is_t_tough = is_t_tough

    masks = 0
    component_masks = invariants.component_masks

    def counting(adj, avail):
        nonlocal masks
        masks += 1
        return component_masks(adj, avail)

    try:
        from tough2f import separator
    except ImportError:  # a tree from before the clique kernel
        separator = None
    kernel_queries = None if separator is None else 0
    if separator is not None:
        kernel = separator.clique_toughness

        def counting_kernel(*args):  # any version of the kernel's entry
            nonlocal kernel_queries
            kernel_queries += 1
            return kernel(*args)

    def replay():
        """The answer to each query, asked of its graph's one walk."""
        walks = {}
        for g, t in queries:
            if id(g) not in walks:
                walks[id(g)] = invariants.CutWalk(g)
            yield is_t_tough(g, t, walk=walks[id(g)])

    answers = []
    masks_by_answer = {True: 0, False: 0}
    invariants.component_masks = counting
    if separator is not None:
        separator.clique_toughness = counting_kernel
    try:
        before = masks
        for answer in replay():
            answers.append(answer)
            masks_by_answer[answer] += masks - before
            before = masks
    finally:
        invariants.component_masks = component_masks
        if separator is not None:
            separator.clique_toughness = kernel

    hunt_s, hunt_all, _ = timed(lambda: list(replay()), REPEATS)

    def hunt_pass():
        return [call.run() for call in inputs.make_pass()]

    sweep_name = "_independent_sweep" if hasattr(
        forbidden, "_independent_sweep") else "_sweep"
    sweep = getattr(forbidden, sweep_name)
    sweeps = [0, 0]  # started, exhausted

    def counting_sweep(*args):
        sweeps[0] += 1
        yield from sweep(*args)
        sweeps[1] += 1

    families = getattr(invariants, "_disconnected_families", None)
    builds = None if families is None else 0

    def counting_families(*args):
        nonlocal builds
        builds += 1
        return families(*args)

    connectivity = invariants.connectivity
    kappa_calls = {True: 0, False: 0}  # by minimum degree >= 3

    def counting_connectivity(g):
        kappa_calls[invariants.min_degree(g) >= 3] += 1
        return connectivity(g)

    before = masks
    invariants.component_masks = counting
    invariants.connectivity = counting_connectivity
    setattr(forbidden, sweep_name, counting_sweep)
    if families is not None:
        invariants._disconnected_families = counting_families
    try:
        reports = hunt_pass()
    finally:
        invariants.component_masks = component_masks
        invariants.connectivity = connectivity
        setattr(forbidden, sweep_name, sweep)
        if families is not None:
            invariants._disconnected_families = families
    facts_masks = masks - before
    corpus = workloads.hunt_corpus(SEED, workloads.Sizes().hunt_graphs)
    asked = {g: [] for g in corpus}  # equal graphs share their queries
    for g, t in queries:
        asked.setdefault(g, []).append(t)
    kappas, taus = [], []
    for g in corpus:
        facts = theorems.GraphFacts(g)
        for t in asked[g]:
            facts.tough_at(t)
        tau = facts.toughness
        kappas.append((g.n, g.edges, facts.kappa))
        taus.append((g.n, g.edges, str(tau.value), sorted(tau.witness or ())))
    facts_s, facts_all, _ = timed(hunt_pass, REPEATS)
    _, facts_best_all, _ = timed(hunt_pass, BEST_OF)

    def figures(name: str, seconds: float, runs: list, digits: int) -> dict:
        """The median, the fastest and every repeat of ``name``."""
        return {f"{name}_s": round(seconds, digits),
                f"{name}_best_s": round(min(runs), digits),
                f"{name}_repeats_s": [round(s, digits) for s in runs]}

    def tough(text: str, repeats: int, loops: int = 1) -> tuple:
        """``timed`` over ``loops`` calls a repeat, in seconds a call."""
        g = build(FamilySpec.parse(text)).graph
        seconds, every, result = timed(
            lambda: [invariants.toughness(g) for _ in range(loops)][-1],
            repeats)
        return seconds / loops, [s / loops for s in every], result

    h2_s, h2_all, tau_h2 = tough("H:n=2", REPEATS, 100)
    h3_s, h3_all, tau = tough("H:n=3", REPEATS, 100)
    r_s, r_all, tau_r = tough("R:m=2,a=2,b=1,c=3", REPEATS, 100)
    h4 = build(FamilySpec.parse("H:n=4")).graph
    h4_s, h4_all, h4_tough = timed(
        lambda: [is_t_tough(h4, 1) for _ in range(100)][-1], REPEATS)
    h4_s, h4_all = h4_s / 100, [s / 100 for s in h4_all]
    tau_h4_s, tau_h4_all, tau_h4 = tough("H:n=4", REPEATS, 100)
    beyond_walk = {}
    for name, text in (("G11", "G:n=1,k=1"), ("Ghat22", "Ghat:n=2,k=2")):
        value = best = seconds = None
        if separator is not None:
            seconds, runs, result = tough(text, 3)
            value, best = str(result.value), round(min(runs), 4)
            seconds = round(seconds, 4)
        beyond_walk[f"toughness_{name}"] = value
        beyond_walk[f"toughness_{name}_s"] = seconds
        beyond_walk[f"toughness_{name}_best_s"] = best
    digest = hashlib.sha256(repr([(g.n, g.edges, str(t), a) for (g, t), a
                                  in zip(queries, answers)]).encode())

    entry = {
        **provenance(),
        "corpus_seed": SEED,
        "corpus": inputs.corpus,
        "hunt_queries": len(queries),
        "hunt_yes": sum(answers),
        "hunt_queries_sha256": digest.hexdigest(),
        "hunt_masks_yes": masks_by_answer[True],
        "hunt_masks_no": masks_by_answer[False],
        **figures("hunt_is_t_tough", hunt_s, hunt_all, 4),
        "hunt_facts_masks": facts_masks,
        "hunt_facts_s": round(facts_s, 4),
        "hunt_facts_repeats_s": [round(s, 4) for s in facts_all],
        "hunt_facts_best_s": round(min(facts_best_all), 4),
        "hunt_facts_best_repeats_s": [round(s, 4) for s in facts_best_all],
        "hunt_family_builds": builds,
        "hunt_connectivity_delta3": kappa_calls[True],
        "hunt_connectivity_delta2": kappa_calls[False],
        "hunt_kappa_sha256": hashlib.sha256(
            repr(kappas).encode()).hexdigest(),
        "hunt_tau_sha256": hashlib.sha256(repr(taus).encode()).hexdigest(),
        "hunt_reports_sha256": hashlib.sha256(
            repr(reports).encode()).hexdigest(),
        "hunt_sweeps": sweeps[0],
        "hunt_sweeps_exhausted": sweeps[1],
        "hunt_kernel_queries": kernel_queries,
        "hunt_universal_queries": sum(
            any(g.degree(v) == g.n - 1 for v in range(g.n))
            for g, _ in queries),
        "toughness_H2": [str(tau_h2.value), sorted(tau_h2.witness)],
        **figures("toughness_H2", h2_s, h2_all, 5),
        "toughness_H3": [str(tau.value), sorted(tau.witness)],
        **figures("toughness_H3", h3_s, h3_all, 6),
        "is_t_tough_H4_1": h4_tough,
        **figures("is_t_tough_H4_1", h4_s, h4_all, 6),
        "toughness_H4": [str(tau_h4.value), sorted(tau_h4.witness)],
        **figures("toughness_H4", tau_h4_s, tau_h4_all, 6),
        "toughness_R2213": [str(tau_r.value), sorted(tau_r.witness)],
        **figures("toughness_R2213", r_s, r_all, 5),
        **beyond_walk,
    }
    save(OUT, args.label, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
