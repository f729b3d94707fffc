"""Time the blossom, independence and connectivity kernels and record the figures in BENCH_exact_kernels.json.

Measurements, each made on the tough2f tree given by ``--src`` (median of
``REPEATS`` runs as ``<name>_s``, the best as ``<name>_best_s``, every run
kept):

- ``alpha_<spec>_s``: ``independence_number`` on G*(1,1), Ghat(1,1) and
  Ghat(2,1), orders 36, 37 and 62;
- ``alpha_hunt_s``: ``independence_number`` on each graph of the
  ``hunt-shared`` corpus, as ``bench/workloads.py`` draws it for seed 3
  and the default ``Sizes`` (800 graphs of orders 8-11);
- ``alpha_facts_hunt_s``, from the ``alpha-tables-*`` entries on:
  ``GraphFacts(g).alpha`` on each graph of the same corpus, fresh facts
  per graph, as a hunt's THM2 and NIESSEN clauses read it (off the
  order's subset tables up to ``invariants.FAMILY_MAX_ORDER`` on a tree
  that has ``invariants._alpha``, by ``independence_number`` before);
  ``alpha_facts_sha256`` digests those values, and ``hunt_reports_sha256``
  the ``HuntReport``s of one ``hunt-shared`` pass, as
  ``workloads.setup_hunt_shared`` makes it for the same seed;
- ``two_factor_<spec>_s``: ``find_two_factor`` on Ghat(2,2) and Ghat(3,3),
  orders 62 and 87; ``two_factor_certify_<spec>_s``: the same with
  ``certify=True``; ``build_gadget_<spec>_s``: ``build_gadget`` alone on
  them; and ``gadget_matching_<spec>_s``: ``max_matching`` on their Tutte
  gadgets' neighbour lists alone, orders 1020 and 2022;
- ``split_gadget_order_<spec>`` and ``split_gadget_edges_<spec>``: the
  order and edge count of the split gadget that decides existence
  (``matching._split``), on trees that have one;
- ``two_factor_hunt_s``: ``find_two_factor`` on each graph of the same
  ``hunt-shared`` corpus, and ``two_factor_hunt_gadgets``, over one more,
  untimed, pass, the split gadgets (``matching._split``) it builds;
- ``connectivity_<spec>_s``: ``connectivity`` on Ghat(2,1) and Ghat(2,2),
  order 62, and ``connectivity_hunt_s`` on each graph of the corpus;
- ``forest_hunt_s``: the 12 forest clauses of the criterion-5 grid
  (P_m + kP_1, ``workloads.hunt_grid``), pattern by pattern in grid order
  over the corpus, through one fresh ``GraphFacts`` per graph, as a
  chunked hunt asks them; ``forest_hunt_alpha_read_s``: the same, with
  each graph's alpha read before the clock starts, as the THM2 clauses
  of a hunt read it before its forest clauses;
- ``forest_lone_<pattern>_best_s``: one lone question, P2+2P1, P3+2P1
  or P4+2P1, asked of each of the first 120 graphs of the seed-1 hunt
  corpus through fresh ``GraphFacts``, as one ``tough2f hunt`` call of
  a forest theorem asks it: the best of ``LONE_REPEATS``.

Over one more, untimed, pass of ``connectivity`` on those graphs,
``connectivity_pairs`` counts the Esfahanian-Hakimi pairs tested,
``connectivity_flows`` the pairs that ran the exact flow
(``invariants._local_connectivity``) and ``connectivity_greedy_settled``
the pairs that the greedy paths (``invariants._greedy_paths``) settled; a
tree without the greedy paths runs the flow on every pair. Over one more,
untimed, pass of the forest clauses, ``forest_find_induced_calls`` counts
the calls of ``forbidden.find_induced``, ``forest_sweeps_started`` the
sweeps started (``forbidden._independent_sweep``, one per graph and k
asked, or ``forbidden._sweep``, the induced-path sweep of older trees),
and ``forest_bound_settled`` the questions answered with no sweep
started or resumed: by the counting bound (n < m + k or
alpha < ceil(m/2) + k) on a tree that has one, or by what earlier
questions' sweeps already found. Before the ``independent-side-*`` rows
it counted only the questions the counting bound decides.

``answers_sha256`` hashes every answer: each alpha with its witness, each
2-factor answer with its edges, each gadget's edges and each gadget
matching, as sorted pairs, each certified barrier, each kappa and each
forest clause's answer. Equal digests under two labels show that the two
trees gave the same outputs.
``two_factor_exists_sha256`` hashes only the existence bits of the
2-factor answers (the hunt corpus, then Ghat(2,2) and Ghat(3,3)): it stays
equal when two trees find different 2-factors of the same graphs.
``forest_answers_sha256`` hashes only the forest clauses' answers. Results
and the provenance of ``benchkit.provenance`` are merged into
BENCH_exact_kernels.json under ``--label``:

    python3 scripts/bench_exact_kernels.py --src ../parent/src --label parent
    python3 scripts/bench_exact_kernels.py --label change
"""

from __future__ import annotations

import hashlib
import sys

from benchkit import ROOT, parse_args, provenance, save, timed

OUT = ROOT / "BENCH_exact_kernels.json"
SEED = 3
REPEATS = 3
ALPHA_SPECS = ("Gstar:n=1,k=1", "Ghat:n=1,k=1", "Ghat:n=2,k=1")
TWO_FACTOR_SPECS = ("Ghat:n=2,k=2", "Ghat:n=3,k=3")
CONNECTIVITY_SPECS = ("Ghat:n=2,k=1", "Ghat:n=2,k=2")
LONE_PATTERNS = ("P2+2P1", "P3+2P1", "P4+2P1")
LONE_REPEATS = 5


def main(argv=None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    from tough2f.families import FamilySpec, build
    from tough2f import invariants
    from tough2f.invariants import connectivity, independence_number
    from tough2f import forbidden, matching
    from tough2f.theorems import GraphFacts
    from tough2f.matching import build_gadget, find_two_factor, max_matching
    import workloads

    def graph(text):
        return build(FamilySpec.parse(text)).graph

    def pairs(adj):
        return [(x, y) for x, ys in enumerate(adj) for y in ys if x < y]

    def alpha(g):
        value, witness = independence_number(g)
        return value, sorted(witness)

    entry = {**provenance(), "corpus_seed": SEED}
    answers = []

    def time_it(name, fn):
        median, runs, result = timed(fn, REPEATS)
        entry[f"{name}_s"] = round(median, 5)
        entry[f"{name}_best_s"] = round(min(runs), 5)
        entry[f"{name}_repeats_s"] = [round(s, 5) for s in runs]
        return result

    def record(name, fn, answer=lambda result: result):
        result = time_it(name, fn)
        answers.append((name, answer(result)))
        return result

    for text in ALPHA_SPECS:
        g = graph(text)
        entry[f"alpha_{text}"] = record(f"alpha_{text}", lambda: alpha(g))[0]

    corpus = workloads.hunt_corpus(SEED, workloads.Sizes().hunt_graphs)
    entry["corpus"] = {"graphs": len(corpus),
                       "orders": workloads.order_mix(corpus)}
    record("alpha_hunt", lambda: [alpha(g) for g in corpus])
    facts_alpha = time_it("alpha_facts_hunt",
                          lambda: [GraphFacts(g).alpha for g in corpus])
    entry["alpha_facts_sha256"] = hashlib.sha256(
        repr(facts_alpha).encode()).hexdigest()
    hunt = workloads.setup_hunt_shared(SEED, workloads.Sizes(), ROOT, True)
    entry["hunt_reports_sha256"] = hashlib.sha256(repr(
        [call.run() for call in hunt.make_pass()]).encode()).hexdigest()

    exists = []

    def two_factor(r):
        exists.append(r.exists)
        return r.exists and sorted(r.factor.edges)

    record("two_factor_hunt",
           lambda: [find_two_factor(g) for g in corpus],
           lambda results: [two_factor(r) for r in results])

    if hasattr(matching, "_split"):
        real_split = matching._split
        gadgets = []

        def counted_split(*args):
            gadgets.append(None)
            return real_split(*args)

        matching._split = counted_split
        try:
            for g in corpus:
                find_two_factor(g)
        finally:
            matching._split = real_split
        entry["two_factor_hunt_gadgets"] = len(gadgets)

    for text in TWO_FACTOR_SPECS:
        g = graph(text)
        result = record(f"two_factor_{text}", lambda: find_two_factor(g),
                        two_factor)
        record(f"two_factor_certify_{text}",
               lambda: find_two_factor(g, certify=True),
               lambda r: [sorted(side) for side in r.barrier[:2]])
        if hasattr(matching, "_split"):
            split = matching._split(g, g.full_mask, [])[0]
            entry[f"split_gadget_order_{text}"] = len(split)
            entry[f"split_gadget_edges_{text}"] = len(pairs(split))
        # a tuple, as Graph.edges was, so the digest compares with
        # the runs recorded before max_matching took neighbour lists
        adj = record(f"build_gadget_{text}", lambda: build_gadget(g),
                     lambda gd: tuple(pairs(gd.adj))).adj
        entry[f"two_factor_{text}"] = result.exists
        entry[f"gadget_order_{text}"] = len(adj)
        record(f"gadget_matching_{text}", lambda: max_matching(adj),
               lambda mate: [(v, w) for v, w in enumerate(mate) if v < w])

    kappa_graphs = [graph(text) for text in CONNECTIVITY_SPECS]
    for text, g in zip(CONNECTIVITY_SPECS, kappa_graphs):
        entry[f"connectivity_{text}"] = record(f"connectivity_{text}",
                                               lambda: connectivity(g))
    record("connectivity_hunt", lambda: [connectivity(g) for g in corpus])
    calls = dict.fromkeys(("_greedy_paths", "_local_connectivity"), 0)
    real = {name: getattr(invariants, name) for name in calls
            if hasattr(invariants, name)}

    def counted(name):
        def call(*args):
            calls[name] += 1
            return real[name](*args)
        return call

    for name in real:
        setattr(invariants, name, counted(name))
    try:
        for g in kappa_graphs + corpus:
            connectivity(g)
    finally:
        for name, fn in real.items():
            setattr(invariants, name, fn)
    flows = calls["_local_connectivity"]
    pairs = calls["_greedy_paths"] if "_greedy_paths" in real else flows
    entry["connectivity_pairs"] = pairs
    entry["connectivity_flows"] = flows
    entry["connectivity_greedy_settled"] = pairs - flows

    patterns = [forbidden.ForestPattern.parse(name.removesuffix("-free"))
                for spec in workloads.hunt_grid() for name, _ in spec.clauses
                if name.endswith("-free")]

    def forest_pass(facts=None):
        facts = facts or [GraphFacts(g) for g in corpus]
        return [[f.is_free(p) for f in facts] for p in patterns]

    forest = record("forest_hunt", forest_pass)
    primed = []  # fresh facts for each repeat, alpha read before the clock
    for _ in range(REPEATS):
        primed.append([GraphFacts(g) for g in corpus])
        for f in primed[-1]:
            f.alpha
    time_it("forest_hunt_alpha_read", lambda: forest_pass(primed.pop()))
    lone_corpus = workloads.hunt_corpus(1, workloads.Sizes().cli_graphs)
    for text in LONE_PATTERNS:
        lone = forbidden.ForestPattern.parse(text)
        runs = []
        for _ in range(LONE_REPEATS):
            facts = [GraphFacts(g) for g in lone_corpus]
            runs.append(timed(lambda: [f.is_free(lone) for f in facts], 1)[0])
        entry[f"forest_lone_{text}_best_s"] = round(min(runs), 6)
        entry[f"forest_lone_{text}_repeats_s"] = [round(s, 6) for s in runs]

    sweep_name = "_independent_sweep" if hasattr(
        forbidden, "_independent_sweep") else "_sweep"
    real_find, real_sweep = forbidden.find_induced, getattr(forbidden,
                                                            sweep_name)
    searches = []
    sweeps = [0, 0]  # started, resumed

    def counted_find(*args):
        searches.append(None)
        return real_find(*args)

    def counted_sweep(*args):
        sweeps[0] += 1
        inner = real_sweep(*args)
        while True:
            sweeps[1] += 1
            try:
                next(inner)
            except StopIteration:
                return
            yield

    settled = 0
    forbidden.find_induced = counted_find
    setattr(forbidden, sweep_name, counted_sweep)
    try:
        facts = [GraphFacts(g) for g in corpus]
        for p in patterns:
            for f in facts:
                before = sweeps.copy()
                f.is_free(p)
                settled += sweeps == before
    finally:
        forbidden.find_induced = real_find
        setattr(forbidden, sweep_name, real_sweep)
    entry["forest_find_induced_calls"] = len(searches)
    entry["forest_sweeps_started"] = sweeps[0]
    entry["forest_bound_settled"] = settled
    entry["forest_answers_sha256"] = hashlib.sha256(
        repr(forest).encode()).hexdigest()

    entry["answers_sha256"] = hashlib.sha256(
        repr(answers).encode()).hexdigest()
    entry["two_factor_exists_sha256"] = hashlib.sha256(
        repr(exists).encode()).hexdigest()
    save(OUT, args.label, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
