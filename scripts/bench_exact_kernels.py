"""Time the blossom and independence kernels and record the figures in BENCH_exact_kernels.json.

Measurements, each made on the tough2f tree given by ``--src`` (median of
``REPEATS`` runs, every run kept):

- ``alpha_<spec>_s``: ``independence_number`` on G*(1,1), Ghat(1,1) and
  Ghat(2,1), orders 36, 37 and 62;
- ``alpha_hunt_s``: ``independence_number`` on each graph of the
  ``hunt-shared`` corpus, as ``bench/workloads.py`` draws it for seed 3
  and the default ``Sizes`` (800 graphs of orders 8-11);
- ``two_factor_<spec>_s``: ``find_two_factor`` on Ghat(2,2) and Ghat(3,3),
  orders 62 and 87; ``build_gadget_<spec>_s``: ``build_gadget`` alone on
  them; and ``gadget_matching_<spec>_s``: ``max_matching`` on their gadgets'
  neighbour lists alone, orders 1020 and 2022;
- ``two_factor_hunt_s``: ``find_two_factor`` on each graph of the same
  ``hunt-shared`` corpus.

``answers_sha256`` hashes every answer: each alpha with its witness, each
2-factor answer with its edges, each gadget's edges and each gadget
matching, as sorted pairs. Equal digests
under two labels show that the two trees gave the same outputs.
``two_factor_exists_sha256`` hashes only the existence bits of the
2-factor answers (the hunt corpus, then Ghat(2,2) and Ghat(3,3)): it stays
equal when two trees find different 2-factors of the same graphs. Results
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


def main(argv=None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    from tough2f.families import FamilySpec, build
    from tough2f.invariants import independence_number
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

    def record(name, fn, answer=lambda result: result):
        median, runs, result = timed(fn, REPEATS)
        entry[f"{name}_s"] = round(median, 5)
        entry[f"{name}_repeats_s"] = [round(s, 5) for s in runs]
        answers.append((name, answer(result)))
        return result

    for text in ALPHA_SPECS:
        g = graph(text)
        entry[f"alpha_{text}"] = record(f"alpha_{text}", lambda: alpha(g))[0]

    corpus = workloads.hunt_corpus(SEED, workloads.Sizes().hunt_graphs)
    entry["corpus"] = {"graphs": len(corpus),
                       "orders": workloads.order_mix(corpus)}
    record("alpha_hunt", lambda: [alpha(g) for g in corpus])

    exists = []

    def two_factor(r):
        exists.append(r.exists)
        return r.exists and sorted(r.factor.edges)

    record("two_factor_hunt",
           lambda: [find_two_factor(g) for g in corpus],
           lambda results: [two_factor(r) for r in results])

    for text in TWO_FACTOR_SPECS:
        g = graph(text)
        result = record(f"two_factor_{text}", lambda: find_two_factor(g),
                        two_factor)
        # a tuple, as Graph.edges was, so the digest compares with
        # the runs recorded before max_matching took neighbour lists
        adj = record(f"build_gadget_{text}", lambda: build_gadget(g),
                     lambda gd: tuple(pairs(gd.adj))).adj
        entry[f"two_factor_{text}"] = result.exists
        entry[f"gadget_order_{text}"] = len(adj)
        record(f"gadget_matching_{text}", lambda: max_matching(adj),
               lambda mate: [(v, w) for v, w in enumerate(mate) if v < w])

    entry["answers_sha256"] = hashlib.sha256(
        repr(answers).encode()).hexdigest()
    entry["two_factor_exists_sha256"] = hashlib.sha256(
        repr(exists).encode()).hexdigest()
    save(OUT, args.label, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
