"""Time the barrier searches and record the figures in BENCH_barriers.json.

Measurements, each made on the tough2f tree given by ``--src`` (median of
``REPEATS`` runs, every run kept), for both ``find_barrier`` and
``find_biased_barrier``:

- ``<finder>_H:n=1_s``, ``<finder>_H:n=2_s``: on H(1) and H(2), orders 7
  and 12;
- ``<finder>_certify_<seed>_s``: over the no-2-factor graphs of the
  ``certify`` workload, as ``bench/workloads.py`` draws them for seeds 1
  and 11 and the default ``Sizes`` (24 graphs of orders 8-11 each);
- ``<finder>_hunt_two_factor_s``: over the first ``HUNT_GRAPHS`` graphs of
  the ``hunt-shared`` corpus for seed 3 that have a 2-factor, where
  ``find_barrier`` walks all 3^n pairs and finds nothing, and
  ``find_biased_barrier`` stops at the empty A;
- ``find_biased_barrier_<corpus>_matchings``: the blossom matchings
  (``matching.max_matching`` calls) that one pass of
  ``find_biased_barrier`` over the corpus runs;
- ``find_two_factor_certify_<corpus>_s``: ``find_two_factor(g,
  certify=True)`` on H(1), H(2), the two ``certify`` corpora, and on
  G(1,1) and Ghat(2,2), orders 28 and 62, past the exhaustive cap. Its
  ``_hits`` count the negative answers that carry a barrier, and its
  ``_valid`` those whose barrier the deficiency formula confirms.

``answers_sha256`` hashes whether each graph has a barrier and each biased
barrier, so equal digests under two labels show the two trees agree.
``find_barrier`` may return any barrier, so its picks are hashed apart, in
``find_barrier_picks_sha256``; ``certified_valid_sha256`` hashes, per
graph, whether ``find_two_factor`` attached a barrier and whether it is
one. Results and the provenance of
``benchkit.provenance`` are merged into BENCH_barriers.json under
``--label``:

    python3 scripts/bench_barriers.py --src ../parent/src --label parent
    python3 scripts/bench_barriers.py --label change
"""

from __future__ import annotations

import hashlib
import sys

from benchkit import ROOT, parse_args, provenance, save, timed

OUT = ROOT / "BENCH_barriers.json"
CERTIFY_SEEDS = (1, 11)
HUNT_SEED = 3
HUNT_GRAPHS = 12
FAMILIES = ("H:n=1", "H:n=2")
BEYOND_CAP = ("G:n=1,k=1", "Ghat:n=2,k=2")  # certified only
REPEATS = 3


def main(argv=None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    from tough2f.barriers import deficiency, find_barrier, find_biased_barrier
    from tough2f import matching
    from tough2f.matching import find_two_factor
    import workloads

    sizes = workloads.Sizes()
    corpora = {text: [workloads.family_graph(text)] for text in FAMILIES}
    for seed in CERTIFY_SEEDS:
        corpora[f"certify_{seed}"] = workloads.certify_corpus(
            seed, sizes.certify_mix, sizes.certify_candidates)
    corpora["hunt_two_factor"] = [
        g for g in workloads.hunt_corpus(HUNT_SEED, sizes.hunt_graphs)
        if find_two_factor(g).exists][:HUNT_GRAPHS]
    corpora.update((text, [workloads.family_graph(text)])
                   for text in BEYOND_CAP)

    entry = {**provenance(),
             "certify_seeds": list(CERTIFY_SEEDS), "hunt_seed": HUNT_SEED,
             "corpora": {name: {"graphs": len(gs),
                                "orders": workloads.order_mix(gs)}
                         for name, gs in corpora.items()}}
    answers = []
    picks = []
    valid = []

    def pair(b):
        return None if b is None else (sorted(b.a), sorted(b.b), b.deficiency)

    def find_two_factor_certify(g):
        return find_two_factor(g, certify=True).barrier

    def matchings(gs):
        calls = 0
        real = matching.max_matching

        def counted(adj):
            nonlocal calls
            calls += 1
            return real(adj)

        matching.max_matching = counted
        try:
            for g in gs:
                find_biased_barrier(g)
        finally:
            matching.max_matching = real
        return calls

    def record(finder, name):
        gs = corpora[name]
        label = f"{finder.__name__}_{name}"
        median, runs, found = timed(lambda: [finder(g) for g in gs], REPEATS)
        entry[f"{label}_s"] = round(median, 5)
        entry[f"{label}_repeats_s"] = [round(s, 5) for s in runs]
        entry[f"{label}_hits"] = sum(b is not None for b in found)
        return label, found

    for name in corpora:
        if name in BEYOND_CAP:
            continue
        for finder in (find_barrier, find_biased_barrier):
            label, found = record(finder, name)
            if finder is find_barrier:
                answers.append((label, [b is None for b in found]))
                picks.append((label, [pair(b) for b in found]))
            else:
                answers.append((label, [pair(b) for b in found]))
                entry[f"{label}_matchings"] = matchings(corpora[name])
    for name in (*FAMILIES, *(f"certify_{s}" for s in CERTIFY_SEEDS),
                 *BEYOND_CAP):
        label, found = record(find_two_factor_certify, name)
        checks = [None if b is None else deficiency(g, b.a, b.b) <= -2
                  for g, b in zip(corpora[name], found)]
        entry[f"{label}_valid"] = checks.count(True)
        valid.append((label, checks))

    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    entry["answers_sha256"] = digest(answers)
    entry["find_barrier_picks_sha256"] = digest(picks)
    entry["certified_valid_sha256"] = digest(valid)
    save(OUT, args.label, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
