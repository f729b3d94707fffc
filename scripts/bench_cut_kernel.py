"""Time the toughness cut kernel and record the figures in BENCH_cut_kernel.json.

Three measurements, each made on the tough2f tree given by ``--src``:

- ``hunt_is_t_tough_s``: seconds for the ``is_t_tough`` threshold queries
  that one pass of the benchmark's ``hunt-shared`` workload makes, as
  ``bench/workloads.py`` sets it up for seed 3 and the default ``Sizes``.
  The queries are recorded while the pass runs once, untimed, and then
  replayed: the median of 5 replays.
- ``toughness_H3_s``: ``toughness`` on H(3), order 17.
- ``is_t_tough_H4_1_s``: ``is_t_tough(H(4), 1)``, order 22.

The run also counts the ``component_masks`` calls the kernel makes over the
hunt queries, one per cut mask it looks at, split by the query's answer
(``hunt_masks_yes``, ``hunt_masks_no``). Results and the provenance of
``benchkit.provenance`` are merged into BENCH_cut_kernel.json under
``--label``, so a parent tree and a changed tree can be recorded side by
side:

    python3 scripts/bench_cut_kernel.py --src ../parent/src --label parent
    python3 scripts/bench_cut_kernel.py --label change
"""

from __future__ import annotations

import hashlib
import sys

from benchkit import ROOT, parse_args, provenance, save, timed

OUT = ROOT / "BENCH_cut_kernel.json"
SEED = 3
REPEATS = 5


def main(argv=None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    from tough2f import invariants
    from tough2f.families import FamilySpec, build
    import workloads

    inputs = workloads.setup_hunt_shared(SEED, workloads.Sizes(), ROOT,
                                         in_process=True)
    queries = []
    is_t_tough = invariants.is_t_tough

    def recording(g, t):
        queries.append((g, t))
        return is_t_tough(g, t)

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

    answers = []
    masks_by_answer = {True: 0, False: 0}
    invariants.component_masks = counting
    try:
        for g, t in queries:
            before = masks
            answers.append(is_t_tough(g, t))
            masks_by_answer[answers[-1]] += masks - before
    finally:
        invariants.component_masks = component_masks

    def replay():
        for g, t in queries:
            is_t_tough(g, t)

    hunt_s, hunt_all, _ = timed(replay, REPEATS)
    h3 = build(FamilySpec.parse("H:n=3")).graph
    h4 = build(FamilySpec.parse("H:n=4")).graph
    h3_s, h3_all, tau = timed(lambda: invariants.toughness(h3), 3)
    h4_s, h4_all, h4_tough = timed(lambda: is_t_tough(h4, 1), 1)
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
        "hunt_is_t_tough_s": round(hunt_s, 4),
        "hunt_is_t_tough_repeats_s": [round(s, 4) for s in hunt_all],
        "toughness_H3": [str(tau.value), sorted(tau.witness)],
        "toughness_H3_s": round(h3_s, 4),
        "toughness_H3_repeats_s": [round(s, 4) for s in h3_all],
        "is_t_tough_H4_1": h4_tough,
        "is_t_tough_H4_1_s": round(h4_s, 3),
    }
    save(OUT, args.label, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
