"""Theorem registry, corpus hunting, the ratio inequality, and whole-family
verification."""

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from tough2f import (
    ForestPattern,
    GraphError,
    GraphFacts,
    INF,
    check_lemma_inequality,
    check_theorem,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    encode_graph6,
    forbidden,
    hunt,
    invariants,
    is_free,
    is_t_tough,
    make_theorem,
    path,
    run_lemma_inequality_trials,
    toughness,
    verify_family,
)
from tough2f.families import FamilySpec, build
from tough2f.theorems import THEOREM_IDS, HuntReport

from conftest import random_connected_graph, random_graph
from test_acceptance import hunt_grid
from test_invariants import brute_toughness


def h1_graph():
    return build(FamilySpec.parse("H:n=1")).graph


def test_registry_complete():
    params = {
        "THM1i": {"t": Fraction(3, 2)},
        "THM1ii": {"t": Fraction(3, 2)},
        "THM2": {"eps": Fraction(1, 2)},
        "THM3i": {"ell": 1, "k": 1},
        "THM3ii": {"k": 1},
        "THM4i": {"ell": 2, "k": 1},
        "THM4ii": {"k": 1},
        "EJKS2": {},
        "NIESSEN": {},
        "FALSE1T": {},
    }
    assert set(params) == set(THEOREM_IDS)
    for tid, kwargs in params.items():
        spec = make_theorem(tid, **kwargs)
        assert spec.theorem_id == tid
        assert spec.clauses
        assert spec.describe().startswith(tid)


def test_registry_rejects_bad_params():
    with pytest.raises(GraphError):
        make_theorem("THM1i", t=Fraction(2))
    with pytest.raises(GraphError):
        make_theorem("THM1ii", t=Fraction(5, 4))
    with pytest.raises(GraphError):
        make_theorem("THM2", eps=Fraction(0))
    with pytest.raises(GraphError):
        make_theorem("THM2", eps=Fraction(3, 2))
    with pytest.raises(GraphError):
        make_theorem("THM3i", ell=3, k=1)
    with pytest.raises(GraphError):
        make_theorem("THM4i", ell=1, k=1)
    with pytest.raises(GraphError):
        make_theorem("THM3ii", k=0)
    with pytest.raises(GraphError):
        make_theorem("NOSUCH")
    # integer parameters are not truncated, and rationals must be finite
    for tid, params in (("THM3ii", {"k": 1.5}), ("THM3ii", {"k": True}),
                        ("THM4i", {"ell": 2.7, "k": 1}),
                        ("THM3i", {"ell": 1, "k": Fraction(3, 2)}),
                        ("THM2", {"eps": math.inf}),
                        ("THM2", {"eps": math.nan}),
                        ("THM1i", {"t": "one"}), ("THM1ii", {"t": None})):
        with pytest.raises(GraphError):
            make_theorem(tid, **params)


def test_registry_rejects_stray_params():
    # each theorem takes only its own parameters; a stray one is an error,
    # not silently dropped
    with pytest.raises(GraphError, match="'k', 't'"):
        make_theorem("THM2", eps=Fraction(1, 2), t=Fraction(3, 2), k=9)
    with pytest.raises(GraphError, match="'eps'"):
        make_theorem("EJKS2", eps=Fraction(1, 2))
    with pytest.raises(GraphError, match="'ell'"):
        make_theorem("THM3ii", k=1, ell=1)


# The registry, pinned: each criterion-5 configuration plus FALSE1T, as
# (id, params, describe(), spec.params, clause names joined by " | ", and
# each clause's value on C5, K4, P3 and H(1), evaluated without
# short-circuit).
F = Fraction
REGISTRY_PIN = [
    ("THM2", {"eps": F(1, 4)}, "THM2[eps=1/4]", {"eps": "1/4"},
     "order >= 3 | delta >= eps*alpha | tau >= 7/4", "110 111 110 110"),
    ("THM2", {"eps": F(1, 2)}, "THM2[eps=1/2]", {"eps": "1/2"},
     "order >= 3 | delta >= eps*alpha | tau >= 3/2", "110 111 110 110"),
    ("THM2", {"eps": F(1)}, "THM2[eps=1]", {"eps": "1"},
     "order >= 3 | delta >= eps*alpha | tau >= 1", "111 111 100 101"),
    ("THM3i", {"ell": 1, "k": 1}, "THM3i[ell=1,k=1]", {"ell": 1, "k": 1},
     "order >= 3 | order > 1 | kappa >= 1 | P2+P1-free | tau >= 1",
     "11101 11111 11110 11101"),
    ("THM3i", {"ell": 1, "k": 2}, "THM3i[ell=1,k=2]", {"ell": 1, "k": 2},
     "order >= 3 | order > 2 | kappa >= 2 | P2+2P1-free | tau >= 1",
     "11111 11111 11010 11101"),
    ("THM3i", {"ell": 2, "k": 1}, "THM3i[ell=2,k=1]", {"ell": 2, "k": 1},
     "order >= 3 | order > 2 | kappa >= 2 | P4+P1-free | tau >= 1",
     "11111 11111 11010 11101"),
    ("THM3i", {"ell": 2, "k": 2}, "THM3i[ell=2,k=2]", {"ell": 2, "k": 2},
     "order >= 3 | order > 3 | kappa >= 3 | P4+2P1-free | tau >= 1",
     "11011 11111 10010 11011"),
    ("THM3ii", {"k": 1}, "THM3ii[k=1]", {"k": 1},
     "order >= 3 | order > 2 | kappa >= 2 | P3+P1-free | tau >= 1",
     "11111 11111 11010 11101"),
    ("THM3ii", {"k": 2}, "THM3ii[k=2]", {"k": 2},
     "order >= 3 | order > 3 | kappa >= 3 | P3+2P1-free | tau >= 1",
     "11011 11111 10010 11011"),
    ("THM4i", {"ell": 2, "k": 1}, "THM4i[ell=2,k=1]", {"ell": 2, "k": 1},
     "order >= 3 | order > 2 | kappa >= 2 | P5+P1-free | tau >= 3/2",
     "11110 11111 11010 11110"),
    ("THM4i", {"ell": 2, "k": 2}, "THM4i[ell=2,k=2]", {"ell": 2, "k": 2},
     "order >= 3 | order > 3 | kappa >= 3 | P5+2P1-free | tau >= 3/2",
     "11010 11111 10010 11010"),
    ("THM4i", {"ell": 3, "k": 1}, "THM4i[ell=3,k=1]", {"ell": 3, "k": 1},
     "order >= 3 | order > 3 | kappa >= 3 | P7+P1-free | tau >= 3/2",
     "11010 11111 10010 11010"),
    ("THM4i", {"ell": 3, "k": 2}, "THM4i[ell=3,k=2]", {"ell": 3, "k": 2},
     "order >= 3 | order > 4 | kappa >= 4 | P7+2P1-free | tau >= 3/2",
     "11010 10011 10010 11010"),
    ("THM4ii", {"k": 1}, "THM4ii[k=1]", {"k": 1},
     "order >= 3 | order > 3 | kappa >= 3 | P6+P1-free | tau >= 3/2",
     "11010 11111 10010 11010"),
    ("THM4ii", {"k": 2}, "THM4ii[k=2]", {"k": 2},
     "order >= 3 | order > 4 | kappa >= 4 | P6+2P1-free | tau >= 3/2",
     "11010 10011 10010 11010"),
    ("THM1i", {"t": F(1)}, "THM1i[t=1]", {"t": "1"},
     "order >= 3 | delta >= (2-t)n/(1+t) | tau >= 1", "101 111 100 101"),
    ("THM1i", {"t": F(5, 4)}, "THM1i[t=5/4]", {"t": "5/4"},
     "order >= 3 | delta >= (2-t)n/(1+t) | tau >= 5/4", "110 111 110 100"),
    ("THM1i", {"t": F(3, 2)}, "THM1i[t=3/2]", {"t": "3/2"},
     "order >= 3 | delta >= (2-t)n/(1+t) | tau >= 3/2", "110 111 110 110"),
    ("THM1i", {"t": F(7, 4)}, "THM1i[t=7/4]", {"t": "7/4"},
     "order >= 3 | delta >= (2-t)n/(1+t) | tau >= 7/4", "110 111 110 110"),
    ("THM1ii", {"t": F(3, 2)}, "THM1ii[t=3/2]", {"t": "3/2"},
     "order >= 3 | delta >= (3t-2-t^2)n/(7t-7-t^2) | tau >= 3/2",
     "110 111 110 110"),
    ("THM1ii", {"t": F(7, 4)}, "THM1ii[t=7/4]", {"t": "7/4"},
     "order >= 3 | delta >= (3t-2-t^2)n/(7t-7-t^2) | tau >= 7/4",
     "110 111 110 110"),
    ("EJKS2", {}, "EJKS2", {},
     "order >= 3 | tau >= 2", "10 11 10 10"),
    ("NIESSEN", {}, "NIESSEN", {},
     "order >= 3 | delta > alpha", "10 11 10 10"),
    ("FALSE1T", {}, "FALSE1T", {},
     "order >= 3 | tau >= 1", "11 11 10 11"),
]

# rejected calls: (id, params, error message); every one is a GraphError
REGISTRY_REJECTS = [
    ("THM1i", {"t": F(2)}, "THM1i needs rational t with 1 <= t < 2"),
    ("THM1ii", {"t": F(5, 4)}, "THM1ii needs rational t with 3/2 <= t < 2"),
    ("THM1ii", {"t": F(2)}, "THM1ii needs rational t with 3/2 <= t < 2"),
    ("THM2", {"eps": F(0)}, "THM2 needs rational eps with 0 < eps <= 1"),
    ("THM2", {"eps": F(3, 2)}, "THM2 needs rational eps with 0 < eps <= 1"),
    ("THM3i", {"ell": 3, "k": 1}, "THM3i needs ell in {1, 2}"),
    ("THM4i", {"ell": 1, "k": 1}, "THM4i needs ell in {2, 3}"),
    ("THM3ii", {"k": 0}, "k must be a positive integer"),
    ("THM4ii", {"k": -1}, "k must be a positive integer"),
    ("NOSUCH", {}, "unknown theorem id 'NOSUCH'"),
    ("NOSUCH", {"k": 1}, "unknown theorem id 'NOSUCH'"),
    ("THM3ii", {"k": 1.5}, "THM3ii takes a finite int k, not 1.5"),
    ("THM3ii", {"k": True}, "THM3ii takes a finite int k, not True"),
    ("THM4i", {"ell": 2.7, "k": 1}, "THM4i takes a finite int ell, not 2.7"),
    ("THM3i", {"ell": 1, "k": F(3, 2)},
     "THM3i takes a finite int k, not Fraction(3, 2)"),
    ("THM2", {"eps": math.inf}, "THM2 takes a finite Fraction eps, not inf"),
    ("THM2", {"eps": math.nan}, "THM2 takes a finite Fraction eps, not nan"),
    ("THM1i", {"t": "one"}, "THM1i takes a finite Fraction t, not 'one'"),
    ("THM1ii", {"t": None}, "THM1ii takes a finite Fraction t, not None"),
    ("THM1i", {}, "THM1i requires parameter 't'"),
    ("THM3i", {"k": 1}, "THM3i requires parameter 'ell'"),
    ("THM4i", {"ell": 2}, "THM4i requires parameter 'k'"),
    ("THM2", {"eps": F(1, 2), "t": F(3, 2), "k": 9},
     "THM2 does not take 'k', 't'"),
    ("EJKS2", {"eps": F(1, 2)}, "EJKS2 does not take 'eps'"),
    ("THM3ii", {"k": 1, "ell": 1}, "THM3ii does not take 'ell'"),
    # with two faults, the first in this order is reported: stray, k, ell
    ("THM3i", {"k": 0}, "k must be a positive integer"),
    ("THM4i", {"ell": 9, "k": 0}, "k must be a positive integer"),
    ("THM4i", {"ell": 9, "k": 0.5}, "THM4i takes a finite int k, not 0.5"),
    ("THM3ii", {"k": 0, "t": 1}, "THM3ii does not take 't'"),
]


def test_registry_pinned():
    hosts = [cycle(5), complete(4), path(3), h1_graph()]
    assert {row[0] for row in REGISTRY_PIN} == set(THEOREM_IDS)
    for tid, params, shown, spec_params, names, values in REGISTRY_PIN:
        spec = make_theorem(tid, **params)
        assert spec.theorem_id == tid
        assert (spec.describe(), spec.params) == (shown, spec_params)
        assert " | ".join(name for name, _ in spec.clauses) == names
        got = " ".join("".join(str(int(pred(GraphFacts(g))))
                               for _, pred in spec.clauses) for g in hosts)
        assert got == values, shown
    for tid, params, message in REGISTRY_REJECTS:
        with pytest.raises(GraphError) as info:
            make_theorem(tid, **params)
        assert type(info.value) is GraphError
        assert str(info.value) == message, (tid, params)


def test_check_theorem_confirms():
    # C5: delta = alpha = 2 and tau = 1 >= 2 - 1
    spec = make_theorem("THM2", eps=Fraction(1))
    report = check_theorem(spec, cycle(5))
    assert report.verdict == "confirms"
    assert report.hypotheses_hold and report.conclusion_holds


def test_check_theorem_vacuous():
    # H_1 is only 1-tough, short of the 3/2 threshold
    spec = make_theorem("THM2", eps=Fraction(1, 2))
    report = check_theorem(spec, h1_graph())
    assert report.verdict == "vacuous"
    assert report.conclusion_holds is None
    # clauses short-circuit: the failing toughness clause is last
    assert list(report.clause_results.values())[:2] == [True, True]


def test_check_theorem_counterexample():
    spec = make_theorem("FALSE1T")
    report = check_theorem(spec, GraphFacts(h1_graph(), name="H:n=1"))
    assert report.verdict == "COUNTEREXAMPLE"
    assert report.hypotheses_hold and report.conclusion_holds is False
    assert report.graph_name == "H:n=1"


def test_check_theorem_small_order_vacuous():
    report = check_theorem(make_theorem("EJKS2"), complete(2))
    assert report.verdict == "vacuous"


def test_hunt_counts():
    corpus = [encode_graph6(g) for g in
              (cycle(5), complete(4), path(3))] + ["not-a-graph6-line~~~"]
    report = hunt(corpus, make_theorem("EJKS2"))
    assert report.total == 4
    assert report.malformed == 1
    # K4 is 2-tough and has a 2-factor; C5 and P3 miss the threshold
    assert report.confirms == 1
    assert report.vacuous == 2
    assert report.clean


def test_hunt_finds_planted_counterexample():
    corpus = [cycle(4), h1_graph(), complete(5)]
    report = hunt(corpus, make_theorem("FALSE1T"))
    assert not report.clean
    assert len(report.counterexamples) == 1
    assert report.counterexamples[0].startswith("order-7")


def test_hunt_reuses_graph_facts():
    facts = [GraphFacts(cycle(5)), GraphFacts(complete(4))]
    r1 = hunt(facts, make_theorem("THM2", eps=Fraction(1)))
    r2 = hunt(facts, make_theorem("EJKS2"))
    assert r1.clean and r2.clean
    assert r1.confirms == 2 and r2.confirms == 1


def test_hunt_agrees_with_check_theorem(hunt_corpus):
    # hunt tallies from the loop check_theorem reports from: the same
    # counts, graph by graph, on fresh facts for each side
    def tallied(items, spec):
        verdicts = [(f.name, check_theorem(spec, f).verdict) for f in items]
        return HuntReport(
            spec.describe(), len(verdicts),
            sum(v == "confirms" for _, v in verdicts),
            sum(v == "vacuous" for _, v in verdicts), 0,
            sorted(name for name, v in verdicts if v == "COUNTEREXAMPLE"))

    def named(graphs):
        return [GraphFacts(g, name=f"g{i}") for i, g in enumerate(graphs)]

    hunted, checked = named(hunt_corpus), named(hunt_corpus)
    for start in range(0, len(hunt_corpus), 100):
        for spec in hunt_grid():
            assert (hunt(hunted[start:start + 100], spec)
                    == tallied(checked[start:start + 100], spec)), (
                spec.describe(), start)
    spec = make_theorem("FALSE1T")
    report = hunt([GraphFacts(h1_graph(), name="H:n=1")], spec)
    assert report == tallied([GraphFacts(h1_graph(), name="H:n=1")], spec)
    assert report.counterexamples == ["H:n=1"]


def test_forest_clause_waits_for_the_kappa_level(monkeypatch, hunt_corpus):
    # a forest theorem asks kappa >= L before P_m + kP_1-free, so no graph
    # below its level starts the induced-path sweep
    real = GraphFacts.is_free
    asked = []

    def recorded(facts, pattern):
        asked.append(facts.graph)
        return real(facts, pattern)

    monkeypatch.setattr(GraphFacts, "is_free", recorded)
    kappas = [invariants.connectivity(g) for g in hunt_corpus]
    facts = [GraphFacts(g) for g in hunt_corpus]
    forest = [spec for spec in hunt_grid()
              if any(name.endswith("-free") for name, _ in spec.clauses)]
    assert len(forest) == 12
    below = 0
    for spec in forest:
        names = [name for name, _ in spec.clauses]
        (level,) = [int(name.split(">= ")[1]) for name in names
                    if name.startswith("kappa >= ")]
        (free,) = [name for name in names if name.endswith("-free")]
        for f, kappa in zip(facts, kappas):
            asked.clear()
            report = check_theorem(spec, f)
            if kappa < level:
                below += 1
                assert asked == [], (spec.describe(), f.graph.edges)
                assert report.clause_results[free] is None
                assert report.clause_results[f"kappa >= {level}"] is False
            else:
                assert asked == [f.graph], (spec.describe(), f.graph.edges)
    assert below >= 1000


def test_graph_facts_match_direct_calls():
    rng = random.Random(31)
    thresholds = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 4),
                  Fraction(4, 3), Fraction(3, 2), Fraction(7, 4), 2, 3,
                  Fraction(3, 2), Fraction(2), INF]
    patterns = [ForestPattern((m,), k) for m in (2, 3, 4, 5, 6, 7)
                for k in (1, 2)]
    patterns += [ForestPattern.parse(s) for s in ("2P2", "P3+P2", "3P1")]
    hosts = [complete(1), complete(2), complete(5), cycle(5), edgeless(3),
             disjoint_union(cycle(3), path(4)), h1_graph()]
    hosts += [random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.9))
              for _ in range(40)]
    for g in hosts:
        facts = GraphFacts(g)
        queries = thresholds * 2 + patterns * 2 + ["toughness"]
        rng.shuffle(queries)
        for q in queries:
            if isinstance(q, ForestPattern):
                assert facts.is_free(q) == is_free(g, q), (g.edges, str(q))
            elif q == "toughness":
                assert facts.toughness == toughness(g), g.edges
            else:
                assert facts.tough_at(q) == is_t_tough(g, q), (g.edges, q)
        for bad in (0, Fraction(-1, 2), Fraction(0)):
            with pytest.raises(GraphError):
                facts.tough_at(bad)


def test_graph_facts_forest_answers_match_the_search():
    # every P_m + kP_1 with m <= 8 and k <= 3, in shuffled order, so that a
    # larger k, or an m above the registry's 7, starts a new sweep
    rng = random.Random(61)
    patterns = [ForestPattern((m,), k) for m in range(2, 9) for k in range(4)]
    hosts = [complete(n) for n in (1, 2, 5, 9)]
    hosts += [edgeless(n) for n in (1, 4, 11)]
    hosts += [cycle(n) for n in (3, 5, 8, 11)] + [h1_graph()]
    hosts += [random_graph(rng, rng.randint(2, 11), rng.uniform(0.1, 0.9))
              for _ in range(200)]
    for g in hosts:
        facts = GraphFacts(g)
        queries = patterns * 2
        rng.shuffle(queries)
        for p in queries:
            assert facts.is_free(p) == is_free(g, p), (g.edges, str(p))


def test_forest_questions_read_no_alpha(monkeypatch):
    # every P_m + kP_1, 2 <= m <= 7 and 0 <= k <= 3, in grid order and in
    # reverse, each order on fresh facts: the answers are those of the
    # search, and no question reads or searches for alpha
    real = invariants.independence_number
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "independence_number", counted)
    rng = random.Random(73)
    hosts = [cycle(n) for n in (5, 9)] + [h1_graph(), edgeless(4)]
    hosts += [random_graph(rng, rng.randint(2, 11), rng.uniform(0.1, 0.9))
              for _ in range(120)]
    grid = [ForestPattern((m,), k) for m in range(2, 8) for k in range(4)]
    for g in hosts:
        for patterns in (grid, grid[::-1]):
            facts = GraphFacts(g)
            for p in patterns:
                assert facts.is_free(p) == is_free(g, p), (g.edges, str(p))
            assert "alpha" not in facts.__dict__, g.edges
    assert calls == []


def test_graph_facts_grid_forest_clauses_do_not_search(monkeypatch,
                                                       hunt_corpus):
    real = forbidden.find_induced
    calls = []

    def counted(g, p):
        calls.append(p)
        return real(g, p)

    monkeypatch.setattr(forbidden, "find_induced", counted)
    patterns = [ForestPattern.parse(name.removesuffix("-free"))
                for spec in hunt_grid() for name, _ in spec.clauses
                if name.endswith("-free")]
    assert len(patterns) == 12
    for g in hunt_corpus[:200]:
        facts = GraphFacts(g)
        got = [facts.is_free(p) for p in patterns]
        assert got == [real(g, p) is None for p in patterns], g.edges
    assert calls == []


def masks_counted(monkeypatch) -> list:
    """The component sets the cut walk counts from here on, one entry each."""
    masks = []

    def counted(adj, avail, real=invariants.component_masks):
        masks.append(avail)
        return real(adj, avail)

    monkeypatch.setattr(invariants, "component_masks", counted)
    return masks


def test_graph_facts_derive_monotone_answers(monkeypatch):
    # the walk pauses where tau >= 1 and tau < 3/2 were decided; the
    # answers below are decided at that point, so nothing more is counted
    masks = masks_counted(monkeypatch)
    facts = GraphFacts(cycle(5))  # tau = 1
    assert facts.tough_at(Fraction(1)) and not facts.tough_at(Fraction(3, 2))
    assert masks
    masks.clear()
    assert facts.tough_at(Fraction(1, 2))
    assert not facts.tough_at(Fraction(7, 4))
    assert not facts.tough_at(INF)
    assert not facts.tough_at(Fraction(5, 4))
    assert masks == []


def test_graph_facts_walk_once(monkeypatch, atlas_connected):
    # each answer of one walk, asked in shuffled order, is that of a fresh
    # call, and the questions together count no more component sets than
    # one full toughness walk: no mask is counted twice
    rng = random.Random(67)
    thresholds = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 4),
                  Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(3),
                  INF]
    hosts = [g for g in atlas_connected if not g.is_complete()]
    hosts += [random_connected_graph(rng, rng.randint(8, 11))
              for _ in range(200)]
    masks = masks_counted(monkeypatch)
    for g in hosts:
        queries = thresholds * 2 + ["toughness"]
        rng.shuffle(queries)
        facts = GraphFacts(g)
        asked = 0
        for q in queries:
            before = len(masks)
            got = facts.toughness if q == "toughness" else facts.tough_at(q)
            asked += len(masks) - before
            if q == "toughness":
                assert got == toughness(g), g.edges
            else:
                assert got == is_t_tough(g, q), (g.edges, q)
        masks.clear()
        toughness(g)
        assert asked <= len(masks), g.edges


def test_graph_facts_leave_no_cycle(hunt_corpus):
    # the walk is given alpha and kappa on each call and keeps no reference
    # to the facts, so they are freed without a garbage collection
    grid = hunt_grid()
    gc.disable()
    try:
        for g in hunt_corpus[:20]:
            facts = GraphFacts(g)
            for spec in grid:
                check_theorem(spec, facts)
            facts.toughness
            ref = weakref.ref(facts)
            del facts
            assert ref() is None, g.edges
    finally:
        gc.enable()


@pytest.mark.parametrize("t", ["abc", None, [1], -1, float("nan"),
                               float("-inf")])
def test_graph_facts_reject_bad_thresholds(t):
    facts = GraphFacts(cycle(5))
    assert facts.tough_at(1) and not facts.tough_at(2)  # the walk is paused
    with pytest.raises(GraphError):
        facts.tough_at(t)


def test_hunt_fills_one_layer_table_per_order(monkeypatch, hunt_corpus):
    # the cut walks of a hunt read P_k and sel of each order n' from one
    # table, filled at its first build; the answers stay exact
    builds, asked = [], []

    def counted(radj, top, real=invariants._disconnected_families):
        builds.append(len(radj))
        return real(radj, top)

    def recording(g, t, real=invariants.is_t_tough, **kwargs):
        answer = real(g, t, **kwargs)
        asked.append((g, t, answer))
        return answer

    monkeypatch.setattr(invariants, "_disconnected_families", counted)
    monkeypatch.setattr(invariants, "is_t_tough", recording)
    invariants._vertex_sets.cache_clear()
    facts = [GraphFacts(g) for g in hunt_corpus[:200]]
    for spec in hunt_grid():
        hunt(facts, spec)
    orders = set(builds)
    info = invariants._vertex_sets.cache_info()
    assert len(builds) > len(orders) >= 2
    assert (info.misses, info.currsize) == (len(orders), len(orders))
    assert info.hits + info.misses == len(builds)
    taus = {}
    for g, t, answer in asked[::25]:
        if id(g) not in taus:
            taus[id(g)] = brute_toughness(g)[0]
        assert answer == (taus[id(g)] >= t), (g.edges, t)


def test_graph_facts_search_alpha_once(monkeypatch, hunt_corpus):
    # GraphFacts.alpha and the alpha stop of the cut walk share one search,
    # whichever of the two asks first
    real = invariants.independence_number
    searched = []

    def counted(g):
        searched.append(id(g))
        return real(g)

    monkeypatch.setattr(invariants, "independence_number", counted)
    walk_first = 0
    for g in hunt_corpus[:100]:
        facts = GraphFacts(g)
        facts.tough_at(Fraction(3, 2))
        walk_first += len(searched)
        assert facts.alpha == real(g)[0]
        assert len(searched) <= 1
        searched.clear()
    assert walk_first  # the walk reached its alpha stop
    facts = [GraphFacts(g) for g in hunt_corpus]
    grid = hunt_grid()
    assert len(grid) == 23
    for start in range(0, len(facts), 100):
        for spec in grid:
            assert hunt(facts[start:start + 100], spec).clean
    assert len(searched) == len(set(searched)) <= len(hunt_corpus)


def test_graph_facts_search_kappa_once(monkeypatch, hunt_corpus):
    # a kappa >= k clause and the kappa floor of the cut walk share one
    # search; is_t_tough(g, 1) stops at a cut vertex without one, and a
    # graph of minimum degree 2 has no size to skip
    real = invariants.connectivity
    searched = []

    def counted(g):
        searched.append(id(g))
        return real(g)

    monkeypatch.setattr(invariants, "connectivity", counted)
    walk_asked = 0
    for g in hunt_corpus[:100]:
        facts = GraphFacts(g)
        facts.tough_at(Fraction(3, 2))
        walk_asked += len(searched)
        searched.clear()
        facts = GraphFacts(g)
        assert facts.kappa >= 1
        facts.tough_at(Fraction(3, 2))
        facts.tough_at(Fraction(5, 4))
        facts.toughness
        assert searched == [id(g)]
        searched.clear()
    assert walk_asked  # the walk asked for kappa by itself
    cut_vertex = [g for g in hunt_corpus if real(g) == 1]
    assert len(cut_vertex) >= 50
    for g in cut_vertex:
        assert not is_t_tough(g, 1)
    assert is_t_tough(cycle(8), 1)
    assert toughness(cycle(8)).value == 1
    assert searched == []


# Ratio inequality ---------------------------------------------------------------

def test_lemma_inequality_equality_case():
    # x = y = 1, t = 1, a = (2, 2): both sides equal 1
    assert check_lemma_inequality(1, 1, 1, [2, 2])


def test_lemma_inequality_examples():
    assert check_lemma_inequality(Fraction(7, 2), 2, 2, [3, 4, 3])
    assert check_lemma_inequality(5, 1, 1, [2, 12])


def test_lemma_inequality_preconditions():
    with pytest.raises(GraphError):
        check_lemma_inequality(1, 2, 1, [2, 2])  # x < y
    with pytest.raises(GraphError):
        check_lemma_inequality(1, 0, 1, [2, 2])  # y = 0
    with pytest.raises(GraphError):
        check_lemma_inequality(1, 1, 0, [2])  # t < 1
    with pytest.raises(GraphError):
        check_lemma_inequality(1, 1, 2, [2, 2])  # wrong count
    with pytest.raises(GraphError):
        check_lemma_inequality(1, 1, 1, [2, 1])  # a_i < 2
    with pytest.raises(GraphError):
        check_lemma_inequality(1, 1, 1, [5, 2])  # a_0 > max tail


def test_lemma_inequality_trials():
    assert run_lemma_inequality_trials(2000, seed=5) == 0
    # deterministic for a fixed seed
    assert (run_lemma_inequality_trials(500, seed=9)
            == run_lemma_inequality_trials(500, seed=9))


# Family verification -------------------------------------------------------------

def test_verify_family_h1():
    results = verify_family(FamilySpec.parse("H:n=1"))
    names = {r.name for r in results}
    assert {"min_degree", "alpha", "toughness_exact",
            "two_factor_existence", "connectivity"} <= names
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_verify_family_r():
    results = verify_family(FamilySpec.parse("R:m=1,a=2,b=1,c=3"))
    assert any(r.name == "toughness_exact" for r in results)
    assert all(r.passed for r in results)


def test_verify_family_ghat():
    results = verify_family(FamilySpec.parse("Ghat:n=1,k=1"))
    names = {r.name for r in results}
    # order 37: exact toughness is out of reach, the cut is checked instead
    assert "toughness_exact" not in names
    assert {"cut_component_count", "cut_ratio", "barrier_deficiency",
            "barrier_B_size", "barrier_B_degrees",
            "two_factor_existence"} <= names
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_verify_family_takes_only_its_own_instance():
    spec = FamilySpec.parse("R:m=1,a=2,b=1,c=3")
    assert verify_family(spec, build(spec)) == verify_family(spec)
    with pytest.raises(GraphError):
        verify_family(spec, build(FamilySpec.parse("H:n=1")))


def test_verify_family_gprime():
    results = verify_family(FamilySpec.parse("Gprime:n=1,k=1"))
    names = {r.name for r in results}
    assert {"connected", "order"} <= names
    assert all(r.passed for r in results)
