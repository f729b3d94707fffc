"""Theorem registry, corpus hunting, the ratio inequality, and whole-family
verification."""

import random
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
    hunt,
    invariants,
    is_free,
    is_t_tough,
    make_theorem,
    path,
    run_lemma_inequality_trials,
    verify_family,
)
from tough2f.families import FamilySpec, build
from tough2f.theorems import THEOREM_IDS

from conftest import random_graph


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
        queries = thresholds * 2 + patterns * 2
        rng.shuffle(queries)
        for q in queries:
            if isinstance(q, ForestPattern):
                assert facts.is_free(q) == is_free(g, q), (g.edges, str(q))
            else:
                assert facts.tough_at(q) == is_t_tough(g, q), (g.edges, q)
        for bad in (0, Fraction(-1, 2), Fraction(0)):
            with pytest.raises(GraphError):
                facts.tough_at(bad)


def test_graph_facts_derive_monotone_answers(monkeypatch):
    asked = []

    def counted(g, t):
        asked.append(t)
        return is_t_tough(g, t)

    monkeypatch.setattr(invariants, "is_t_tough", counted)
    facts = GraphFacts(cycle(5))  # tau = 1
    assert facts.tough_at(Fraction(1)) and not facts.tough_at(Fraction(3, 2))
    assert facts.tough_at(Fraction(1, 2))
    assert not facts.tough_at(Fraction(7, 4))
    assert not facts.tough_at(INF)
    assert asked == [Fraction(1), Fraction(3, 2)]
    assert not facts.tough_at(Fraction(5, 4))
    assert len(asked) == 3


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


def test_verify_family_gprime():
    results = verify_family(FamilySpec.parse("Gprime:n=1,k=1"))
    names = {r.name for r in results}
    assert {"connected", "order"} <= names
    assert all(r.passed for r in results)
