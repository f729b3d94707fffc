"""Construction families: shapes, distinguished sets, claimed values, and the
degree-condition gap arithmetic."""

from fractions import Fraction

import pytest

from tough2f import GraphError, remark1b_gap_check
from tough2f.families import FamilySpec, build, expected
from tough2f.forbidden import ForestPattern
from tough2f.graphs import count_components
from tough2f.invariants import min_degree


def test_spec_parse_and_str():
    spec = FamilySpec.parse("R:m=1,a=2,b=1,c=3")
    assert spec.family == "R"
    assert spec.as_dict == {"m": 1, "a": 2, "b": 1, "c": 3}
    assert FamilySpec.parse(str(spec)) == spec
    assert FamilySpec.parse(" Ghat : n=2 , k=1 ".replace(" ", "")) == \
        FamilySpec("Ghat", (("n", 2), ("k", 1)))


def test_spec_validation():
    for text in ("X:n=1", "H:n=0", "H:k=1", "R:m=1,a=0,b=1,c=1",
                 "Gprime:n=0,k=2", "G:n=1,k=0", "Ghat:n=1,k=2",
                 "Gstar:n=0,k=1", "H", "H:n=x", "H:n", "H:n=1,n=2",
                 "G:n=0,k=1"):
        with pytest.raises(GraphError):
            FamilySpec.parse(text)
    # boundary cases that are valid
    FamilySpec.parse("Gprime:n=0,k=1")
    FamilySpec.parse("Gstar:n=1,k=1")


def test_h_shape():
    inst = build(FamilySpec.parse("H:n=1"))
    g = inst.graph
    assert g.n == 7 and len(g.edges) == 12
    assert inst.sets["apex"] == frozenset({0})
    assert inst.sets["independent"] == frozenset({1, 2, 3})
    assert inst.sets["clique"] == frozenset({4, 5, 6})
    assert inst.matching == ((1, 4), (2, 5), (3, 6))
    # independent side really is independent
    indep = sorted(inst.sets["independent"])
    assert all(not g.has_edge(u, v)
               for i, u in enumerate(indep) for v in indep[i + 1:])

    g2 = build(FamilySpec.parse("H:n=2")).graph
    assert g2.n == 12 and len(g2.edges) == 36


def test_r_shape():
    inst = build(FamilySpec.parse("R:m=1,a=2,b=1,c=3"))
    g = inst.graph
    assert g.n == 5 and len(g.edges) == 9
    assert inst.sets["apex"] == frozenset({0, 1, 2})
    inst2 = build(FamilySpec.parse("R:m=2,a=1,b=2,c=1"))
    # K2 joined to 2 copies of K4
    assert inst2.graph.n == 10
    assert len(inst2.graph.edges) == 1 + 2 * 6 + 2 * 8


def test_gadget_family_orders():
    assert build(FamilySpec.parse("Gprime:n=1,k=1")).graph.n == 27
    assert build(FamilySpec.parse("G:n=1,k=1")).graph.n == 28
    assert build(FamilySpec.parse("Gstar:n=1,k=1")).graph.n == 36
    assert build(FamilySpec.parse("Ghat:n=1,k=1")).graph.n == 37
    assert build(FamilySpec.parse("Ghat:n=2,k=1")).graph.n == 62


def test_ghat_labeled_sets():
    inst = build(FamilySpec.parse("Ghat:n=1,k=1"))
    g = inst.graph
    n = 1
    size = 3 * (2 * n + 1)
    assert inst.sets["A"] == inst.sets["apex"] == frozenset(range(n))
    b = inst.sets["B"]
    assert b == inst.sets["subdivision_far"]
    assert len(b) == size
    # every B vertex sees its clique partner, its subdivision partner, and
    # the apexes
    assert all(g.degree(v) == n + 2 for v in b)
    # u_independent is an independent set hitting each triangle once
    u_set = sorted(inst.sets["u_independent"])
    assert len(u_set) == 2 * n + 1
    assert all(not g.has_edge(x, y)
               for i, x in enumerate(u_set) for y in u_set[i + 1:])
    # W = apexes + the two non-u vertices per triangle + all of the clique
    # except v + the subdividing vertex u
    assert len(inst.sets["W"]) == n + 2 * (2 * n + 1) + (size - 1) + 1
    assert len(inst.sets["W"]) == 11 * n + 5


def test_ghat_cut_component_count():
    for n, k in ((1, 1), (2, 1), (2, 2)):
        inst = build(FamilySpec(("Ghat"), (("n", n), ("k", k))))
        w = inst.sets["W"]
        assert count_components(inst.graph, w) == 3 * (2 * n + 1) + 1
        assert count_components(inst.graph, w - inst.sets["subdivision_near"]) \
            == 3 * (2 * n + 1)


def test_expected_h():
    exp = expected(FamilySpec.parse("H:n=2"))
    assert exp.toughness == Fraction(6, 5)
    assert exp.alpha == 5
    assert exp.min_degree == 3
    assert exp.has_two_factor is False
    assert ForestPattern((2,), 3) in exp.claimed_patterns
    assert exp.connectivity_at_least == 3


def test_expected_r():
    exp = expected(FamilySpec.parse("R:m=1,a=2,b=1,c=3"))
    assert exp.toughness == Fraction(3, 2)
    assert exp.alpha == 2
    assert exp.min_degree == 3


def test_expected_ghat():
    exp = expected(FamilySpec.parse("Ghat:n=1,k=1"))
    assert exp.toughness == Fraction(2) - Fraction(4, 10)
    assert exp.toughness == Fraction(8, 5)
    a, b, d = exp.claimed_barrier
    assert d == -2
    w, comp_count, ratio = exp.claimed_cut
    assert comp_count == 10 and ratio == Fraction(16, 10)
    assert len(w) == 16
    assert exp.claimed_patterns == (ForestPattern((7,), 1),
                                    ForestPattern((6,), 1))
    assert exp.connectivity_at_least == 3


def test_expected_min_degree_matches_instances():
    for text in ("H:n=1", "H:n=3", "R:m=1,a=2,b=1,c=3", "R:m=2,a=2,b=1,c=3"):
        spec = FamilySpec.parse(text)
        assert min_degree(build(spec).graph) == expected(spec).min_degree


# Gap-condition arithmetic -------------------------------------------------------

def oracle_m_bound(a: int, c: int) -> Fraction:
    # same bound derived through the toughness value t = c/a instead of
    # through the cleared-denominator polynomial form
    t = Fraction(c, a)
    return Fraction(5, 2) * (7 * t - 7 - t * t) / (3 * t - 2 - t * t)


def test_remark1b_examples():
    for m in (13, 14, 15):
        report = remark1b_gap_check(m, 2, 1, 3)
        assert report.m_bound == Fraction(25, 2) == oracle_m_bound(2, 3)
        assert report.degree_exceeds_gap
        assert report.dense_threshold_fails
        assert report.both_hold


def test_remark1b_m_bound_matches_oracle():
    import math
    for a, c in ((2, 3), (4, 6), (4, 7), (3, 5), (5, 8)):
        # valid parameter region 3a/2 <= c < 2a
        assert Fraction(3 * a, 2) <= c < 2 * a
        m = math.ceil(oracle_m_bound(a, c))
        report = remark1b_gap_check(m, a, 1, c)
        assert report.m_bound == oracle_m_bound(a, c)


def test_remark1b_errors():
    with pytest.raises(GraphError):
        remark1b_gap_check(12, 2, 1, 3)  # below the m bound
    with pytest.raises(GraphError):
        remark1b_gap_check(13, 2, 1, 4)  # c = 2a
    with pytest.raises(GraphError):
        remark1b_gap_check(13, 2, 1, 2)  # c < 3a/2
    with pytest.raises(GraphError):
        remark1b_gap_check(0, 2, 1, 3)
