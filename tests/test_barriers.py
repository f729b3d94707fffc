"""Deficiency, barrier searches, biased-barrier structure, and the cut-set
witness construction."""

import random
from fractions import Fraction
from itertools import product

import networkx as nx
import pytest

from tough2f import (
    Graph,
    GraphError,
    check_biased_properties,
    complete,
    cycle,
    decompose,
    deficiency,
    extract_witness,
    find_barrier,
    find_biased_barrier,
    find_two_factor,
    path,
    toughness,
)
from tough2f.barriers import (EXHAUSTIVE_BARRIER_CAP, Barrier,
                               _barriers_by_union, _deficiency_masks)
from tough2f.families import FamilySpec, build
from tough2f.graphs import count_components

from conftest import nx_to_graph, random_graph


def star(k: int) -> Graph:
    return Graph(k + 1, [(0, v) for v in range(1, k + 1)])


# Deficiency ---------------------------------------------------------------------

def test_deficiency_examples():
    assert deficiency(complete(4), (), ()) == 0
    assert deficiency(path(3), (), (1,)) == -2
    assert deficiency(path(2), (), (0,)) == -2
    h1 = build(FamilySpec.parse("H:n=1"))
    assert deficiency(h1.graph, h1.sets["apex"], h1.sets["independent"]) == -2
    # C5 has a 2-factor, so no pair reaches -2; spot-check a few
    assert deficiency(cycle(5), (0,), (2, 3)) >= 0
    assert deficiency(cycle(5), (), (0,)) == 0


def test_deficiency_rejects_overlap():
    with pytest.raises(GraphError):
        deficiency(cycle(4), (0,), (0, 2))
    with pytest.raises(GraphError):
        deficiency(cycle(4), (9,), ())


def test_deficiency_is_even():
    rng = random.Random(37)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.0, 1.0))
        pool = list(range(g.n))
        rng.shuffle(pool)
        a_size = rng.randint(0, g.n)
        b_size = rng.randint(0, g.n - a_size)
        a, b = pool[:a_size], pool[a_size:a_size + b_size]
        assert deficiency(g, a, b) % 2 == 0


# Decomposition ------------------------------------------------------------------

def test_decompose_star():
    dec = decompose(star(3), (), (0,))
    assert len(dec.components) == 3
    assert all(info.edges_to_b == 1 and info.odd for info in dec.components)
    assert dec.odd_count == 3
    assert dec.per_u[0].h == 3 and dec.per_u[0].o == 0


def test_decompose_h1():
    inst = build(FamilySpec.parse("H:n=1"))
    dec = decompose(inst.graph, inst.sets["apex"], inst.sets["independent"])
    # one remaining component: the clique side, with 3 matching edges into B
    assert len(dec.components) == 1
    assert dec.components[0].edges_to_b == 3
    assert dec.odd_count == 1
    for u in inst.sets["independent"]:
        assert dec.per_u[u].o == 1 and dec.per_u[u].h == 1
        assert dec.per_u[u].edges_per_component == (1,)


# Barrier search -----------------------------------------------------------------

def test_find_barrier_matches_two_factor():
    cases = [
        (cycle(5), False),
        (complete(4), False),
        (path(4), True),
        (star(3), True),
        (build(FamilySpec.parse("H:n=1")).graph, True),
    ]
    rng = random.Random(53)
    seeded = 0
    while seeded < 30:
        g = random_graph(rng, rng.randint(8, 12), rng.uniform(0.15, 0.5))
        if g.is_connected():
            cases.append((g, not find_two_factor(g).exists))
            seeded += 1
    # the seeded graphs include some with and some without a 2-factor
    assert 0 < sum(expect for _, expect in cases[-30:]) < 30
    for g, expect_barrier in cases:
        b = find_barrier(g)
        assert (b is not None) == expect_barrier
        if b is not None:
            assert b.deficiency <= -2
            assert deficiency(g, b.a, b.b) == b.deficiency


def plain_barriers(g: Graph) -> set:
    found = set()
    for side in product((None, "A", "B"), repeat=g.n):
        a_mask = sum(1 << v for v, x in enumerate(side) if x == "A")
        b_mask = sum(1 << v for v, x in enumerate(side) if x == "B")
        d = _deficiency_masks(g, a_mask, b_mask)
        if d <= -2:
            found.add((a_mask, b_mask, d))
    return found


def test_union_walk_yields_every_barrier_once():
    graphs = [nx_to_graph(h) for h in nx.graph_atlas_g()
              if h.number_of_nodes() <= 6]
    rng = random.Random(47)
    graphs += [random_graph(rng, rng.randint(7, 9), rng.uniform(0.2, 0.7))
               for _ in range(40)]
    has_barrier = []
    for g in graphs:
        walked = list(_barriers_by_union(g))
        assert len(walked) == len(set(walked))
        assert set(walked) == plain_barriers(g)
        has_barrier.append(bool(walked))
    # the random graphs include some with and some without a 2-factor
    assert 0 < sum(has_barrier[-40:]) < 40


def test_search_caps():
    big = cycle(EXHAUSTIVE_BARRIER_CAP + 1)
    with pytest.raises(GraphError):
        find_barrier(big)
    with pytest.raises(GraphError):
        find_biased_barrier(big)


def test_biased_barrier_p3():
    # the middle vertex joins A; its neighbours then have degree 0 in G - A
    b = find_biased_barrier(path(3))
    assert b == Barrier(frozenset({1}), frozenset({0, 2}), -2)


def test_biased_barrier_star():
    b = find_biased_barrier(star(3))
    assert b == Barrier(frozenset({0}), frozenset({1, 2}), -2)


def test_biased_barrier_maximizes_a_then_minimizes_b():
    rng = random.Random(41)
    checked = 0
    while checked < 15:
        g = random_graph(rng, rng.randint(4, 7), rng.uniform(0.2, 0.6))
        biased = find_biased_barrier(g)
        if biased is None:
            continue
        checked += 1
        best = None
        for side in product((None, "A", "B"), repeat=g.n):
            a = [v for v, x in enumerate(side) if x == "A"]
            b = [v for v, x in enumerate(side) if x == "B"]
            if deficiency(g, a, b) <= -2:
                key = (-len(a), len(b))
                if best is None or key < best:
                    best = key
        assert best == (-len(biased.a), len(biased.b))


# Biased-barrier structure -------------------------------------------------------

def test_check_biased_properties_p3():
    # P3 is not 1-tough; the core properties hold, the odd-class condition
    # is not required
    report = check_biased_properties(path(3), find_biased_barrier(path(3)))
    assert report.b_independent
    assert report.even_components_isolated
    assert report.b_edges_into_odd_simple
    assert report.odd_vertices_edges_to_b_simple
    assert report.counting_inequality
    assert not report.big_odd_class_nonempty
    assert not report.one_tough_applicable
    assert report.all_hold


def test_check_biased_properties_h1():
    h1 = build(FamilySpec.parse("H:n=1")).graph
    report = check_biased_properties(h1, find_biased_barrier(h1))
    assert report.one_tough_applicable
    assert report.big_odd_class_nonempty
    assert report.all_hold


def test_check_biased_properties_rejects_non_barrier():
    with pytest.raises(GraphError):
        check_biased_properties(cycle(4), Barrier(frozenset(), frozenset(), 0))


# Witness construction -----------------------------------------------------------

def test_extract_witness_star():
    # the (empty, {center}) barrier has h(center) = 3, driving the
    # iterative branch of the construction
    g = star(3)
    witness = extract_witness(g, Barrier(frozenset(), frozenset({0}), -2))
    assert witness.w == frozenset({0})
    assert witness.ell == 1 and witness.ell_prime == 1
    assert witness.h_sum == 3
    assert witness.component_count == 3
    assert witness.ratio == Fraction(1, 3)


def test_extract_witness_h1():
    h1 = build(FamilySpec.parse("H:n=1")).graph
    witness = extract_witness(h1, find_biased_barrier(h1))
    tau = toughness(h1).value
    assert tau <= witness.ratio <= 1
    assert count_components(h1, witness.w) == witness.component_count


def test_extract_witness_rejects_non_barrier():
    with pytest.raises(GraphError):
        extract_witness(cycle(5), Barrier(frozenset(), frozenset(), 0))


def test_extract_witness_needs_usable_structure():
    # P3's biased barrier has only C_1 components and max h = 1
    with pytest.raises(GraphError):
        extract_witness(path(3), find_biased_barrier(path(3)))


def test_extract_witness_bounds_toughness():
    rng = random.Random(43)
    checked = 0
    while checked < 25:
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.2, 0.6))
        if not g.is_connected() or find_two_factor(g).exists:
            continue
        barrier = find_biased_barrier(g)
        try:
            witness = extract_witness(g, barrier)
        except GraphError:
            continue  # no usable structure (non-1-tough graphs may lack it)
        checked += 1
        comps = count_components(g, witness.w)
        assert comps == witness.component_count >= 2
        assert witness.ratio == Fraction(len(witness.w), comps)
        assert witness.ratio >= toughness(g).value
