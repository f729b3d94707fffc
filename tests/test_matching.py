"""Gadget construction, blossom matching, and 2-factor search."""

import random

import networkx as nx
import pytest

from tough2f import (
    GraphError,
    TwoFactor,
    brute_force_two_factor,
    build_gadget,
    complete,
    cycle,
    disjoint_union,
    find_two_factor,
    max_matching,
    path,
    verify_two_factor,
)
from tough2f.families import FamilySpec, build
from tough2f.matching import BRUTE_FORCE_EDGE_CAP, BRUTE_FORCE_ORDER_CAP

from conftest import graph_to_nx, random_graph


def petersen():
    from test_invariants import petersen as p
    return p()


# Gadget ------------------------------------------------------------------------

def test_gadget_sizes():
    # order is 4|E| - 2|V|: d(v) slots plus d(v)-2 cores per vertex
    for g in (cycle(4), complete(4), petersen()):
        gadget = build_gadget(g)
        assert gadget.graph.n == 4 * len(g.edges) - 2 * g.n
        assert len(gadget.edge_map) == len(g.edges)
        assert set(gadget.edge_map.values()) == set(g.edges)
        slots = sum(1 for _, kind in gadget.vertex_origin if kind == "slot")
        assert slots == 2 * len(g.edges)


def test_gadget_requires_min_degree_two():
    with pytest.raises(GraphError):
        build_gadget(path(3))


def test_gadget_cycle_is_host_copy():
    # degree-2 vertices contribute no cores, so the gadget of C4 has exactly
    # the four host-edge images
    gadget = build_gadget(cycle(4))
    assert gadget.graph.n == 8
    assert len(gadget.graph.edges) == 4
    assert set(gadget.graph.edges) == set(gadget.edge_map)


# Maximum matching ---------------------------------------------------------------

def test_max_matching_known_sizes():
    assert len(max_matching(cycle(4)).edges) == 2
    assert len(max_matching(cycle(5)).edges) == 2
    assert len(max_matching(complete(4)).edges) == 2
    assert len(max_matching(path(4)).edges) == 2
    assert len(max_matching(petersen()).edges) == 5
    assert max_matching(path(1)).edges == frozenset()


def test_max_matching_is_valid():
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        m = max_matching(g)
        used = [v for e in m.edges for v in e]
        assert len(used) == len(set(used))
        assert all(g.has_edge(u, v) for u, v in m.edges)


def test_max_matching_matches_networkx():
    rng = random.Random(29)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.9))
        theirs = nx.max_weight_matching(graph_to_nx(g), maxcardinality=True)
        assert len(max_matching(g).edges) == len(theirs)


def nx_matching_size(h) -> int:
    return len(nx.max_weight_matching(graph_to_nx(h), maxcardinality=True))


def test_gadget_matching_matches_networkx():
    # gadgets of orders up to a few hundred, where blossoms nest deeply
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        g = random_graph(rng, rng.randint(8, 20), rng.uniform(0.15, 0.5))
        if any(g.degree(v) < 2 for v in range(g.n)):
            continue
        h = build_gadget(g).graph
        assert len(max_matching(h).edges) == nx_matching_size(h)
        checked += 1


@pytest.mark.parametrize("text", ["G:n=1,k=1", "Ghat:n=1,k=1"])
def test_family_gadget_matching_matches_networkx(text):
    h = build_gadget(build(FamilySpec.parse(text)).graph).graph
    m = max_matching(h)
    assert len(m.edges) == nx_matching_size(h)
    assert not m.covers(h.n)  # neither construction has a 2-factor


def test_matching_covers():
    assert max_matching(cycle(4)).covers(4)
    assert not max_matching(cycle(5)).covers(5)


# 2-factors ----------------------------------------------------------------------

def test_verify_two_factor():
    c5 = cycle(5)
    assert verify_two_factor(c5, TwoFactor(frozenset(c5.edges)))
    assert not verify_two_factor(c5, TwoFactor(frozenset(c5.edges[:3])))
    with pytest.raises(GraphError):
        verify_two_factor(c5, TwoFactor(frozenset({(0, 2)})))


def test_find_two_factor_positive():
    for g in (cycle(3), cycle(7), complete(4), complete(5), petersen(),
              disjoint_union(cycle(3), cycle(4))):
        result = find_two_factor(g)
        assert result.exists
        assert verify_two_factor(g, result.factor)


def test_find_two_factor_negative():
    from tough2f import Graph
    k23 = Graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])
    for g in (path(4), k23, build(FamilySpec.parse("H:n=1")).graph):
        assert not find_two_factor(g).exists


def test_find_two_factor_certify_attaches_barrier():
    from tough2f.barriers import deficiency
    h1 = build(FamilySpec.parse("H:n=1")).graph
    result = find_two_factor(h1, certify=True)
    assert not result.exists and result.barrier is not None
    assert deficiency(h1, result.barrier.a, result.barrier.b) <= -2
    # positive answers carry no barrier
    assert find_two_factor(cycle(4), certify=True).barrier is None


def test_brute_force_two_factor():
    assert brute_force_two_factor(path(4)) is None
    factor = brute_force_two_factor(cycle(6))
    assert factor is not None and verify_two_factor(cycle(6), factor)
    assert brute_force_two_factor(
        build(FamilySpec.parse("H:n=1")).graph) is None


def test_brute_force_caps():
    # refuses only when both the order and edge caps are exceeded
    big_sparse = cycle(BRUTE_FORCE_ORDER_CAP + 8)
    assert brute_force_two_factor(big_sparse) is not None
    dense_small = complete(7)  # 21 edges > edge cap, order under cap
    assert len(dense_small.edges) > BRUTE_FORCE_EDGE_CAP
    assert brute_force_two_factor(dense_small) is not None
    with pytest.raises(GraphError):
        brute_force_two_factor(complete(BRUTE_FORCE_ORDER_CAP + 1))


def test_blossom_agrees_with_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.8))
        assert find_two_factor(g).exists == (
            brute_force_two_factor(g) is not None)
