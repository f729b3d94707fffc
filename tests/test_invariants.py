"""Exact invariants against independent brute-force oracles and known values."""

import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from tough2f import (
    Graph,
    GraphError,
    INF,
    complete,
    connectivity,
    cycle,
    delete,
    disjoint_union,
    edgeless,
    independence_number,
    is_t_tough,
    min_degree,
    path,
    toughness,
)
from tough2f.families import build, FamilySpec
from tough2f.graphs import complement, count_components

from conftest import graph_to_nx, random_graph


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


# Brute-force oracles ------------------------------------------------------------

def brute_alpha(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if all(not g.has_edge(u, v) for u, v in combinations(vs, 2)):
            best = max(best, len(vs))
    return best


def brute_kappa(g: Graph) -> int:
    if g.is_complete():
        return g.n - 1
    best = g.n - 1
    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            if count_components(g, cut) >= 2:
                return size
    return best


def brute_toughness(g: Graph):
    """(tau, witness) over all subsets: the first minimum-ratio cut in
    (size, lexicographic) order, or None when there is no cut set."""
    best = None
    for size in range(1, g.n):
        for cut in combinations(range(g.n), size):
            comps = count_components(g, cut)
            if comps >= 2:
                ratio = Fraction(size, comps)
                if best is None or ratio < best[0]:
                    best = (ratio, frozenset(cut))
    return best


# Known values -------------------------------------------------------------------

def test_min_degree():
    assert min_degree(path(4)) == 1
    assert min_degree(complete(5)) == 4
    with pytest.raises(GraphError):
        min_degree(edgeless(0))


def test_known_invariants():
    cases = [
        # graph, alpha, kappa, toughness
        (complete(4), 1, 3, INF),
        (path(3), 2, 1, Fraction(1, 2)),
        (cycle(5), 2, 2, Fraction(1)),
        (petersen(), 4, 3, Fraction(4, 3)),
        (Graph(4, [(v, 3) for v in range(3)]), 3, 1, Fraction(1, 3)),
    ]
    for g, alpha, kappa, tau in cases:
        assert independence_number(g)[0] == alpha
        assert connectivity(g) == kappa
        assert toughness(g).value == tau


def test_family_invariants():
    h1 = build(FamilySpec.parse("H:n=1")).graph
    assert min_degree(h1) == 2
    assert independence_number(h1)[0] == 3
    assert connectivity(h1) == 2
    assert toughness(h1).value == Fraction(1)

    r = build(FamilySpec.parse("R:m=1,a=2,b=1,c=3")).graph
    assert r.n == 5
    assert min_degree(r) == 3
    assert independence_number(r)[0] == 2
    assert toughness(r).value == Fraction(3, 2)


def test_toughness_conventions():
    assert toughness(complete(6)).witness is None
    disconnected = disjoint_union(cycle(3), cycle(3))
    result = toughness(disconnected)
    assert result.value == Fraction(0) and result.witness == frozenset()
    assert toughness(edgeless(2)).value == 0


def test_toughness_witness_is_sound():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.8))
        result = toughness(g)
        if result.value in (INF, 0):
            continue
        comps = count_components(g, result.witness)
        assert comps >= 2
        assert result.value == Fraction(len(result.witness), comps)


def test_toughness_matches_oracle():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.9))
        expected = brute_toughness(g)
        got = toughness(g).value
        if expected is None:
            assert (got == INF) == g.is_complete()
            if not g.is_complete():
                assert got == 0
        elif g.is_connected():
            assert got == expected[0]


def test_toughness_and_kappa_match_oracles_on_atlas(atlas_connected):
    # the witness is printed by the CLI, so its tie-break is pinned too
    for g in atlas_connected:
        result = toughness(g)
        expected = brute_toughness(g)
        if expected is None:
            assert result.value == INF and result.witness is None
        else:
            assert (result.value, result.witness) == expected, g.edges
        assert connectivity(g) == brute_kappa(g), g.edges


def test_chvatal_independence_bound():
    # tau <= (n - alpha) / alpha for non-complete connected graphs
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.3, 0.8))
        if g.is_complete() or not g.is_connected():
            continue
        alpha = independence_number(g)[0]
        assert toughness(g).value <= Fraction(g.n - alpha, alpha)


def nx_alpha(g: Graph) -> int:
    return nx.max_weight_clique(graph_to_nx(complement(g)), weight=None)[1]


def assert_alpha_witness(g: Graph, alpha: int, witness) -> None:
    assert len(witness) == alpha
    assert all(not g.has_edge(u, v) for u, v in combinations(witness, 2))


def test_alpha_and_kappa_match_oracles():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.0, 1.0))
        alpha, witness = independence_number(g)
        assert alpha == brute_alpha(g)
        assert_alpha_witness(g, alpha, witness)
        if g.n >= 1:
            assert connectivity(g) == brute_kappa(g)


def test_alpha_matches_networkx_at_order_40():
    # past brute_alpha's reach, where the clique-cover bound does the pruning
    rng = random.Random(37)
    for i in range(40):
        g = random_graph(rng, 20 + i % 21, rng.uniform(0.1, 0.6))
        alpha, witness = independence_number(g)
        assert alpha == nx_alpha(g)
        assert_alpha_witness(g, alpha, witness)


@pytest.mark.parametrize("text,alpha", [
    ("Gstar:n=1,k=1", 13), ("Ghat:n=1,k=1", 13), ("Ghat:n=2,k=1", 21)])
def test_alpha_of_constructions(text, alpha):
    g = build(FamilySpec.parse(text)).graph
    value, witness = independence_number(g)
    assert value == alpha == nx_alpha(g)
    assert_alpha_witness(g, value, witness)


def test_connectivity_conventions():
    assert connectivity(complete(5)) == 4
    assert connectivity(complete(1)) == 0
    assert connectivity(disjoint_union(path(2), path(2))) == 0
    assert connectivity(petersen()) == 3
    with pytest.raises(GraphError):
        connectivity(edgeless(0))


def test_is_t_tough():
    assert is_t_tough(cycle(5), 1)
    assert not is_t_tough(cycle(5), Fraction(11, 10))
    assert is_t_tough(petersen(), Fraction(4, 3))
    assert not is_t_tough(petersen(), Fraction(7, 5))
    assert is_t_tough(complete(3), 100)
    assert is_t_tough(complete(3), INF)
    assert not is_t_tough(cycle(5), INF)
    assert not is_t_tough(disjoint_union(path(2), path(2)), 1)
    with pytest.raises(GraphError):
        is_t_tough(cycle(5), 0)


def test_alpha_stop_matches_oracle():
    # c(G - S) <= alpha(G) ends the cut walk early; on these graphs the
    # records it gives must be the full walk's, witness included
    rng = random.Random(29)
    thresholds = [Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(7, 4),
                  Fraction(2)]
    checked = stopped = 0
    while checked < 25:
        g = random_graph(rng, rng.randint(8, 11), rng.uniform(0.2, 0.9))
        if g.is_complete() or not g.is_connected():
            continue
        checked += 1
        tau, witness = brute_toughness(g)
        result = toughness(g)
        assert (result.value, result.witness) == (tau, witness), g.edges
        for t in thresholds:
            assert is_t_tough(g, t) == (tau >= t), (g.edges, t)
        # does the walk for toughness reach a size whose c_min is above alpha
        # before the ratio bound ends it?
        alpha = independence_number(g)[0]
        stopped += any(size * tau.denominator // tau.numerator + 1 > alpha
                       for size in range(1, g.n - 1)
                       if size < tau * (g.n - size))
    assert stopped >= 5


def test_is_t_tough_agrees_with_toughness():
    rng = random.Random(19)
    thresholds = [Fraction(1, 2), Fraction(1), Fraction(4, 3), Fraction(2)]
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.9))
        tau = toughness(g).value
        for t in thresholds:
            assert is_t_tough(g, t) == (tau >= t)
