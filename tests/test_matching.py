"""Gadget construction, blossom matching, and 2-factor search."""

import faulthandler
import hashlib
import json
import random
from pathlib import Path

import networkx as nx
import pytest

from tough2f import (
    CertificateError,
    Graph,
    GraphError,
    TwoFactor,
    brute_force_two_factor,
    build_gadget,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    find_barrier,
    find_biased_barrier,
    find_two_factor,
    max_matching,
    path,
    verify_two_factor,
)
from tough2f import barriers, matching
from tough2f.barriers import deficiency
from tough2f.families import FamilySpec, build
from tough2f.graphs import decode_graph6
from tough2f.matching import BRUTE_FORCE_EDGE_CAP, BRUTE_FORCE_ORDER_CAP

from conftest import (graph_to_nx, mate_pairs, neighbour_lists, nx_to_graph,
                      random_graph)


def petersen():
    from test_invariants import petersen as p
    return p()


# Gadget ------------------------------------------------------------------------

def gadget_edges(gadget) -> set:
    return {(x, y) for x, ys in enumerate(gadget.adj) for y in ys if x < y}


def gadget_graph(gadget) -> Graph:
    return Graph(len(gadget.adj), gadget_edges(gadget))


def host_edge_images(gadget) -> dict:
    """host edge -> the adjacent slot pairs that image it"""
    images = {}
    for x, y in gadget_edges(gadget):
        e = gadget.host_edge[x]
        if e is not None and gadget.host_edge[y] == e:
            images.setdefault(e, []).append((x, y))
    return images


def test_gadget_sizes():
    # order is 4|E| - 2|V|: d(v) slots plus d(v)-2 cores per vertex
    for g in (cycle(4), complete(4), petersen()):
        gadget = build_gadget(g)
        assert len(gadget.adj) == 4 * len(g.edges) - 2 * g.n
        slots = [x for x, e in enumerate(gadget.host_edge) if e is not None]
        assert len(slots) == 2 * len(g.edges)
        images = host_edge_images(gadget)
        assert sorted(images) == list(g.edges)
        assert all(len(pairs) == 1 for pairs in images.values())
        assert sorted(x for [pair] in images.values() for x in pair) == slots


def test_gadget_requires_min_degree_two():
    with pytest.raises(GraphError):
        build_gadget(path(3))


def test_gadget_cycle_is_host_copy():
    # degree-2 vertices contribute no cores, so the gadget of C4 has exactly
    # the four host-edge images
    gadget = build_gadget(cycle(4))
    assert len(gadget.adj) == 8
    edges = gadget_edges(gadget)
    assert len(edges) == 4
    assert edges == {pair for pairs in host_edge_images(gadget).values()
                     for pair in pairs}


def reference_gadget(g) -> Graph:
    """The gadget built edge by edge from its block layout: per host vertex,
    its slots in ``g.edges`` order, then its cores."""
    slots, edges, n = {}, [], 0
    for v in range(g.n):
        d = g.degree(v)
        slots[v] = [n + i for i in range(d)]
        edges += [(s, n + d + c) for s in slots[v] for c in range(d - 2)]
        n += 2 * d - 2
    for u, v in g.edges:
        edges.append((slots[u].pop(0), slots[v].pop(0)))
    return Graph(n, edges)


def test_gadget_lists_are_sorted():
    # the blossom search reads the lists as built, so they must be the
    # strictly increasing, symmetric lists of the gadget's edge set
    rng = random.Random(43)
    hosts = [build(FamilySpec.parse("Ghat:n=2,k=2")).graph]
    while len(hosts) < 51:
        g = random_graph(rng, rng.randint(5, 16), rng.uniform(0.2, 0.7))
        if g.n and all(g.degree(v) >= 2 for v in range(g.n)):
            hosts.append(g)
    for g in hosts:
        gadget = build_gadget(g)
        for x, ys in enumerate(gadget.adj):
            assert all(a < b for a, b in zip(ys, ys[1:]))
            assert all(x in gadget.adj[y] for y in ys)
        assert gadget.adj == neighbour_lists(reference_gadget(g))


# Maximum matching ---------------------------------------------------------------

def matched(g: Graph) -> list:
    return mate_pairs(max_matching(neighbour_lists(g)))


def test_max_matching_known_sizes():
    assert len(matched(cycle(4))) == 2
    assert len(matched(cycle(5))) == 2
    assert len(matched(complete(4))) == 2
    assert len(matched(path(4))) == 2
    assert len(matched(petersen())) == 5
    assert max_matching(neighbour_lists(path(1))) == [-1]
    assert max_matching([]) == []


def test_max_matching_is_valid():
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        mate = max_matching(neighbour_lists(g))
        assert len(mate) == g.n
        assert all(w == -1 or mate[w] == v for v, w in enumerate(mate))
        assert all(g.has_edge(u, v) for u, v in mate_pairs(mate))


def test_max_matching_matches_networkx():
    rng = random.Random(29)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.9))
        theirs = nx.max_weight_matching(graph_to_nx(g), maxcardinality=True)
        assert len(matched(g)) == len(theirs)


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
        gadget = build_gadget(g)
        assert len(mate_pairs(max_matching(gadget.adj))) == \
            nx_matching_size(gadget_graph(gadget))
        checked += 1


@pytest.mark.parametrize("text", ["G:n=1,k=1", "Ghat:n=1,k=1"])
def test_family_gadget_matching_matches_networkx(text):
    gadget = build_gadget(build(FamilySpec.parse(text)).graph)
    mate = max_matching(gadget.adj)
    assert len(mate_pairs(mate)) == nx_matching_size(gadget_graph(gadget))
    assert -1 in mate  # neither construction has a 2-factor


def test_matching_covers():
    assert -1 not in max_matching(neighbour_lists(cycle(4)))
    assert -1 in max_matching(neighbour_lists(cycle(5)))


def test_find_two_factor_matches_each_gadget_once(monkeypatch):
    calls = {"_split": 0, "build_gadget": 0, "_augment": 0}
    for name in calls:
        def counted(*args, real=getattr(matching, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(matching, name, counted)
    k23 = Graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])
    for certify in (False, True):
        for g in (cycle(5), petersen(), path(4), k23,
                  build(FamilySpec.parse("H:n=1")).graph):
            find_two_factor(g, certify)
    # path(4) has a vertex of degree 1, so no gadget is built for it; the
    # subgraph grown on the host is already a 2-factor of cycle(5) and the
    # Petersen graph, so none is built for them either; each call on k23
    # and H(1), which have no 2-factor, matches one split gadget, and a
    # certified one reads its barrier off that gadget too
    assert calls == {"_split": 4, "build_gadget": 0, "_augment": 4}


def counted_searches(monkeypatch) -> list:
    """The roots of every tree search, as (gadget order, root) pairs."""
    roots = []

    def counted(adj, mate, real=matching._searches):
        search, outer = real(adj, mate)

        def counted_search(root):
            roots.append((len(adj), root))
            return search(root)
        return counted_search, outer

    monkeypatch.setattr(matching, "_searches", counted)
    return roots


def test_find_two_factor_searches_from_the_seed(monkeypatch):
    roots = counted_searches(monkeypatch)
    # the greedy F leaves 2 copies of Ghat(2,2)'s split gadget exposed;
    # the first search fails, and without a certificate that ends it
    g = build(FamilySpec.parse("Ghat:n=2,k=2")).graph
    assert not find_two_factor(g).exists
    assert len(roots) == 1


@pytest.mark.parametrize("text", ["Ghat:n=2,k=2", "G:n=1,k=1"])
def test_certified_negative_searches_the_split_gadget_once(monkeypatch, text):
    roots = counted_searches(monkeypatch)
    g = build(FamilySpec.parse(text)).graph
    result = find_two_factor(g, certify=True)
    order = 2 * g.n + 2 * len(g.edges)
    assert {size for size, _ in roots} == {order}
    # the greedy seed leaves 2 copies exposed and both searches fail, so
    # the matching is maximum; _split_pair reuses the outer sets of those
    # def_2(G) searches and searches no copy again
    assert len(roots) == 2
    assert len(set(roots)) == -result.barrier.deficiency == 2


def test_split_pair_rejects_a_matching_that_is_not_maximum():
    # G(1,1)'s split gadget seeded from an empty F: every copy is exposed,
    # and a search from one augments through a port pair. A hang here ends
    # the run with a traceback instead of stalling it.
    g = build(FamilySpec.parse("G:n=1,k=1")).graph
    adj, _, mate = matching._split(g, g.full_mask, [])
    assert -1 in mate
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        with pytest.raises(CertificateError):
            matching._split_pair(g, adj, mate)
    finally:
        faulthandler.cancel_dump_traceback_later()


# 2-factors ----------------------------------------------------------------------

def test_verify_two_factor():
    c5 = cycle(5)
    assert verify_two_factor(c5, TwoFactor(frozenset(c5.edges)))
    assert not verify_two_factor(c5, TwoFactor(frozenset(c5.edges[:3])))
    with pytest.raises(GraphError):
        verify_two_factor(c5, TwoFactor(frozenset({(0, 2)})))
    # an edge listed in both orientations is still one edge
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert not verify_two_factor(
        two_k2, TwoFactor(frozenset({(0, 1), (1, 0), (2, 3), (3, 2)})))
    # out of range: a negative index must not wrap round to vertex 3
    with pytest.raises(GraphError):
        verify_two_factor(
            cycle(4), TwoFactor(frozenset({(0, 1), (1, 2), (2, 3), (-1, 0)})))
    with pytest.raises(GraphError):
        verify_two_factor(c5, TwoFactor(frozenset({(1, 1)})))  # a loop


def test_find_two_factor_positive():
    for g in (cycle(3), cycle(7), complete(4), complete(5), petersen(),
              disjoint_union(cycle(3), cycle(4))):
        result = find_two_factor(g)
        assert result.exists
        assert verify_two_factor(g, result.factor)


def test_grown_seed_keeps_degrees_at_most_two():
    # orders 3-30 at densities 0.1-0.9, grown from the greedy F and from
    # every other edge of it
    rng = random.Random(73)
    closed = {"greedy": 0, "halved": 0}
    for _ in range(400):
        g = random_graph(rng, rng.randint(3, 30), rng.uniform(0.1, 0.9))
        greedy = matching._greedy_f(g, g.full_mask)
        for seed, start in (("greedy", greedy), ("halved", greedy[::2])):
            f = matching._grow(g, start)
            assert set(f) <= set(g.edges) and all(u < v for u, v in f)
            assert len(set(f)) == len(f) >= len(start)
            degree = [0] * g.n
            for u, v in f:
                degree[u] += 1
                degree[v] += 1
            assert max(degree, default=0) <= 2
            if len(f) == g.n:
                assert verify_two_factor(g, TwoFactor(frozenset(f)))
            closed[seed] += len(start) < g.n == len(f)
        if g.n <= BRUTE_FORCE_ORDER_CAP or len(g.edges) <= BRUTE_FORCE_EDGE_CAP:
            assert find_two_factor(g).exists == (
                brute_force_two_factor(g) is not None)
    # the growth closes F on the host, with no gadget, where the greedy F
    # (or half of it) was short of a 2-factor
    assert closed["greedy"] > 100 and closed["halved"] > 100


def test_find_two_factor_negative():
    k23 = Graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])
    for g in (path(4), k23, build(FamilySpec.parse("H:n=1")).graph):
        assert not find_two_factor(g).exists


def assert_certified(g, result):
    """A negative answer carries a barrier that the deficiency formula
    confirms; a positive one carries none. Above degree 1, the barrier
    read off the whole Gallai-Edmonds set attains Tutte's f-factor bound
    -def_2(G) on every graph tested, which one search's tree can miss."""
    if result.exists:
        assert result.barrier is None
        return
    a, b = result.barrier.a, result.barrier.b
    assert deficiency(g, a, b) == result.barrier.deficiency <= -2
    if all(g.degree(v) >= 2 for v in range(g.n)):
        assert result.barrier.deficiency == -matching.two_matching_deficiency(
            g, g.full_mask)


def test_find_two_factor_certify_attaches_barrier():
    # at every order: the families above order 14 are out of the
    # exhaustive barrier search's reach
    for text in ("H:n=1", "H:n=3", "H:n=4", "G:n=1,k=1", "G:n=2,k=2",
                 "Ghat:n=1,k=1", "Ghat:n=2,k=2", "Ghat:n=3,k=3"):
        g = build(FamilySpec.parse(text)).graph
        result = find_two_factor(g, certify=True)
        assert not result.exists, text
        assert_certified(g, result)
    # positive answers carry no barrier
    assert find_two_factor(cycle(4), certify=True).barrier is None


def test_certify_barrier_on_every_small_graph(connected_order8):
    graphs = [nx_to_graph(h) for h in nx.graph_atlas_g()] + connected_order8
    negatives = 0
    for g in graphs:
        result = find_two_factor(g, certify=True)
        assert_certified(g, result)
        negatives += not result.exists
    # 762 of the atlas graphs and 4494 of order 8 have no 2-factor
    assert negatives == 762 + 4494


def answer_digests(graphs) -> tuple:
    """sha256 of each graph's certified (exists, barrier) and of each
    graph's uncertified existence bit."""
    certified, exists = [], []
    for g in graphs:
        result = find_two_factor(g, certify=True)
        b = result.barrier
        certified.append((result.exists, b and (sorted(b.a), sorted(b.b),
                                                b.deficiency)))
        exists.append(find_two_factor(g).exists)
    return tuple(hashlib.sha256(repr(x).encode()).hexdigest()
                 for x in (certified, exists))


def test_existence_and_barriers_pinned(connected_order8):
    # the blossom search's start matching and stopping rule may change
    # which 2-factor a positive answer carries, but not whether one
    # exists, nor the barrier, which the Gallai-Edmonds set D fixes
    family = json.loads(
        Path(__file__).with_name("family_golden.json").read_text())
    graphs = [nx_to_graph(h) for h in nx.graph_atlas_g()] + connected_order8
    graphs += [decode_graph6(family[k]["graph6"]) for k in sorted(family)]
    assert answer_digests(graphs) == (
        "4c3abcdc5dc5bf6f81245a7414bb0dbb9fc81741b21764e9cf6af23fe9dc4659",
        "548ee19ba44c45a10d12bd79ceaacf4fcb304b5ac0a1cd58d18b3f8665c9ed6d")


def test_certify_never_walks_all_pairs(monkeypatch):
    def walk(g):
        raise AssertionError("the exhaustive barrier search ran")

    monkeypatch.setattr(barriers, "find_barrier", walk)
    monkeypatch.setattr(barriers, "_barriers_by_union", walk)
    graphs = [build(FamilySpec.parse(text)).graph
              for text in ("H:n=1", "H:n=2")]
    rng = random.Random(67)
    graphs += [random_graph(rng, rng.randint(8, 14), rng.uniform(0.2, 0.5))
               for _ in range(40)]
    results = [find_two_factor(g, certify=True) for g in graphs]
    for g, result in zip(graphs, results):
        assert_certified(g, result)
    # the random graphs include some with and some without a 2-factor
    assert 0 < sum(r.exists for r in results[2:]) < 40


def test_order_zero_has_the_empty_two_factor():
    # Tutte's criterion: no pair of subsets of the empty vertex set is a
    # barrier, so the empty graph has the empty 2-factor
    g = edgeless(0)
    result = find_two_factor(g, certify=True)
    assert result.exists and result.factor.edges == frozenset()
    assert result.barrier is None
    assert verify_two_factor(g, result.factor)
    assert brute_force_two_factor(g) == result.factor
    assert find_barrier(g) is None
    assert find_biased_barrier(g) is None


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


def min_degree_two_graph(rng: random.Random, n: int, p: float) -> Graph:
    """A random graph of order ``n`` and density about ``p``, then a random
    edge added at each vertex of degree below 2 until it has 2."""
    edges = set(random_graph(rng, n, p).edges)
    degree = [0] * n
    for e in edges:
        for v in e:
            degree[v] += 1
    for v in range(n):
        while degree[v] < 2:
            u = rng.randrange(n)
            e = (min(u, v), max(u, v))
            if u != v and e not in edges:
                edges.add(e)
                degree[u] += 1
                degree[v] += 1
    return Graph(n, sorted(edges))


def test_find_two_factor_matches_brute_force_from_every_seed(monkeypatch):
    # orders 4-10 at densities 0.15-0.9, with and without a certificate,
    # from the greedy seed and from every other edge of it, so the search
    # must grow a seed that is not a largest subgraph of degrees at most 2
    rng = random.Random(71)
    graphs = [random_graph(rng, 4 + i % 7, rng.uniform(0.15, 0.9))
              for i in range(600)]
    wants = [brute_force_two_factor(g) is not None for g in graphs]
    # sparse graphs with minimum degree 2 at orders 12-40, beyond the
    # brute force's caps, that have no 2-factor: the barrier proves it
    large = [min_degree_two_graph(rng, n, rng.uniform(1, 3) / n)
             for n in (rng.randint(12, 40) for _ in range(200))]
    large = [g for g in large if not find_two_factor(g).exists]
    greedy, grow = matching._greedy_f, matching._grow
    short = {"greedy": 0, "halved": 0}
    certified = {}
    # the greedy leg grows its seed on the host before any gadget; the
    # halved leg hands its seed to the gadget as it is, so the blossom
    # search grows it
    for seed, f, grown in (("greedy", greedy, grow),
                           ("halved", lambda g, mask: greedy(g, mask)[::2],
                            lambda g, f: f)):
        monkeypatch.setattr(matching, "_greedy_f", f)
        monkeypatch.setattr(matching, "_grow", grown)
        certified[seed] = []
        for g, want in zip(graphs + large, wants + [False] * len(large)):
            assert find_two_factor(g).exists == want
            result = find_two_factor(g, certify=True)
            assert result.exists == want
            assert_certified(g, result)
            certified[seed].append(result.barrier)
            mask = g.full_mask
            short[seed] += (2 * g.n - 2 * len(f(g, mask))
                            > matching.two_matching_deficiency(g, mask))
    # short counts the seeds from _greedy_f that are not largest: the
    # growth's input in the greedy leg, the blossom search's in the halved
    assert short["greedy"] > 100 and short["halved"] > 500
    # the barrier is read off D, which no maximum matching changes
    assert certified["halved"] == certified["greedy"]
    assert len(large) > 100
