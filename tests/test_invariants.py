"""Exact invariants against independent brute-force oracles and known values."""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

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
from tough2f import invariants, separator
from tough2f.families import build, FamilySpec
from tough2f.graphs import (
    complement,
    component_masks,
    count_components,
    decode_graph6,
    iter_bits,
    vertex_mask,
)

from conftest import graph_to_nx, random_graph

GOLDEN = Path(__file__).with_name("family_golden.json")


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


@pytest.fixture
def flow_calls(monkeypatch):
    """The (s, t) of every exact flow that ``connectivity`` runs in the
    test."""
    calls = []

    def counted(network, s, t, cutoff, real=invariants._local_connectivity):
        calls.append((s, t))
        return real(network, s, t, cutoff)

    monkeypatch.setattr(invariants, "_local_connectivity", counted)
    return calls


def test_toughness_and_kappa_match_oracles_on_atlas(atlas_connected,
                                                    flow_calls):
    # the witness is printed by the CLI, so its tie-break is pinned too
    for g in atlas_connected:
        result = toughness(g)
        expected = brute_toughness(g)
        if expected is None:
            assert result.value == INF and result.witness is None
        else:
            assert (result.value, result.witness) == expected, g.edges
        assert connectivity(g) == brute_kappa(g), g.edges
    # the greedy paths settle most pairs, not all: the exact flow is run
    assert flow_calls


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


def golden_graphs() -> list:
    """The graph of every instance in ``family_golden.json``, orders 5-62."""
    return [decode_graph6(entry["graph6"])
            for entry in json.loads(GOLDEN.read_text()).values()]


def test_greedy_paths_are_disjoint_paths(atlas_connected):
    # every non-adjacent pair, capped at the smaller degree: each path
    # joins s to t in G, no two share an internal vertex, and a search
    # that stops short leaves t out of s's reach
    for g in atlas_connected + golden_graphs():
        for s, t in combinations(range(g.n), 2):
            if g.has_edge(s, t):
                continue
            cutoff = min(g.degree(s), g.degree(t))
            paths = invariants._greedy_paths(g.adj, s, t, cutoff)
            assert len(paths) <= cutoff
            inner = set()
            for p in paths:
                assert (p[0], p[-1]) == (s, t) and len(set(p)) == len(p), p
                assert all(map(g.has_edge, p, p[1:])), (g.edges, p)
                assert inner.isdisjoint(p[1:-1]), (g.edges, paths)
                inner.update(p[1:-1])
            if len(paths) < cutoff:
                rest = g.full_mask & ~vertex_mask(g, inner)
                assert not any(c >> s & 1 and c >> t & 1
                               for c in component_masks(g.adj, rest))


def test_greedy_paths_fall_short_and_the_flow_decides(flow_calls):
    # the cube Q3 with s and t antipodal: s sees a, b, c, t sees x, y, z,
    # and a-x-c-y-b-z-a is a 6-cycle. The greedy paths s-a-x-t, then
    # s-b-y-t, leave c no free neighbour, so only the flow finds
    # kappa(s, t) = 3, by s-a-z-t, s-b-y-t and s-c-x-t
    s, a, b, c, x, y, z, t = range(8)
    g = Graph(8, [(s, a), (s, b), (s, c), (x, t), (y, t), (z, t),
                  (a, x), (x, c), (c, y), (y, b), (b, z), (z, a)])
    assert min_degree(g) == 3
    assert invariants._greedy_paths(g.adj, s, t, 3) == [(s, a, x, t),
                                                       (s, b, y, t)]
    assert connectivity(g) == brute_kappa(g) == 3
    assert flow_calls == [(s, t)]


@pytest.mark.parametrize("g,kappa", [
    # s-a-d-t and s-b-c-t with the chord a-c
    pytest.param(Graph(6, [(0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 5),
                           (1, 3)]), 2, id="theta"),
    pytest.param(Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
                 1, id="bowtie"),
    pytest.param(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]),
                 1, id="pendant"),
    *(pytest.param(cycle(n), 2, id=f"C{n}") for n in (4, 5, 8, 11)),
])
def test_min_degree_at_most_two_tests_no_pair(monkeypatch, flow_calls, g,
                                             kappa):
    # kappa <= delta <= 2 leaves kappa = 1 exactly at a cut vertex, so
    # neither the greedy paths nor the flow run
    def refused(*args):
        raise AssertionError("_greedy_paths called")

    monkeypatch.setattr(invariants, "_greedy_paths", refused)
    assert min_degree(g) <= 2
    assert connectivity(g) == brute_kappa(g) == kappa
    assert flow_calls == []


def test_kappa_matches_networkx_beyond_the_oracle(hunt_corpus):
    # the family instances (orders up to 62) and the benchmark's seed-3
    # hunt corpus (orders 8-11), past brute_kappa's reach
    for g in golden_graphs() + hunt_corpus:
        assert connectivity(g) == nx.node_connectivity(graph_to_nx(g)), \
            g.edges


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


@pytest.mark.parametrize("t", [-5, 0, -math.inf, math.nan, "abc", "1/0",
                               None, [1]])
def test_is_t_tough_rejects_bad_thresholds(t):
    with pytest.raises(GraphError):
        is_t_tough(cycle(5), t)


def test_kappa_floor_keeps_every_record(atlas_connected, monkeypatch):
    # sizes below kappa(G) cannot cut G, so starting there gives the full
    # walk's answers and records; None walks to the end
    thresholds = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 4),
                  Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(3),
                  None]
    masks = []

    def counted(adj, avail, real=component_masks):
        masks.append(avail)
        return real(adj, avail)

    monkeypatch.setattr(invariants, "component_masks", counted)
    walked = floored = 0
    for g in atlas_connected:
        if g.is_complete():
            continue
        for t in thresholds:
            masks.clear()
            full = invariants.CutWalk(g)
            answer = full.at_least(t, kappa=lambda: 1)
            walked += len(masks)
            masks.clear()
            walk = invariants.CutWalk(g)
            assert walk.at_least(t) == answer, (g.edges, t)
            assert (walk.num, walk.den, walk.cut) == (full.num, full.den,
                                                      full.cut), (g.edges, t)
            floored += len(masks)
    assert floored < walked


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


@pytest.mark.parametrize("u", [1, 2, 3])
def test_walk_with_universal_vertices_matches_oracle(atlas_connected, u):
    # G join K_u, of order <= 10, under shuffled labels: the walk runs on
    # G - U relabelled in increasing order, and U is seldom the lowest labels
    rng = random.Random(53 + u)
    thresholds = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    shuffled = 0
    for g in atlas_connected:
        n = g.n + u
        label = list(range(n))
        rng.shuffle(label)
        edges = [(x, y) for x in range(u) for y in range(x + 1, n)]
        edges += [(x + u, y + u) for x, y in g.edges]
        h = Graph(n, [(label[x], label[y]) for x, y in edges])
        if h.is_complete():
            continue
        universal = invariants._drop_universal(h)[1]
        shuffled += universal != ((1 << n) - 1) ^ ((1 << n - u) - 1)
        tau, witness = brute_toughness(h)
        assert walk_toughness(h) == (tau, witness), h.edges
        for t in thresholds:
            assert is_t_tough(h, t) == (tau >= t), (h.edges, t)
    assert shuffled > len(atlas_connected) // 2


# The clique-separator kernel, called directly --------------------------------

def greedy_clique(g: Graph) -> list:
    """A clique grown by descending degree, ties to the lower vertex."""
    clique, common = [], set(range(g.n))
    for v in sorted(range(g.n), key=g.degree, reverse=True):
        if v in common:
            clique.append(v)
            common &= set(g.neighbors(v))
    return clique


def clique_kernel(g: Graph, clique=None):
    """The kernel's (tau, witness) through ``clique``, a list of vertices,
    by default the greedy one, run as the dispatch runs it: on G - U, U the
    universal vertices, with |U| added to every cut."""
    n = g.n
    radj, universal = invariants._drop_universal(g)
    if clique is None:
        clique = greedy_clique(g)
    keep = [r for r in range(n) if not universal >> r & 1]  # G - U's labels
    mask = sum(1 << keep.index(n - 1 - v) for v in clique
               if not universal >> (n - 1 - v) & 1)
    shared, pieces, _ = invariants._clique_split(radj, mask)
    size, comps, cut = separator.clique_toughness(
        radj, universal.bit_count(), mask, shared, pieces)
    witness = [n - 1 - keep[v] for v in iter_bits(cut)]
    witness += [n - 1 - r for r in iter_bits(universal)]
    return Fraction(size, comps), frozenset(witness)


def takes_kernel(g: Graph) -> bool:
    """Whether the dispatch sends g to the clique kernel."""
    radj, _ = invariants._drop_universal(g)
    return invariants._kernel_split(radj) is not None


def walk_toughness(g: Graph):
    """(tau, witness) from the cut walk, which leaves the universal vertices
    out of the search as the dispatch does, also on a graph the dispatch
    sends to the clique kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "_kernel_split", lambda radj: None)
        return tuple(toughness(g))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The argument tuples of every clique-kernel call made in the test."""
    calls = []

    def counted(*args, real=separator.clique_toughness):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(separator, "clique_toughness", counted)
    return calls


def planted_separator(rng: random.Random, order_cap: int, cliques=(1, 4),
                      universal: int = 0):
    """(graph, clique) of a random graph cut by a planted clique, of a size
    in the ``cliques`` range, into 2-4 pieces, under shuffled labels. The
    first ``universal`` clique vertices are joined to every vertex."""
    while True:
        k, count = rng.randint(*cliques), rng.randint(2, 4)
        k = max(k, universal)
        sizes = [rng.randint(1, 3) for _ in range(count)]
        n = k + sum(sizes)
        if n <= order_cap:
            break
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(universal) for v in range(k, n)]
    start = k
    for size in sizes:
        piece = range(start, start + size)
        inner = random_graph(rng, size, rng.uniform(0.3, 1.0))
        edges += [(start + u, start + v) for u, v in inner.edges]
        for w in piece[1:]:  # keep the piece connected
            edges.append((rng.randrange(start, w), w))
        touch = [x for x in range(k) if rng.random() < 0.5]
        touch = touch or [rng.randrange(k)]
        edges += [(x, rng.choice(piece)) for x in touch]
        edges += [(x, w) for x in touch for w in piece if rng.random() < 0.3]
        start += size
    label = list(range(n))
    rng.shuffle(label)
    g = Graph(n, [(label[u], label[v]) for u, v in edges])
    return g, [label[x] for x in range(k)]


def test_clique_kernel_matches_oracle_on_atlas(atlas_connected):
    for g in atlas_connected:
        if not g.is_complete():
            assert clique_kernel(g) == brute_toughness(g), g.edges


def test_clique_kernel_matches_walk_on_order8(connected_order8):
    # toughness walks the cut sets on every order-8 graph
    for g in connected_order8:
        if not g.is_complete():
            assert not takes_kernel(g)
            assert clique_kernel(g) == toughness(g), g.edges


def test_clique_kernel_matches_oracle_on_random_graphs():
    rng = random.Random(41)
    checked = 0
    while checked < 150:
        g = random_graph(rng, rng.randint(4, 11), rng.uniform(0.2, 0.8))
        if g.is_complete() or not g.is_connected():
            continue
        checked += 1
        assert clique_kernel(g) == brute_toughness(g), g.edges


def test_clique_kernel_matches_oracle_on_planted_separators():
    rng = random.Random(43)
    for _ in range(200):
        g, clique = planted_separator(rng, 11)
        if g.is_complete():
            continue
        expected = brute_toughness(g)
        for x in (clique, None):
            assert clique_kernel(g, x) == expected, (g.edges, x)


def test_toughness_of_h3_is_the_walks_last_record(kernel_calls):
    g = build(FamilySpec.parse("H:n=3")).graph
    assert takes_kernel(g)
    result = toughness(g)
    assert len(kernel_calls) == 1  # the kernel served it
    assert result == walk_toughness(g)
    assert result.value == Fraction(9, 7)


def test_is_t_tough_on_kernel_graphs(kernel_calls):
    # graphs the dispatch sends to the kernel, against the walk's tau
    rng = random.Random(47)
    graphs = [build(FamilySpec.parse("H:n=3")).graph]
    for _ in range(3000):
        g, _ = planted_separator(rng, 16, cliques=(6, 10))
        if not g.is_complete() and takes_kernel(g):
            graphs.append(g)
            if len(graphs) == 9:
                break
    assert len(graphs) == 9
    grid = [Fraction(p, q) for q in range(1, 8) for p in range(1, 3 * q + 1)]
    for g in graphs:
        tau, witness = walk_toughness(g)
        assert toughness(g) == (tau, witness), g.edges
        for t in grid + [tau]:
            assert is_t_tough(g, t) == (tau >= t), (g.edges, t)
    assert len(kernel_calls) == len(graphs) * (len(grid) + 2)


def test_clique_kernel_with_universal_vertices_matches_walk():
    # orders 16-20, with 1-3 vertices of the planted clique made universal;
    # the kernel leaves them out of its search, and the walk out of its own
    rng = random.Random(59)
    checked = dispatched = 0
    while checked < 60:
        g, clique = planted_separator(rng, 20, cliques=(4, 12),
                                      universal=rng.randint(1, 3))
        if g.n < 16 or g.is_complete():
            continue
        checked += 1
        expected = walk_toughness(g)
        for x in (clique, None):
            assert clique_kernel(g, x) == expected, (g.edges, x)
        if takes_kernel(g):
            dispatched += 1
            assert toughness(g) == expected, g.edges
    assert dispatched >= 2


def test_clique_kernel_on_disconnected_graph_minus_universal():
    # K_u joined to H(3) and K_4 or C_5, orders 22-24: G - U is disconnected,
    # and the kernel's clique lies in one component, so the other is a
    # piece with no clique neighbours; tau = u/2, witness U
    h3 = build(FamilySpec.parse("H:n=3")).graph
    for other in (complete(4), cycle(5)):
        for u in (1, 2):
            g = joined(disjoint_union(h3, other), u)
            assert takes_kernel(g), (other.edges, u)
            result = toughness(g)
            assert tuple(result) == walk_toughness(g), (other.edges, u)
            assert result == (Fraction(u, 2), frozenset(range(u)))
            assert is_t_tough(g, result.value)
            assert not is_t_tough(g, result.value + Fraction(1, 97))


def test_each_kernel_query_splits_once(monkeypatch, kernel_calls):
    # count the split wherever a module of the package binds it
    splits = []

    def counted(*args, real=invariants._clique_split):
        splits.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("tough2f.") and hasattr(module, "_clique_split"):
            monkeypatch.setattr(module, "_clique_split", counted)
    for text in ("H:n=3", "H:n=4", "G:n=1,k=1"):
        g = build(FamilySpec.parse(text)).graph
        toughness(g)
        is_t_tough(g, 1)
        is_t_tough(g, Fraction(3, 2))
    assert len(kernel_calls) == 9
    assert len(splits) == len(kernel_calls)


# The cut walk's families of disconnected kept sets, and its cheap cuts ------------

def joined(g: Graph, u: int) -> Graph:
    """g with u universal vertices put in front, labels 0 to u - 1."""
    edges = [(x, y) for x in range(u) for y in range(x + 1, g.n + u)]
    return Graph(g.n + u, edges + [(x + u, y + u) for x, y in g.edges])


@pytest.fixture
def family_builds(monkeypatch):
    """The (order, top level) of every family build made in the test."""
    builds = []

    def counted(radj, top, real=invariants._disconnected_families):
        builds.append((len(radj), top))
        return real(radj, top)

    monkeypatch.setattr(invariants, "_disconnected_families", counted)
    return builds


def assert_families_exact(g: Graph) -> None:
    """The families of g, every level, bit for bit against
    ``component_masks``."""
    families = invariants._disconnected_families(g.adj, g.n)
    assert len(families) == g.n + 1
    for mask in range(1 << g.n):
        disconnected = len(component_masks(g.adj, mask)) >= 2
        assert (families[mask.bit_count()] >> mask & 1
                == disconnected), (g.edges, mask)
    # a lower top builds the same levels, and no others
    for top in range(2, g.n):
        assert invariants._disconnected_families(g.adj, top) == \
            families[:top + 1]


def test_families_match_component_masks():
    rng = random.Random(67)
    for n in range(1, invariants.FAMILY_MAX_ORDER + 1):
        for u in (0, 1, 2):
            assert_families_exact(
                joined(random_graph(rng, n - u, rng.uniform(0.1, 0.9)), u)
                if u < n else complete(n))


def test_walks_leave_the_layer_tables_of_their_order_intact(family_builds):
    # every build of one order reads that order's P_k and sel; walks to
    # the end, which trim their own families, must leave a fresh build of
    # the order exact
    rng = random.Random(79)
    order = invariants.FAMILY_MAX_ORDER
    walked = 0
    while walked < 4:
        g = random_graph(rng, order, rng.uniform(0.4, 0.8))
        if g.is_connected() and not g.is_complete() and not takes_kernel(g):
            assert tuple(toughness(g)) == walk_toughness(g), g.edges
            walked += 1
    assert [n for n, _ in family_builds].count(order) >= 4
    assert_families_exact(random_graph(rng, order, 0.5))


def test_dense_walks_jump_between_disconnected_sets(family_builds):
    # orders 9-14, with universal vertices above order 12 so that the walk
    # has at most FAMILY_MAX_ORDER vertices; thresholds asked in shuffled
    # order of one walk, half with alpha given, then the walk to its end
    rng = random.Random(71)
    grid = [Fraction(p, q) for q in (1, 2, 3, 4) for p in range(q, 5 * q)]
    built = 0
    for order in range(9, 15):
        u = max(0, order - invariants.FAMILY_MAX_ORDER)
        for _ in range(3):
            g = joined(random_graph(rng, order - u, rng.uniform(0.6, 0.85)), u)
            if g.is_complete() or not g.is_connected():
                continue
            assert not takes_kernel(g)
            expected = brute_toughness(g)
            family_builds.clear()
            assert tuple(toughness(g)) == expected, g.edges
            built += bool(family_builds)
            assert walk_toughness(g) == expected, g.edges
            tau = expected[0]
            alpha = independence_number(g)[0]
            thresholds = grid + [tau]
            rng.shuffle(thresholds)
            walk = invariants.CutWalk(g)
            for i, t in enumerate(thresholds):
                given = (lambda: alpha) if i % 2 else None
                assert is_t_tough(g, t, alpha=given, walk=walk) == (
                    tau >= t), (g.edges, t)
            assert tuple(toughness(g, walk=walk)) == expected, g.edges
            assert walk.families is None  # dropped once done
    assert built >= 12  # of 18 graphs


def test_walk_above_the_family_cap_stays_on_gospers_loop(family_builds):
    rng = random.Random(73)
    order = invariants.FAMILY_MAX_ORDER + 3
    g = random_graph(rng, order, 0.7)
    assert g.is_connected() and not any(
        g.degree(v) == order - 1 for v in range(order))
    assert not takes_kernel(g)
    tau, witness = brute_toughness(g)
    assert tuple(toughness(g)) == (tau, witness)
    for t in (Fraction(1), Fraction(3, 2), tau, Fraction(2)):
        assert is_t_tough(g, t) == (tau >= t)
    assert family_builds == []


def test_walk_decided_before_a_connected_set_builds_nothing(family_builds):
    # the delta/2 cut refutes 7/4 on the Petersen graph before any set is
    # counted, and the bowtie's first kept set, its cut vertex removed, is
    # disconnected and gives tau <= 1/2 at once
    assert not is_t_tough(petersen(), Fraction(7, 4))
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert not is_t_tough(bowtie, 1)
    assert family_builds == []
    # H(2) has two universal vertices: its walk starts at size 2, whose one
    # kept set, all of G - U, is connected and the last of its size, so it
    # builds at the first connected set of size 3, up to level 9
    g = build(FamilySpec.parse("H:n=2")).graph
    assert toughness(g) == (Fraction(6, 5), frozenset({0, 1, 7, 8, 9, 10}))
    assert family_builds == [(10, 9)]


def k_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(x, a + y) for x in range(a) for y in range(b)])


def two_k24() -> Graph:
    """Two K_{2,4} glued at vertex 5, on the larger side of both: delta = 2,
    alpha = 7, and 5 is a cut vertex."""
    return Graph(11, [(x, y) for x in (0, 1) for y in (2, 3, 4, 5)]
                 + [(x, y) for x in (6, 7) for y in (5, 8, 9, 10)])


@pytest.mark.parametrize("g, t, with_alpha", [
    (petersen(), Fraction(7, 4), False),  # delta/2 = 3/2
    (k_bipartite(3, 6), Fraction(1), True),  # (n - alpha)/alpha = 1/2
    (joined(k_bipartite(4, 7), 1), Fraction(3, 4), True),  # 5/7
    (two_k24(), Fraction(1), True),  # 4/7
])
def test_cheap_cuts_refute_before_the_walk(monkeypatch, g, t, with_alpha):
    masks = []

    def counted(adj, avail, real=component_masks):
        masks.append(avail)
        return real(adj, avail)

    alpha = independence_number(g)[0]
    delta = min_degree(g)
    assert t > (Fraction(delta, 2) if not with_alpha
                else Fraction(g.n - alpha, alpha))
    if with_alpha:
        assert t <= Fraction(delta, 2)  # the delta bound alone leaves it
    monkeypatch.setattr(invariants, "component_masks", counted)
    walk = invariants.CutWalk(g)
    state = (walk.size, walk.rest, walk.num, walk.den, walk.cut)
    asked = []
    given = (lambda: asked.append(1) or alpha) if with_alpha else None
    assert not walk.at_least(t, alpha=given)
    assert masks == [] and len(asked) == with_alpha
    assert (walk.size, walk.rest, walk.num, walk.den, walk.cut) == state
    assert toughness(g, walk=walk) == toughness(g)
    assert len(asked) == with_alpha  # alpha is asked once a walk


def test_a_lone_question_starts_no_alpha_search(monkeypatch):
    # its cut vertex answers tau >= 1 at size 1, below every alpha stop,
    # while the alpha bound (4/7) would refute it: a standalone question,
    # with no alpha given, must not search for alpha to use that bound
    g = two_k24()
    searched = []
    monkeypatch.setattr(invariants, "independence_number",
                        lambda g: searched.append(g) or (0, frozenset()))
    assert not is_t_tough(g, 1)
    assert searched == []
