"""Shared corpora and conversion helpers.

networkx is used only as an independent source of truth: the graph atlas
supplies every graph on up to 7 vertices, the order-8 connected corpus is
produced by one-vertex extensions of the atlas deduplicated up to
isomorphism, and its graph6 codec cross-checks ours.
"""

import random

import networkx as nx
import pytest

from tough2f import Graph


def nx_to_graph(g) -> Graph:
    nodes = sorted(g.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in g.edges()])


def graph_to_nx(g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def neighbour_lists(g: Graph) -> list:
    """Each vertex's neighbours in increasing order, the form that
    ``max_matching`` reads."""
    return [list(g.neighbors(v)) for v in range(g.n)]


def mate_pairs(mate) -> list:
    """The sorted matched pairs (v, mate[v]), v < mate[v], of a mate array."""
    return [(v, w) for v, w in enumerate(mate) if v < w]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    while True:
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        if g.is_connected():
            return g


@pytest.fixture(scope="session")
def hunt_corpus():
    """The 800 random connected graphs of orders 8-11 (order 8 + i % 4)
    that the benchmark's hunt draws for seed 3 (``bench/workloads.py``)."""
    rng = random.Random(3)
    return [random_connected_graph(rng, 8 + i % 4) for i in range(800)]


@pytest.fixture(scope="session")
def atlas_connected():
    """All connected graphs of order <= 7, one per isomorphism class."""
    out = [nx_to_graph(g) for g in nx.graph_atlas_g()
           if g.number_of_nodes() > 0 and nx.is_connected(g)]
    by_order = {}
    for g in out:
        by_order[g.n] = by_order.get(g.n, 0) + 1
    assert by_order == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    return out


@pytest.fixture(scope="session")
def connected_order8(atlas_connected):
    """All 11117 connected graphs of order 8, one per isomorphism class.

    Every connected order-8 graph minus a vertex is (isomorphic to) an
    order-7 atlas graph, so extending every order-7 atlas graph by a new
    vertex with every nonempty neighborhood covers every class; the results
    are deduplicated by Weisfeiler-Lehman hash buckets plus exact
    isomorphism tests.
    """
    sevens = [graph_to_nx(nx_to_graph(g)) for g in nx.graph_atlas_g()
              if g.number_of_nodes() == 7]
    assert len(sevens) == 1044
    buckets = {}
    result = []
    for base in sevens:
        for mask in range(1, 128):
            g = base.copy()
            g.add_node(7)
            g.add_edges_from((7, v) for v in range(7) if mask >> v & 1)
            if not nx.is_connected(g):
                continue
            key = nx.weisfeiler_lehman_graph_hash(g)
            bucket = buckets.setdefault(key, [])
            if any(nx.is_isomorphic(g, other) for other in bucket):
                continue
            bucket.append(g)
            result.append(nx_to_graph(g))
    assert len(result) == 11117
    return result
