"""Graph construction, components, and the interchange formats."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from tough2f import (
    Graph,
    GraphError,
    add_matching,
    complement,
    complete,
    components,
    copies,
    cycle,
    decode_graph6,
    delete,
    disjoint_union,
    edgeless,
    encode_graph6,
    induced,
    join,
    path,
    read_edge_list,
    subdivide,
    write_edge_list,
)
from tough2f.graphs import count_components

from conftest import graph_to_nx, nx_to_graph


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.n == 4
    assert g.edges == ((0, 1), (2, 3))  # deduplicated, sorted
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 1
    assert list(g.neighbors(0)) == [1]


def test_construction_errors():
    with pytest.raises(GraphError):
        Graph(-1, [])
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        cycle(2)


def test_immutability():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_equality_and_hash():
    assert path(3) == Graph(3, [(1, 2), (0, 1)])
    assert hash(path(3)) == hash(Graph(3, [(1, 2), (0, 1)]))
    assert path(3) != path(4)


def test_standard_graphs():
    assert len(complete(5).edges) == 10
    assert complete(5).is_complete()
    assert edgeless(4).edges == ()
    assert len(path(4).edges) == 3
    assert len(cycle(4).edges) == 4
    assert path(1).is_connected() and path(0).is_connected()
    assert not edgeless(2).is_connected()


def test_complement():
    assert complement(complete(4)) == edgeless(4)
    assert complement(complement(path(5))) == path(5)


def test_disjoint_union_and_copies():
    g = disjoint_union(path(2), cycle(3))
    assert g.n == 5 and len(g.edges) == 4
    assert g.has_edge(2, 3) and not g.has_edge(1, 2)
    assert copies(3, complete(2)).edges == ((0, 1), (2, 3), (4, 5))
    assert copies(0, complete(2)) == edgeless(0)
    with pytest.raises(GraphError):
        copies(-1, path(2))


def test_join():
    g = join(complete(2), edgeless(3))
    # K2 v 3K1: 1 + 2*3 edges
    assert g.n == 5 and len(g.edges) == 7
    assert all(g.has_edge(u, v) for u in (0, 1) for v in (2, 3, 4))
    assert join(complete(2), complete(3)).is_complete()


def test_add_matching():
    g = add_matching(edgeless(4), [(0, 1), (2, 3)])
    assert g.edges == ((0, 1), (2, 3))
    with pytest.raises(GraphError):
        add_matching(complete(2), [(0, 1)])  # already an edge
    with pytest.raises(GraphError):
        add_matching(edgeless(4), [(0, 1), (1, 2)])  # not disjoint
    with pytest.raises(GraphError):
        add_matching(edgeless(4), [(2, 2)])
    with pytest.raises(GraphError):
        add_matching(complete(3), [(5, 0)])  # out of range


def test_subdivide():
    g = subdivide(cycle(3), (0, 1), 2)
    assert g.n == 5 and len(g.edges) == 5
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 3) and g.has_edge(3, 4) and g.has_edge(4, 1)
    assert subdivide(cycle(3), (0, 1), 0) == cycle(3)
    with pytest.raises(GraphError):
        subdivide(path(3), (0, 2), 1)
    with pytest.raises(GraphError):
        subdivide(path(3), (0, 1), -1)
    with pytest.raises(GraphError):
        subdivide(complete(3), (7, 0), 1)  # out of range


def test_induced_and_delete():
    g = cycle(5)
    h = induced(g, [0, 1, 3])
    # new vertex i is the i-th smallest member: 0->0, 1->1, 3->2
    assert h.n == 3 and h.edges == ((0, 1),)
    assert delete(g, [2]) == induced(g, [0, 1, 3, 4])
    assert delete(g, []) == g
    with pytest.raises(GraphError):
        induced(g, [7])


def test_components():
    g = disjoint_union(cycle(3), path(2))
    assert components(g) == (frozenset({0, 1, 2}), frozenset({3, 4}))
    assert count_components(g) == 2
    assert count_components(g, [3]) == 2
    assert count_components(cycle(5), [0, 2]) == 2
    assert components(edgeless(0)) == ()


# graph6 ------------------------------------------------------------------------

def test_graph6_known_codes():
    assert encode_graph6(complete(1)) == "@"
    assert encode_graph6(complete(4)) == "C~"
    # star on 5 vertices, center last
    star = Graph(5, [(v, 4) for v in range(4)])
    assert encode_graph6(star) == "D?{"
    assert decode_graph6("D?{") == star
    assert decode_graph6("@") == complete(1)
    assert decode_graph6("?") == edgeless(0)


def test_graph6_errors():
    with pytest.raises(GraphError):
        decode_graph6("")
    with pytest.raises(GraphError):
        decode_graph6("~~~")  # extended orders unsupported
    with pytest.raises(GraphError):
        decode_graph6("B")  # truncated body
    with pytest.raises(GraphError):
        decode_graph6("C~~")  # overlong body
    with pytest.raises(GraphError):
        decode_graph6("!?")  # header below the graph6 byte range
    with pytest.raises(GraphError):
        decode_graph6("C!")  # body byte below the graph6 byte range
    # nonzero trailing bits: order 2 uses 1 of 6 bits
    with pytest.raises(GraphError):
        decode_graph6("A" + chr(63 + 1))
    with pytest.raises(GraphError):
        encode_graph6(edgeless(63))


edge_sets = st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                          st.integers(0, max(n - 1, 0)))
                .filter(lambda e: e[0] != e[1]))))


@settings(max_examples=200, deadline=None)
@given(edge_sets)
def test_graph6_round_trip(data):
    n, edges = data
    g = Graph(n, edges) if n else Graph(0, [])
    assert decode_graph6(encode_graph6(g)) == g


@settings(max_examples=100, deadline=None)
@given(edge_sets)
def test_graph6_matches_networkx(data):
    n, edges = data
    g = Graph(n, edges) if n else Graph(0, [])
    theirs = nx.to_graph6_bytes(graph_to_nx(g), header=False).decode().strip()
    assert encode_graph6(g) == theirs
    assert nx_to_graph(nx.from_graph6_bytes(
        encode_graph6(g).encode())) == g


# edge-list text ----------------------------------------------------------------

def test_edge_list_round_trip():
    g = cycle(5)
    assert read_edge_list(write_edge_list(g)) == g
    assert read_edge_list("3 0\n") == edgeless(3)


def test_edge_list_errors():
    with pytest.raises(GraphError):
        read_edge_list("")
    with pytest.raises(GraphError):
        read_edge_list("3\n")
    with pytest.raises(GraphError):
        read_edge_list("3 2\n0 1\n")  # declares 2 edges, found 1
    with pytest.raises(GraphError):
        read_edge_list("3 1\na b\n")
    # a repeated pair, in either orientation, is not a second edge
    for text in ("3 3\n0 1\n1 0\n1 2\n", "3 2\n0 1\n0 1\n"):
        with pytest.raises(GraphError, match="repeats an edge"):
            read_edge_list(text)
