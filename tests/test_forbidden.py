"""Linear-forest patterns and induced containment."""

import random
from itertools import combinations, permutations

import pytest

from tough2f import (
    ForestPattern,
    GraphError,
    complete,
    cycle,
    find_induced,
    induced,
    is_free,
    path,
    pattern_graph,
)
from tough2f import forbidden
from tough2f.forbidden import verify_embedding
from tough2f.graphs import components

from conftest import random_graph


def test_parse():
    p = ForestPattern.parse("P5+2P1")
    assert p.paths == (5,) and p.isolated == 2
    assert p.order == 7
    assert str(p) == "P5+2P1"
    assert ForestPattern.parse("2P3+P2+P1") == ForestPattern((3, 3, 2), 1)
    assert ForestPattern.parse("P2 + P1") == ForestPattern((2,), 1)
    assert str(ForestPattern((4, 2), 1)) == "P4+P2+P1"
    assert str(ForestPattern((), 0)) == "P0"


def test_parse_errors():
    for text in ("", "P0", "Q3", "P", "0P3", "P3-P1", "3"):
        with pytest.raises(GraphError):
            ForestPattern.parse(text)
    with pytest.raises(GraphError):
        ForestPattern((1,), 0)
    with pytest.raises(GraphError):
        ForestPattern((2,), -1)


def test_replace_and_make_are_checked():
    pattern = ForestPattern((2,), 1)
    with pytest.raises(GraphError):
        pattern._replace(paths=(1,))
    with pytest.raises(GraphError):
        ForestPattern._make([(3,), -1])
    assert pattern._replace(paths=[2, 4]) == ForestPattern((4, 2), 1)
    assert type(ForestPattern._make([(2, 3), 0])) is ForestPattern
    assert ForestPattern._make([(2, 3), 0]).paths == (3, 2)


def test_paths_sorted_descending():
    assert ForestPattern((2, 5, 3), 0).paths == (5, 3, 2)


def test_pattern_graph():
    g = pattern_graph(ForestPattern.parse("P3+P2+2P1"))
    assert g.n == 7
    assert g.edges == ((0, 1), (1, 2), (3, 4))


def test_find_induced_examples():
    assert find_induced(cycle(5), ForestPattern.parse("P4")) is not None
    assert is_free(cycle(5), ForestPattern.parse("P5"))
    assert is_free(cycle(4), ForestPattern.parse("P4"))
    assert not is_free(cycle(6), ForestPattern.parse("2P2"))
    assert is_free(complete(4), ForestPattern.parse("2P1"))
    assert not is_free(path(7), ForestPattern.parse("P3+2P1"))
    assert is_free(complete(1), ForestPattern.parse("P2"))
    # pattern larger than host
    assert is_free(path(3), ForestPattern.parse("P4"))


def test_embeddings_verify():
    rng = random.Random(47)
    patterns = [ForestPattern.parse(s) for s in
                ("P2", "P3", "P4+P1", "2P2", "P3+P2", "P2+2P1", "3P1")]
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.1, 0.7))
        for p in patterns:
            embedding = find_induced(g, p)
            if embedding is not None:
                assert verify_embedding(g, p, embedding)


def brute_contains(host, p: ForestPattern) -> bool:
    """Oracle: some vertex subset induces exactly the pattern's forest."""
    want = sorted(list(p.paths) + [1] * p.isolated)
    for subset in combinations(range(host.n), p.order):
        sub = induced(host, subset)
        comps = components(sub)
        if sorted(len(c) for c in comps) != want:
            continue
        if all(len([e for e in sub.edges
                    if e[0] in c and e[1] in c]) == len(c) - 1
               and max((sum(1 for u in c if sub.has_edge(u, v))
                        for v in c), default=0) <= 2
               for c in comps):
            return True
    return False


def test_matches_brute_force_oracle():
    rng = random.Random(53)
    patterns = [ForestPattern.parse(s) for s in
                ("P2", "P3", "P4", "P5", "2P2", "P3+P1", "P2+2P1",
                 "P4+P1", "2P1", "P3+P2")]
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.1, 0.9))
        for p in patterns:
            assert is_free(g, p) == (not brute_contains(g, p)), (g, str(p))


def test_verify_embedding_rejects_bad_maps():
    p = ForestPattern.parse("P3")
    g = path(4)
    assert verify_embedding(g, p, (0, 1, 2))
    assert not verify_embedding(g, p, (0, 1, 1))   # not injective
    assert not verify_embedding(g, p, (0, 2, 1))   # wrong adjacency


def first_normal_embedding(host, p: ForestPattern):
    """Oracle: the lexicographically least induced embedding in the search's
    normal form: each path's first endpoint below its last, paths of equal
    length by increasing first vertex, isolated vertices increasing."""
    pat = pattern_graph(p)
    starts = [sum(p.paths[:i]) for i in range(len(p.paths))]
    for emb in permutations(range(host.n), p.order):
        if any(emb[a] > emb[a + order - 1]
               for a, order in zip(starts, p.paths)):
            continue
        if any(p.paths[i] == p.paths[i + 1] and emb[a] > emb[starts[i + 1]]
               for i, a in enumerate(starts[:-1])):
            continue
        singles = emb[sum(p.paths):]
        if list(singles) != sorted(singles):
            continue
        if all(pat.has_edge(i, j) == host.has_edge(emb[i], emb[j])
               for i in range(pat.n) for j in range(i + 1, pat.n)):
            return emb
    return None


def test_embedding_is_first_in_normal_form():
    rng = random.Random(59)
    patterns = [ForestPattern.parse(s) for s in
                ("P2", "P3", "P4+P1", "2P2", "P3+P2", "P2+2P1", "3P1")]
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.1, 0.8))
        for p in patterns:
            assert find_induced(g, p) == first_normal_embedding(g, p), \
                (g.edges, str(p))


def brute_longest(host, k: int, top: int) -> int:
    """Oracle for L_k: over the independent k-sets I, the largest
    min(top, |Q|) over the vertex sets Q of host - N[I] that induce a
    path, 0 when host - N[I] is empty; -1 when there is no such I."""
    paths = []
    for size in range(1, host.n + 1):
        for q in combinations(range(host.n), size):
            sub = induced(host, q)
            if len(sub.edges) == size - 1 and sub.is_connected() and \
                    all(sub.degree(v) <= 2 for v in range(size)):
                paths.append(set(q))
    best = -1
    for i in combinations(range(host.n), k):
        if any(host.has_edge(u, v) for u, v in combinations(i, 2)):
            continue
        closed = set(i).union(*(host.neighbors(v) for v in i))
        best = max(best, max((min(top, len(q)) for q in paths
                              if not q & closed), default=0))
    return best


def test_independent_sweep_matches_brute_force_oracle():
    rng = random.Random(67)
    hosts = [complete(4), cycle(7), path(6), pattern_graph(
        ForestPattern.parse("P4+2P1"))]
    hosts += [random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.8))
              for _ in range(40)]
    for g in hosts:
        for k in range(4):
            for top in range(1, 6):
                longest = [-1] * (k + 1)
                before = list(longest)
                for _ in forbidden._independent_sweep(g, k, top, longest):
                    # each yield follows a rise of entry k, and only of it
                    assert longest[k] > before[k], (g.edges, k, top)
                    assert longest[:k] == before[:k]
                    before = list(longest)
                assert longest[k] == brute_longest(g, k, top), \
                    (g.edges, k, top)
