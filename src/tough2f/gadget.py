"""The Tutte gadget of a graph and the Edmonds blossom search that matches it.

The gadget of the subgraph H that a vertex mask induces has one block per
vertex v of H, in index order: d(v) edge-slot vertices, one per neighbour
of v in H in increasing order, then max(d(v) - 2, 0) core vertices, joined
completely bipartitely to the slots. Each edge of H joins the slots it
occupies at its two endpoints, which are partners. The gadget exists only
as the sorted neighbour lists that the blossom search reads.

Let nu_2(H) be the most edges of a subgraph F of H with every degree at
most 2. Then a maximum matching M of the gadget has |M| = nu_2(H) + #cores:
F's partner pairs plus one free slot per core give a matching that large,
and an unmatched core has all its slots matched, so trading one of their
partner pairs for the core turns M, core by core, into F plus the cores.
``two_matching_deficiency`` returns 2|V(H)| - 2 nu_2(H), which is 0 exactly
when H has a 2-factor; when every degree is at least 2, F is a 2-factor
exactly when M is perfect (Tutte, 1954), which ``build_gadget`` serves.

``max_matching(adj)`` computes a maximum matching of such lists, as a mate
array, by an unweighted Edmonds blossom search with a greedy initial
matching (Edmonds, "Paths, trees, and flowers", 1965). Its blossom bases
are kept in a union-find, a contraction touches only the two tree paths it
closes, and the vertices it makes outer are enqueued in increasing index
order, so the matching found is the one a full rescan of the bases would
find.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .graphs import Graph, GraphError


class GadgetGraph(NamedTuple):
    """The gadget's sorted neighbour lists, and per gadget vertex the host
    edge that it images: a slot's edge, or None for a core."""
    adj: list
    host_edge: list


def _layout(adj: list, mask: int, edges) -> GadgetGraph:
    """The gadget of the subgraph that ``mask`` induces, given the host's
    neighbour masks ``adj`` and the subgraph's edges (u, v), u < v, in
    sorted order. A vertex outside ``mask`` gets an empty block."""
    slot = []   # per host vertex: its next unused slot
    cores = []  # per host vertex: its cores
    lists: list = []
    for v, nbrs in enumerate(adj):
        d = (nbrs & mask).bit_count() if mask >> v & 1 else 0
        start = len(lists)
        slot.append(start)
        cores.append(list(range(start + d, start + 2 * d - 2)))
        lists.extend([None] * d)
        lists.extend(list(range(start, start + d)) for _ in range(d - 2))
    host_edge = [None] * len(lists)
    # the edges are sorted with u < v, so each vertex takes its slots in
    # increasing order of neighbour, and u's block lies below v's: the
    # partner goes last in the list of u's slot and first in v's
    for u, v in edges:
        a, b = slot[u], slot[v]
        slot[u] += 1
        slot[v] += 1
        lists[a] = cores[u] + [b]
        lists[b] = [a] + cores[v]
        host_edge[a] = host_edge[b] = (u, v)
    return GadgetGraph(lists, host_edge)


def build_gadget(g: Graph) -> GadgetGraph:
    for v in range(g.n):
        if g.degree(v) < 2:
            raise GraphError(
                f"vertex {v} has degree {g.degree(v)} < 2; no gadget exists")
    return _layout(g.adj, g.full_mask, g.edges)


def two_matching_deficiency(g: Graph, mask: int) -> int:
    """2|V(H)| - 2 nu_2(H) for the subgraph H of ``g`` that ``mask``
    induces, from one maximum matching of its gadget."""
    edges = [(u, v) for u, v in g.edges if mask >> u & mask >> v & 1]
    gadget_adj, host_edge = _layout(g.adj, mask, edges)
    mate = max_matching(gadget_adj)
    matched = (len(mate) - mate.count(-1)) // 2
    return 2 * mask.bit_count() - 2 * (matched - host_edge.count(None))


# Edmonds blossom maximum matching ------------------------------------------------

def max_matching(adj: list[list[int]]) -> list[int]:
    """mate array of a maximum matching (-1 for exposed vertices).

    ``adj`` lists each vertex's neighbours in increasing order. A greedy
    matching is grown by one single-root search per exposed vertex. The
    blossom bases live in a union-find (``link``; a root is its blossom's
    base). A contraction walks only the two tree paths up to the stem,
    collects the bases on them, and links those bases to the stem only after
    both walks, so each walk sees the bases as they were. The inner vertices
    it makes outer are enqueued in increasing index order, the order a scan
    over all vertices would give, so the mate array is the one that such a
    scan finds. Each search
    resets only the vertices that the previous one touched. When a search
    fails, ``used`` marks exactly the outer vertices of its tree.
    """
    n = len(adj)
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break

    parent = [-1] * n
    link = list(range(n))
    used = [False] * n
    stamp = [0] * n
    clock = 0
    tree: list[int] = []    # vertices given a parent by the current search
    linked: list[int] = []  # bases linked to a stem by the current search
    outer: list[int] = []   # vertices marked used by the current search

    def find(v: int) -> int:
        root = v
        while link[root] != root:
            root = link[root]
        while link[v] != root:
            link[v], v = root, link[v]
        return root

    def lca(a: int, b: int) -> int:
        nonlocal clock
        clock += 1
        while True:
            a = find(a)
            stamp[a] = clock
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = find(b)
            if stamp[b] == clock:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, stem: int, child: int, bases: list[int]):
        while (b := find(v)) != stem:
            bases.append(b)
            bases.append(find(mate[v]))
            parent[v] = child
            tree.append(v)
            child = mate[v]
            v = parent[child]

    def find_augmenting_path(root: int) -> bool:
        for v in tree:
            parent[v] = -1
        for v in linked:
            link[v] = v
        for v in outer:
            used[v] = False
        tree.clear()
        linked.clear()
        outer.clear()
        used[root] = True
        outer.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            v_base = find(v)
            for to in adj[v]:
                if mate[v] == to or v_base == (
                        to if link[to] == to else find(to)):
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    stem = v_base = lca(v, to)
                    bases: list[int] = []
                    mark_path(v, stem, to, bases)
                    mark_path(to, stem, v, bases)
                    # a vertex outside ``used`` is its own blossom's only
                    # member, so the unused bases are all that turn outer
                    for b in sorted(set(bases)):
                        if b != stem:
                            link[b] = stem
                            linked.append(b)
                        if not used[b]:
                            used[b] = True
                            outer.append(b)
                            queue.append(b)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.append(to)
                    if mate[to] == -1:
                        # augment along the alternating path back to root
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = mate[pv]
                            mate[u] = pv
                            mate[pv] = u
                            u = nxt
                        return True
                    used[mate[to]] = True
                    outer.append(mate[to])
                    queue.append(mate[to])
        return False

    for v in range(n):
        if mate[v] == -1:
            find_augmenting_path(v)
    return mate
