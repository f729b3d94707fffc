"""2-factor existence via the Tutte gadget reduction to perfect matching.

A 2-factor (spanning 2-regular subgraph) of G corresponds bijectively, on
host edges, to a perfect matching of the gadget graph (Tutte, 1954). The
gadget has one block per host vertex v, in index order: d(v) edge-slot
vertices, one per edge at v in ``g.edges`` order, then d(v)-2 core
vertices, joined completely bipartitely to the slots; each host edge joins
the slots it occupies at its two endpoints, which are partners. The gadget
exists only as the sorted neighbour lists that the blossom search reads.
Maximum matching is computed by an unweighted Edmonds blossom search with a
greedy initial matching (Edmonds, "Paths, trees, and flowers", 1965). Its
blossom bases are kept in a union-find, a contraction touches only the two
tree paths it closes, and the vertices it makes outer are enqueued in
increasing index order, so the matching found is the one a full rescan of
the bases would find.

``brute_force_two_factor`` is the independent oracle: exhaustive per-vertex
choice of 2 incident edges.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .graphs import CertificateError, Graph, GraphError

if TYPE_CHECKING:
    from .barriers import Barrier


class Matching(NamedTuple):
    """Pairwise vertex-disjoint edge set of a host graph."""
    edges: frozenset

    def covers(self, n: int) -> bool:
        return 2 * len(self.edges) == n


class GadgetGraph(NamedTuple):
    """The gadget's sorted neighbour lists, and per gadget vertex the host
    edge that it images: a slot's edge, or None for a core."""
    adj: list
    host_edge: list

    @property
    def graph(self) -> Graph:
        return Graph(len(self.adj), [(x, y) for x, ys in enumerate(self.adj)
                                     for y in ys if x < y])


def build_gadget(g: Graph) -> GadgetGraph:
    degrees = [g.degree(v) for v in range(g.n)]
    for v, d in enumerate(degrees):
        if d < 2:
            raise GraphError(f"vertex {v} has degree {d} < 2; no gadget exists")
    slot = []   # per host vertex: its next unused slot
    cores = []  # per host vertex: its cores
    adj: list[list[int]] = []
    for d in degrees:
        start = len(adj)
        slot.append(start)
        cores.append(list(range(start + d, start + 2 * d - 2)))
        adj.extend([None] * d)
        adj.extend(list(range(start, start + d)) for _ in range(d - 2))
    host_edge = [None] * len(adj)
    # g.edges is sorted with u < v, so u's block lies below v's: the
    # partner goes last in the list of u's slot and first in v's
    for u, v in g.edges:
        a, b = slot[u], slot[v]
        slot[u] += 1
        slot[v] += 1
        adj[a] = cores[u] + [b]
        adj[b] = [a] + cores[v]
        host_edge[a] = host_edge[b] = (u, v)
    return GadgetGraph(adj, host_edge)


# Edmonds blossom maximum matching ------------------------------------------------

def _blossom_matching(n: int, adj: list[list[int]]) -> list[int]:
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


def max_matching(h: Graph) -> Matching:
    # h.edges is sorted, so each neighbour list comes out sorted
    adj: list[list[int]] = [[] for _ in range(h.n)]
    for u, v in h.edges:
        adj[u].append(v)
        adj[v].append(u)
    mate = _blossom_matching(h.n, adj)
    edges = frozenset((v, mate[v]) for v in range(h.n)
                      if mate[v] > v)
    return Matching(edges)


# 2-factors ------------------------------------------------------------------------

class TwoFactor(NamedTuple):
    """Edge set of a spanning 2-regular subgraph of the host graph."""
    edges: frozenset


class TwoFactorResult(NamedTuple):
    factor: TwoFactor | None
    barrier: Barrier | None = None  # attached on request

    @property
    def exists(self) -> bool:
        return self.factor is not None


def verify_two_factor(g: Graph, f: TwoFactor) -> bool:
    """Whether ``f`` lists each of its edges once, in either orientation, and
    meets every vertex twice. A pair that is no edge of ``g`` (out of range,
    a loop or a non-edge) raises ``GraphError``."""
    pairs = {(u, v) if u < v else (v, u) for u, v in f.edges}
    if stray := sorted(pairs.difference(g.edges)):
        raise GraphError(f"factor edges {stray} not in host graph")
    degree = Counter(v for pair in pairs for v in pair)
    return (len(pairs) == len(f.edges)
            and all(degree[v] == 2 for v in range(g.n)))


def find_two_factor(g: Graph, certify: bool = False) -> TwoFactorResult:
    """Find a 2-factor or report none.

    With ``certify`` set and order within the exhaustive cap, a Tutte
    barrier is attached to negative answers as an independent certificate.
    """
    def negative() -> TwoFactorResult:
        barrier = None
        if certify:
            from .barriers import EXHAUSTIVE_BARRIER_CAP, find_barrier
            if g.n <= EXHAUSTIVE_BARRIER_CAP:
                barrier = find_barrier(g)
        return TwoFactorResult(None, barrier)

    if any(g.degree(v) < 2 for v in range(g.n)):
        return negative()
    adj, host_edge = build_gadget(g)
    mate = _blossom_matching(len(adj), adj)
    if -1 in mate:
        return negative()
    # a slot is matched to a core or to its partner, which images its edge
    factor = TwoFactor(frozenset(e for x, e in enumerate(host_edge)
                                 if e is not None and host_edge[mate[x]] == e))
    if not verify_two_factor(g, factor):
        raise CertificateError("the matched edges do not form a 2-factor")
    return TwoFactorResult(factor)


BRUTE_FORCE_ORDER_CAP = 10
BRUTE_FORCE_EDGE_CAP = 20


def brute_force_two_factor(g: Graph) -> TwoFactor | None:
    """Ground-truth 2-factor search by per-vertex 2-subset composition."""
    if g.n > BRUTE_FORCE_ORDER_CAP and len(g.edges) > BRUTE_FORCE_EDGE_CAP:
        raise GraphError("instance too large for the brute-force oracle")
    n = g.n
    nbrs = [sorted(g.neighbors(v)) for v in range(n)]
    chosen_deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def search(v: int):
        if v == n:
            return list(chosen)
        need = 2 - chosen_deg[v]
        if need < 0:
            return None
        later = [u for u in nbrs[v] if u > v and chosen_deg[u] < 2]
        if need > len(later):
            return None
        for combo in combinations(later, need):
            for u in combo:
                chosen_deg[u] += 1
                chosen.append((v, u))
            chosen_deg[v] += need
            result = search(v + 1)
            if result is not None:
                return result
            chosen_deg[v] -= need
            for u in combo:
                chosen_deg[u] -= 1
                chosen.pop()
        return None

    result = search(0)
    if result is None:
        return None
    return TwoFactor(frozenset(result))
