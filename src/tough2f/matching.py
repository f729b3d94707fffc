"""2-factor existence via the Tutte gadget reduction to perfect matching.

A 2-factor (spanning 2-regular subgraph) of G corresponds bijectively, on
host edges, to a perfect matching of the gadget graph: each host vertex v
contributes d(v) edge-slot vertices and d(v)-2 core vertices, joined
completely bipartitely; each host edge becomes a single gadget edge between
the slots it occupies at its two endpoints. Maximum matching is computed by
an unweighted Edmonds blossom search with a greedy initial matching
(Edmonds, "Paths, trees, and flowers", 1965). Its blossom bases are kept in
a union-find, a contraction touches only the two tree paths it closes, and
the vertices it makes outer are enqueued in increasing index order, so the
matching found is the one a full rescan of the bases would find.

``brute_force_two_factor`` is the independent oracle: exhaustive per-vertex
choice of 2 incident edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .barriers import EXHAUSTIVE_BARRIER_CAP, Barrier, find_barrier
from .graphs import CertificateError, Graph, GraphError


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edge set of a host graph."""
    edges: frozenset

    def covers(self, n: int) -> bool:
        return 2 * len(self.edges) == n


@dataclass(frozen=True)
class GadgetGraph:
    graph: Graph
    # gadget edge (sorted pair) -> host edge, for the host-edge images only
    edge_map: dict
    # per gadget vertex: (host vertex, "slot" | "core")
    vertex_origin: tuple


def build_gadget(g: Graph) -> GadgetGraph:
    degrees = [g.degree(v) for v in range(g.n)]
    for v, d in enumerate(degrees):
        if d < 2:
            raise GraphError(f"vertex {v} has degree {d} < 2; no gadget exists")
    slot_of = {}  # (v, index of incident edge at v) -> gadget vertex
    origin = []
    edges = []
    idx = 0
    incident_count = [0] * g.n
    for v in range(g.n):
        slots = []
        for i in range(degrees[v]):
            slot_of[(v, i)] = idx
            origin.append((v, "slot"))
            slots.append(idx)
            idx += 1
        for _ in range(degrees[v] - 2):
            origin.append((v, "core"))
            edges.extend((s, idx) for s in slots)
            idx += 1
    edge_map = {}
    for u, v in g.edges:
        a = slot_of[(u, incident_count[u])]
        b = slot_of[(v, incident_count[v])]
        incident_count[u] += 1
        incident_count[v] += 1
        key = (a, b) if a < b else (b, a)
        edges.append(key)
        edge_map[key] = (u, v)
    return GadgetGraph(Graph(idx, edges), edge_map, tuple(origin))


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

@dataclass(frozen=True)
class TwoFactor:
    """Edge set of a spanning 2-regular subgraph of the host graph."""
    edges: frozenset


@dataclass(frozen=True)
class TwoFactorResult:
    factor: TwoFactor | None
    barrier: Barrier | None = None  # attached on request

    @property
    def exists(self) -> bool:
        return self.factor is not None


def verify_two_factor(g: Graph, f: TwoFactor) -> bool:
    degree = [0] * g.n
    for u, v in f.edges:
        if not g.has_edge(u, v):
            raise GraphError(f"factor edge ({u},{v}) not in host graph")
        degree[u] += 1
        degree[v] += 1
    return g.n > 0 and all(d == 2 for d in degree)


def find_two_factor(g: Graph, certify: bool = False) -> TwoFactorResult:
    """Find a 2-factor or report none.

    With ``certify`` set and order within the exhaustive cap, a Tutte
    barrier is attached to negative answers as an independent certificate.
    """
    def negative() -> TwoFactorResult:
        barrier = None
        if certify and g.n <= EXHAUSTIVE_BARRIER_CAP:
            barrier = find_barrier(g)
        return TwoFactorResult(None, barrier)

    if g.n == 0 or any(g.degree(v) < 2 for v in range(g.n)):
        return negative()
    gadget = build_gadget(g)
    matching = max_matching(gadget.graph)
    if not matching.covers(gadget.graph.n):
        return negative()
    host_edges = frozenset(gadget.edge_map[e] for e in matching.edges
                           if e in gadget.edge_map)
    factor = TwoFactor(host_edges)
    if not verify_two_factor(g, factor):
        raise CertificateError("the matched edges do not form a 2-factor")
    return TwoFactorResult(factor)


BRUTE_FORCE_ORDER_CAP = 10
BRUTE_FORCE_EDGE_CAP = 20


def brute_force_two_factor(g: Graph) -> TwoFactor | None:
    """Ground-truth 2-factor search by per-vertex 2-subset composition."""
    if g.n > BRUTE_FORCE_ORDER_CAP and len(g.edges) > BRUTE_FORCE_EDGE_CAP:
        raise GraphError("instance too large for the brute-force oracle")
    if g.n == 0:
        return None
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
