"""2-factor existence and its certificate via perfect matching in a gadget.

Let nu_2(H) be the most edges of a subgraph F of H with every degree at
most 2, and def_2(H) = 2|V(H)| - 2 nu_2(H), which is 0 exactly when H has
a 2-factor.

The split gadget decides existence. Of the subgraph H that a vertex mask
induces, with m edges, it has two copies of each vertex v of G (2v and
2v + 1), then two ports per edge uv of H in sorted edge order: p_u, joined
to both copies of u, and p_v, joined to both copies of v, and p_u to p_v.
So it has 2n + 2m vertices and 5m edges. Its maximum matchings have
m + nu_2(H) edges. Proof: each F above gives a matching that large, its
edges' ports on copies (each end has two) and every other edge's ports on
each other. Conversely every gadget edge meets a port, and a matching M
has at most 2 edges at the ports of each edge e, 2 only when both ports
are on copies; those edges F' have every degree at most 2, since each
vertex has two copies, so |M| <= 2|F'| + (m - |F'|) <= m + nu_2(H). A maximum M therefore has |F'| = nu_2(H): the
edges with both ports on copies form a largest F, a 2-factor when M is
perfect. ``find_two_factor`` takes the greedy F of ``_greedy_f``
(low-degree edges first) and grows it on the host (``_grow``): from each
u with room (d_F(u) < 2) it flips an alternating path u-v-w-x, adding uv
and wx and dropping the F-edge vw, where x has room (x = u when u has
room for both edges). A flip adds one edge and keeps every degree at
most 2. No edge outside the greedy F joins two vertices with room, and a
flip keeps that: v and w, each joined outside F to a vertex with room,
are full, so the dropped vw joins two full vertices, and only the ends
gain. So no shorter path u-v, with v in room, ever arises. An F of n
edges is a 2-factor, as its degrees, each at most 2, sum to 2n: no
gadget is built. Otherwise F seeds the split gadget, leaving
sum_v (2 - d_F(v)) copies exposed, and without ``certify`` the search
stops at the first failed search. That settles "no" from any seed: if a
perfect matching P existed, the path of M xor P that starts at the
failed root r with its P-edge would end after a P-edge at a vertex
exposed in M (every vertex is covered by P), so it would be an
augmenting path from r, which the search would have found.

The same gadget carries the certificate. Let M be a maximum matching of
it, not perfect, and D, X = N(D) - D and C the Gallai-Edmonds sets: D
holds the vertices that some maximum matching misses. Every maximum
matching is near-perfect on each component of D, perfect on C, and matches
X into distinct components of D (Lovasz and Plummer, "Matching Theory",
1986, Thm 3.2.1). So those components have odd order, M misses c(D) - |X|
vertices, a vertex of C has a neighbour in C, and each x in X sees two
components of D (if one only, every maximum matching would match x into it
and cover it). D is the set of outer vertices of the failed searches from
M's exposed vertices, so M does not change it: an even alternating path P
from an exposed r to v gives the maximum M xor P that misses v; and if a
maximum M' misses v and M covers it, the path of M xor M' from v has even
length (else it augments M'), so it is such a path from its other end,
exposed in M. A search from r marks outer exactly the ends of even
alternating paths from r (Edmonds, "Paths, trees, and flowers", 1965).
So the seed that M grew from changes neither D nor the barrier read off
it below. A failed search does not change the matching, so the searches
that ``_augment`` ran after its last augmentation ran on M itself: their
outer sets are reused, and only the other exposed vertices are searched
again.

``_split_pair`` reads the barrier (``Barrier``; ``barriers`` states the
deficiency): v joins A when its copies are in X, B when they are in D and
X holds all of v's ports; swapping 2v and 2v + 1 is an automorphism, so
the copies share a set. Claim: -deficiency(A, B) >= c(D) - |X| = def_2(G),
so (A, B) is a barrier, of the largest deficit by the weak half of Tutte's
f-factor theorem (``barriers``). Proof: a port in X sees at most one
component of D through its partner, so its copies are in D. Let R_D and
R_C hold the other vertices, with copies in D and in C. So the ports of
R_C are in C. A v in R_D has a port in D, so its copies lie in one
component K_v, and a port of v in X, seeing K_v only through them, has its
partner in D outside K_v: at A or R_D, as the ports of B are in X and those
of R_C in C. So no edge joins R_C and R_D, and an edge at R_D has a port
in D. The components of D are the copies of B, alone; ports at A alone,
with the partner in X (two would form an even component): one per edge
from A to B (that port sees only X, so is not in C) and one per port of
R_D in X with its partner at A; and those holding copies of R_D, each
within one component H of G - A - B, as it passes between copies only by
the two ports of an edge inside R_D. Counting X likewise, c(D) - |X| =
2|B| - 2|A| - sum_{v in B} d_{G-A}(v) + sum_H (k_H - r_H) over the H in
R_D, where k_H components of D hold copies of H and r_H ports of H in X
have their partner in H. An edge of H with both ports in D stays in one
component and the others are the r_H, so, H being connected, k_H - r_H <=
1. The k_H odd components hold 2|H| + e(H, B) + r_H + (an even number)
vertices, so k_H = r_H + 1 makes e(H, B) odd: H counts in o(A, B).

``build_gadget`` lays out Tutte's gadget (Tutte, 1954): per vertex v, d(v)
edge slots and d(v) - 2 cores joined to them, each edge between the slots
it occupies. ``max_matching(adj)`` matches sorted neighbour lists (a mate
array) by the blossom search from a greedy matching, each vertex on its
first free neighbour. The package calls neither; the tests pin both. A
contraction enqueues the vertices it makes outer in increasing index
order, so the matching found is the one a full rescan of the bases finds.

``brute_force_two_factor`` is the independent oracle: exhaustive per-vertex
choice of 2 incident edges.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations
from typing import NamedTuple

from .graphs import (CertificateError, Graph, GraphError, component_masks,
                     iter_bits)


# The gadgets ------------------------------------------------------------------------

class GadgetGraph(NamedTuple):
    """The Tutte gadget's sorted neighbour lists, and per gadget vertex the
    host edge that it images: a slot's edge, or None for a core."""
    adj: list
    host_edge: list


def build_gadget(g: Graph) -> GadgetGraph:
    slot = []   # per host vertex: its next unused slot
    cores = []  # per host vertex: its cores
    lists: list = []
    for v in range(g.n):
        d = g.degree(v)
        if d < 2:
            raise GraphError(f"vertex {v} has degree {d} < 2; no gadget exists")
        start = len(lists)
        slot.append(start)
        cores.append(list(range(start + d, start + 2 * d - 2)))
        lists.extend([None] * d)
        lists.extend(list(range(start, start + d)) for _ in range(d - 2))
    host_edge = [None] * len(lists)
    # the edges are sorted with u < v, so each vertex takes its slots in
    # increasing order of neighbour, and u's block lies below v's: the
    # partner goes last in the list of u's slot and first in v's
    for u, v in g.edges:
        a, b = slot[u], slot[v]
        slot[u] += 1
        slot[v] += 1
        lists[a] = cores[u] + [b]
        lists[b] = [a] + cores[v]
        host_edge[a] = host_edge[b] = (u, v)
    return GadgetGraph(lists, host_edge)


def _split(g: Graph, mask: int, f) -> tuple[list, list, list]:
    """(neighbour lists, edges, mate) of the split gadget of the subgraph
    on ``mask``, seeded from its subgraph ``f`` of degrees at most 2: the
    ports of f's edges on copies, every other edge's ports on each other."""
    f = set(f)
    n2 = 2 * g.n
    adj: list = [[] for _ in range(n2)]
    mate = [-1] * n2
    edges = [e for e in g.edges if mask >> e[0] & mask >> e[1] & 1]
    for i, e in enumerate(edges):
        p = n2 + 2 * i
        for port, other, v in ((p, p + 1, e[0]), (p + 1, p, e[1])):
            adj[2 * v].append(port)
            adj[2 * v + 1].append(port)
            adj.append([2 * v, 2 * v + 1, other])
            mate.append(other)
            if e in f:
                copy = 2 * v if mate[2 * v] == -1 else 2 * v + 1
                mate[port], mate[copy] = copy, port
    return adj, edges, mate


def two_matching_deficiency(g: Graph, mask: int) -> int:
    """def_2(H) of the subgraph H of ``g`` that ``mask`` induces."""
    return _split_deficiency(g, mask, _greedy_f(g, mask))


def _split_deficiency(g: Graph, mask: int, f) -> int:
    """def_2 of the subgraph on ``mask``, from one maximum matching of its
    split gadget seeded from its subgraph ``f`` of degrees at most 2."""
    adj, edges, mate = _split(g, mask, f)
    _augment(adj, mate, False)
    matched = (len(mate) - mate.count(-1)) // 2
    return 2 * mask.bit_count() - 2 * (matched - len(edges))


# Edmonds blossom maximum matching ------------------------------------------------

def _searches(adj: list[list[int]], mate: list[int]):
    """``(search, outer)``: ``search(root)`` grows an alternating tree from
    the exposed ``root``, and augments ``mate`` and returns True if it meets
    another exposed vertex. Blossom bases are the roots of the union-find
    ``link``; a contraction links the bases on both its tree paths only
    after walking both. Each search resets only what the last one touched;
    after a failed one, ``outer`` lists the outer vertices of its tree."""
    n = len(adj)
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

    def search(root: int) -> bool:
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

    return search, outer


def _augment(adj: list[list[int]], mate: list[int], stop: bool) -> dict:
    """Grow ``mate`` by one search per exposed vertex with a neighbour.
    Returns the outer vertices of each failed search made after the last
    search that augmented, by root: an augmentation changes the matching
    the searches before it ran on. With ``stop``, give up at the first
    failed search: its root stays exposed, so no matching is perfect."""
    search, outer = _searches(adj, mate)
    failed: dict = {}
    for v in range(len(adj)):
        if mate[v] == -1 and adj[v]:
            if search(v):
                failed.clear()
            else:
                failed[v] = outer.copy()
                if stop:
                    break
    return failed


def max_matching(adj: list[list[int]]) -> list[int]:
    """mate array (-1 if exposed) of a maximum matching of the sorted lists
    ``adj``: a greedy matching grown by one search per exposed vertex."""
    mate = [-1] * len(adj)
    for v, nbrs in enumerate(adj):
        if mate[v] == -1:
            for u in nbrs:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break
    _augment(adj, mate, False)
    return mate


def _greedy_f(g: Graph, mask: int) -> list:
    """Edges of a subgraph F of the subgraph on ``mask``, every degree at
    most 2: low-degree edges first, each kept while both ends have room."""
    deg = [(nbrs & mask).bit_count() for nbrs in g.adj]
    room = [2] * g.n
    f = []
    for u, v in sorted((e for e in g.edges if mask >> e[0] & mask >> e[1] & 1),
                       key=lambda e: (min(deg[e[0]], deg[e[1]]),
                                      deg[e[0]] + deg[e[1]])):
        if room[u] and room[v]:
            room[u], room[v] = room[u] - 1, room[v] - 1
            f.append((u, v))
    return f


def _grow(g: Graph, f: list) -> list:
    """``f``, the edges (u, v), u < v, of a subgraph of ``g`` of degrees at
    most 2, grown by one edge along each alternating path u-v-w-x found
    from a vertex u with room (module docstring); ``f`` itself if none is
    found."""
    adj = g.adj
    fadj = [0] * g.n
    for u, v in f:
        fadj[u] |= 1 << v
        fadj[v] |= 1 << u
    room = sum(1 << v for v in range(g.n) if fadj[v].bit_count() < 2)
    size = len(f)
    for u in iter_bits(room):
        while room >> u & 1:
            # x = u closes a triangle, so u needs room for both edges
            ends = room & ~(fadj[u] and 1 << u)
            # ws: each w joined outside F to an end x; vs: their
            # F-neighbours
            ws = vs = 0
            for x in iter_bits(ends):
                ws |= adj[x] & ~fadj[x]
            for w in iter_bits(ws):
                vs |= fadj[w]
            if not (vs := vs & adj[u] & ~fadj[u]):
                break
            v = _low(vs)
            w = _low(fadj[v] & ws)
            x = _low(adj[w] & ~fadj[w] & ends)
            fadj[u] |= 1 << v
            fadj[v] ^= 1 << u | 1 << w
            fadj[w] ^= 1 << v | 1 << x
            fadj[x] |= 1 << w
            for y in (u, x):
                if fadj[y].bit_count() == 2:
                    room &= ~(1 << y)
            size += 1
    if size == len(f):
        return f
    return [(u, v) for u in range(g.n)
            for v in iter_bits(fadj[u] >> u + 1 << u + 1)]


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _split_pair(g: Graph, adj: list, mate: list,
                failed: dict | None = None) -> tuple[int, int]:
    """(A, B) masks read off a maximum matching ``mate``, not perfect, of
    the split gadget ``adj`` of ``g`` (module docstring). The exposed
    vertices in ``failed``, as ``_augment`` returns it for ``mate``, keep
    the outer sets of their searches there; the others are searched here.
    A search that augments shows ``mate`` is not maximum and raises
    CertificateError."""
    failed = failed or {}
    search, outer = _searches(adj, mate)
    in_d = set()
    for root in [x for x, m in enumerate(mate) if m == -1]:
        if root in failed:
            in_d.update(failed[root])
        elif search(root):
            raise CertificateError("the gadget matching is not maximum")
        else:
            in_d.update(outer)
    in_x = {y for x in in_d for y in adj[x]} - in_d
    a_mask = b_mask = 0
    for v in range(g.n):
        if 2 * v in in_x:
            a_mask |= 1 << v
        elif 2 * v in in_d and in_x.issuperset(adj[2 * v]):
            b_mask |= 1 << v
    return a_mask, b_mask


# 2-factors ------------------------------------------------------------------------

class TwoFactor(NamedTuple):
    """Edge set of a spanning 2-regular subgraph of the host graph."""
    edges: frozenset


class Barrier(NamedTuple):
    a: frozenset
    b: frozenset
    deficiency: int


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

    With ``certify`` set, a negative answer carries a barrier at every
    order: (empty, {v}) for the lowest v of degree below 2, else the pair
    ``_split_pair`` reads off the split gadget, proved a barrier in the
    module docstring; a pair of deficiency above -2 raises CertificateError.
    """
    low = next((v for v in range(g.n) if g.degree(v) < 2), None)
    if low is not None:
        return _negative(g, (0, 1 << low) if certify else None)
    f = _greedy_f(g, g.full_mask)
    if len(f) < g.n:
        f = _grow(g, f)
    # n edges of degrees at most 2 meet every vertex twice: no gadget
    if len(f) < g.n:
        adj, edges, mate = _split(g, g.full_mask, f)
        failed = _augment(adj, mate, not certify)
        if -1 in mate:
            return _negative(g, _split_pair(g, adj, mate, failed)
                             if certify else None)
        # _split matches every port and augmenting keeps it matched, so
        # p_u is on a copy exactly when p_v is
        n2 = 2 * g.n
        f = [e for i, e in enumerate(edges) if mate[n2 + 2 * i] < n2]
    if not verify_two_factor(g, factor := TwoFactor(frozenset(f))):
        raise CertificateError("the edges found do not form a 2-factor")
    return TwoFactorResult(factor)


def _as_barrier(a_mask: int, b_mask: int, d: int) -> Barrier:
    return Barrier(frozenset(iter_bits(a_mask)),
                   frozenset(iter_bits(b_mask)), d)


def _deficiency_masks(g: Graph, a_mask: int, b_mask: int) -> int:
    adj = g.adj
    odd = 0
    for comp in component_masks(adj, g.full_mask & ~a_mask & ~b_mask):
        e_hb = 0
        for v in iter_bits(comp):
            e_hb += (adj[v] & b_mask).bit_count()
        odd += e_hb & 1
    return _deficiency_from(g, a_mask, b_mask, odd)


def _deficiency_from(g: Graph, a_mask: int, b_mask: int, odd: int) -> int:
    """deficiency(A, B) of the masks, given o(A, B) = ``odd``."""
    adj = g.adj
    degree_sum = 0
    for v in iter_bits(b_mask):
        degree_sum += (adj[v] & ~a_mask).bit_count()
    return (2 * a_mask.bit_count() - 2 * b_mask.bit_count()
            + degree_sum - odd)


def _negative(g: Graph, pair: tuple[int, int] | None) -> TwoFactorResult:
    """No 2-factor, with the barrier of the (A, B) masks ``pair`` if given."""
    if pair is None:
        return TwoFactorResult(None)
    d = _deficiency_masks(g, *pair)
    if d > -2:
        raise CertificateError(
            f"the pair read off the matching has deficiency {d} > -2")
    return TwoFactorResult(None, _as_barrier(*pair, d))


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
