"""Exact graph invariants: minimum degree, independence number, vertex
connectivity and toughness.

Toughness and the independence number are NP-hard in general; the searches
here are exact and exhaustive with pruning. Toughness is read from one
resumable ``CutWalk`` per graph: each threshold question walks the cut
sets on from where the last stopped, and ``toughness`` walks to the end.
The universal vertices U, adjacent to every other, lie in every cut, so
U is stripped once and both engines search G - U, which may be
disconnected. The walk is practical up to roughly order 24, unless a
clique X splits G - U into small pieces. Then a kernel (``separator``)
optimises each piece alone and merges the results, with |U| added to
every |S|, for the same value and witness; every question is answered
from that one value. Its work bound is 2^|Y| * sum over pieces P of
2^(|P| + |private(P)|), where Y holds the X-vertices next to two or more
pieces and private(P) those next to P alone. X is grown greedily by
degree, and the kernel runs when the bound is below the walk's
2^(n - |U|) by the factor 2^CLIQUE_KERNEL_MARGIN_BITS. It takes
milliseconds on H(n) and G(1,1) and about 30 ms on Ghat(2,2), order 62.
The cut walk skips the sizes below kappa(G), as no smaller set cuts G.
The independence search also prunes on a greedy clique cover, which
bounds alpha from above, and returns the same alpha and witness as
without it; it takes well under a second on random graphs of order 80
and on the paper's constructions.
Connectivity is read off the minimum degree when it is 1 or 2 (kappa <=
delta; with delta = 2, kappa is 1 exactly when G has a cut vertex).
Otherwise it tests only the pairs that Esfahanian-Hakimi selection keeps
(Networks 14, 1984): a vertex v of minimum degree against each
non-neighbour, and each non-adjacent pair of neighbours of v. Each pair
is tried first with greedy shortest paths over bitmasks; when they reach
the best value so far, the pair cannot lower it (Menger's theorem, easy
direction). Only the other pairs run an exact unit-capacity flow on the
vertex-split network, so the answer is exact. The greedy paths settle
most pairs: all but 24 of the 2,175 pairs that 800 random graphs of
orders 8-11 test, and every pair of Ghat(2,2), order 62, which takes
about 2 ms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .graphs import Graph, GraphError, component_masks, iter_bits
from .rationals import INF


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise GraphError("minimum degree of the empty graph is undefined")
    return min(g.degree(v) for v in range(g.n))


# Independence number -----------------------------------------------------------

def independence_number(g: Graph) -> tuple[int, frozenset]:
    """alpha(G) with a witnessing independent set.

    Branch and bound on the highest-degree remaining vertex, seeded with a
    greedy (min-degree-first) solution. A node is pruned when even all its
    remaining vertices, or one vertex from each clique of a greedy clique
    cover of them, could not beat the best set so far: an independent set
    meets each clique at most once, so the cover's size bounds alpha of the
    remaining graph (the colouring bound of Tomita and Seki, DMTCS 2003,
    on the complement). The best set changes only on a strictly larger
    set, which a pruned node cannot hold, so alpha and the witness are
    those of the unpruned search.
    """
    adj = g.adj
    full = g.full_mask

    def cover(avail: int) -> int:
        """Cliques in a greedy clique cover of ``avail``, lowest first."""
        cliques = 0
        while avail:
            low = avail & -avail
            grow = adj[low.bit_length() - 1] & avail
            avail ^= low
            while grow:
                low = grow & -grow
                avail ^= low
                grow &= adj[low.bit_length() - 1]
            cliques += 1
        return cliques

    def greedy(avail: int) -> int:
        chosen = 0
        while avail:
            v = min(iter_bits(avail), key=lambda u: (adj[u] & avail).bit_count())
            chosen |= 1 << v
            avail &= ~(adj[v] | 1 << v)
        return chosen

    best_set = greedy(full)
    best = best_set.bit_count()

    def expand(avail: int, chosen: int, size: int):
        nonlocal best, best_set
        count = avail.bit_count()
        if size + count <= best or size + cover(avail) <= best:
            return
        v = -1
        vdeg = -1
        for u in iter_bits(avail):
            d = (adj[u] & avail).bit_count()
            if d > vdeg:
                v, vdeg = u, d
        if vdeg == 0:
            # remaining vertices are pairwise non-adjacent
            best = size + count
            best_set = chosen | avail
            return
        expand(avail & ~(adj[v] | 1 << v), chosen | 1 << v, size + 1)
        expand(avail & ~(1 << v), chosen, size)

    expand(full, 0, 0)
    return best, frozenset(iter_bits(best_set))


# Vertex connectivity ------------------------------------------------------------

def _split_network(g: Graph) -> tuple:
    """Vertex-split network of ``g``: v_in = 2v, v_out = 2v + 1.

    Returns (out, head, cap): the arcs leaving each node, each arc's head and
    its capacity. Arc i ^ 1 is the reverse of arc i, with capacity 0. Every
    forward arc has capacity 1: paths leave s at s_out and enter t at t_in,
    and with unit vertex capacities no edge arc carries more than one path.
    """
    out: list[list[int]] = [[] for _ in range(2 * g.n)]
    head: list[int] = []

    def arc(a: int, b: int) -> None:
        out[a].append(len(head))
        head.append(b)
        out[b].append(len(head))
        head.append(a)

    for v in range(g.n):
        arc(2 * v, 2 * v + 1)
    for u, v in g.edges:
        arc(2 * u + 1, 2 * v)
        arc(2 * v + 1, 2 * u)
    return out, head, [1, 0] * (len(head) // 2)


def _local_connectivity(network: tuple, s: int, t: int, cutoff: int) -> int:
    """Max number of internally vertex-disjoint s-t paths, capped at cutoff,
    by BFS augmentation on a copy of ``network`` (see _split_network)."""
    out, head, cap = network
    cap = cap.copy()
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cutoff:
        via = [-1] * len(out)  # the arc each node was reached by
        via[source] = len(head)  # reached, by no arc
        queue = [source]
        for a in queue:
            for i in out[a]:
                b = head[i]
                if cap[i] and via[b] < 0:
                    via[b] = i
                    queue.append(b)
            if via[sink] >= 0:
                break
        else:
            break
        b = sink
        while b != source:
            i = via[b]
            cap[i] -= 1
            cap[i ^ 1] += 1
            b = head[i ^ 1]
        flow += 1
    return flow


def _greedy_paths(adj, s: int, t: int, cutoff: int) -> list[tuple]:
    """Up to ``cutoff`` internally disjoint paths between the non-adjacent
    vertices s and t of the graph ``adj``, each a vertex tuple from s to t.

    Each path is a shortest s-t path in G minus the internal vertices of
    the paths before it: a BFS from s in bitmask layers, traced back from
    t through the lowest neighbour in each layer. So the paths s-w-t
    through the common neighbours w come first, in increasing order, and
    are taken at once. The search ends at ``cutoff`` paths or when t is out
    of reach. A greedy path can block two others, so it may find fewer
    paths than the local connectivity.
    """
    common = adj[s] & adj[t]
    paths = [(s, w, t) for w in iter_bits(common)][:cutoff]
    free = ((1 << len(adj)) - 1) & ~(1 << s) & ~common  # not s, on no path
    while len(paths) < cutoff:
        layers = []  # the free vertices at distance 1, 2, ... from s
        seen = frontier = 1 << s
        while not frontier >> t & 1:
            reach, rest = 0, frontier
            while rest:
                low = rest & -rest
                reach |= adj[low.bit_length() - 1]
                rest ^= low
            frontier = reach & free & ~seen
            if not frontier:
                return paths
            seen |= frontier
            layers.append(frontier)
        path = [t]
        for layer in reversed(layers[:-1]):
            low = layer & adj[path[-1]]
            low &= -low
            free ^= low
            path.append(low.bit_length() - 1)
        path.append(s)
        paths.append(tuple(reversed(path)))
    return paths


def connectivity(g: Graph) -> int:
    """kappa(G); convention kappa(K_n) = n - 1, kappa(disconnected) = 0.

    A connected graph that is not complete has kappa <= delta: the
    neighbours of a vertex v of minimum degree separate v from a
    non-neighbour. So delta = 1 gives kappa = 1, and delta = 2 gives
    kappa = 1 when some G - u is disconnected (u is a cut vertex) and
    kappa = 2 otherwise. No pair is tested then.

    For delta >= 3 only the Esfahanian-Hakimi pairs are tested. Take v of
    minimum degree. A minimum separator S that misses v separates v from a
    non-neighbour; one that contains v separates two non-adjacent
    neighbours of v, because v has neighbours in two components of G - S
    (else S - v would separate).

    Each pair is tried first with ``_greedy_paths``, capped at the best
    value so far. By the easy direction of Menger's theorem, that many
    internally disjoint paths show the pair cannot lower it. Only a pair
    with fewer greedy paths runs the exact flow (``_local_connectivity``),
    on a split network built at most once per graph.
    """
    if g.n == 0:
        raise GraphError("connectivity of the empty graph is undefined")
    if g.is_complete():
        return g.n - 1
    if not g.is_connected():
        return 0
    adj = g.adj
    v = min(range(g.n), key=g.degree)
    best = g.degree(v)  # kappa <= delta for non-complete graphs
    if best == 1:
        return 1
    if best == 2:
        full = g.full_mask
        return 1 if any(len(component_masks(adj, full & ~(1 << u))) > 1
                        for u in range(g.n)) else 2
    pairs = [(v, w) for w in iter_bits(g.full_mask & ~adj[v] & ~(1 << v))]
    pairs += [(x, y) for x in iter_bits(adj[v])
              for y in iter_bits(adj[v] & ~adj[x] & ~((2 << x) - 1))]
    network = None  # built for the first pair the greedy paths leave open
    for s, t in pairs:
        if len(_greedy_paths(adj, s, t, best)) < best:
            if network is None:
                network = _split_network(g)
            best = _local_connectivity(network, s, t, best)
    return best


# Toughness -----------------------------------------------------------------------

class ToughnessResult(NamedTuple):
    """Exact toughness with a witnessing cut set.

    ``witness`` is None for complete graphs (value ``INF``) and the empty
    set for disconnected graphs (value 0 by convention).
    """
    value: Fraction | float
    witness: frozenset | None


def _drop_universal(g: Graph) -> tuple:
    """(radj, U): U the mask of g's universal vertices, those adjacent to
    every other, in the labels v -> n-1-v, and radj the adjacency masks of
    G - U in those labels, each gap closed. Among vertex sets of one size,
    the lexicographically first is the one whose mask is the largest."""
    n = g.n
    label = [-1] * n  # v's label in radj, -1 for a vertex of U
    universal = k = 0
    for v in reversed(range(n)):
        if g.degree(v) == n - 1:
            universal |= 1 << n - 1 - v
        else:
            label[v], k = k, k + 1
    radj = [0] * k
    for u, v in g.edges:
        a, b = label[u], label[v]
        if a >= 0 <= b:
            radj[a] |= 1 << b
            radj[b] |= 1 << a
    return radj, universal


# Clique separators ----------------------------------------------------------------

# ``CutWalk`` takes tau from the clique kernel (``separator``) only when
# its cost bound on G - U is below the walk's 2^(n - |U|) by this many
# bits. The hunt graphs of the benchmark's seeds 1-3 (orders 8-11) fall at
# least 2^2.3 short, and there the walk, with its early stops, is faster;
# H(3) clears the margin by 2^1.2, H(4) by 2^4.8 and G(1,1) by 2^8.4.
CLIQUE_KERNEL_MARGIN_BITS = 8


def _clique_split(adj: list[int], clique: int) -> tuple:
    """(shared, pieces, cost) of the graph ``adj`` cut along a clique X:
    the X-vertices in two or more A(P), the others of an A(P) private to P;
    each component P of G - X paired with A(P) = N(P) & X; and the clique
    kernel's work bound, 2^|shared| * sum over P of 2^(|private(P)| + |P|).
    """
    pieces = []
    seen = shared = 0
    for piece in component_masks(adj, ((1 << len(adj)) - 1) & ~clique):
        touch = 0
        for v in iter_bits(piece):
            touch |= adj[v]
        touch &= clique
        shared |= seen & touch
        seen |= touch
        pieces.append((piece, touch))
    cost = sum(1 << ((touch & ~shared).bit_count() + piece.bit_count())
               for piece, touch in pieces) << shared.bit_count()
    return shared, pieces, cost


def _kernel_split(radj: list[int]) -> tuple | None:
    """(clique, shared, pieces) of the reversed-label adjacency of a
    non-complete graph if the clique kernel is cheap on it against the cut
    walk's 2^n, else None. The clique is grown by descending degree, ties
    to the lower vertex of the graph, which is the higher one in ``radj``."""
    n = len(radj)
    # a vertex v of piece P has its neighbours in P and A(P), so the cost
    # bound is at least 2^(|P| + |A(P)|) >= 2^(deg(v) + 1), and the test
    # against 2^n below fails when delta + 1 + margin >= n
    if min(map(int.bit_count, radj)) + 1 + CLIQUE_KERNEL_MARGIN_BITS >= n:
        return None
    clique, common = 0, (1 << n) - 1
    for v in sorted(reversed(range(n)), key=lambda v: -radj[v].bit_count()):
        if common >> v & 1:
            clique |= 1 << v
            common &= radj[v]
    shared, pieces, cost = _clique_split(radj, clique)
    if cost << CLIQUE_KERNEL_MARGIN_BITS >= 1 << n:
        return None
    return clique, shared, pieces


# ``CutWalk`` builds the families of disconnected kept sets at the first
# connected kept set it counts, on at most FAMILY_MAX_ORDER vertices besides
# U, so a walk decided among disconnected sets builds none. A family has
# 2^n' bits; at n' = 12 a build takes under 0.1 ms.
FAMILY_MAX_ORDER = 12


@cache
def _vertex_sets(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sel, sets) on n vertices, a bit per vertex set: sel[v] marks the
    sets that hold v, sets[k] the k-sets. Made once an order, never changed."""
    every = (1 << (1 << n)) - 1
    # sel[v]: 2^v clear bits then 2^v set, repeated over the 2^n sets
    sel = tuple(every // ((1 << 2 * s) - 1) * ((1 << 2 * s) - (1 << s))
                for s in (1 << v for v in range(n)))
    sets = [1] + [0] * n
    for j in range(n):
        for k in range(j + 1, 0, -1):
            sets[k] |= sets[k - 1] << (1 << j)
    return sel, tuple(sets)


def _disconnected_families(radj: list[int], top: int) -> list[int]:
    """D with D[k], for k <= top, the integer whose bit K is set exactly
    when K is a k-set of the vertices of the graph ``radj`` that induces a
    disconnected subgraph; D[0] = D[1] = 0. See ``CutWalk`` for the proof.

    P_k, every k-set, is built one vertex at a time (P_k |= P_{k-1} << 2^j
    adds vertex j), once an order (``_vertex_sets``), and C_k, the
    connected k-sets, level by level from the singletons P_1: C_k is the
    union over v of the sets of C_{k-1} that miss v and meet N(v)
    (``grow[v]``), each with v added (<< 2^v). D_k = P_k - C_k.
    """
    n = len(radj)
    sel, sets = _vertex_sets(n)
    grow = []
    for v in range(n):
        hit = 0
        for u in iter_bits(radj[v]):
            hit |= sel[u]
        grow.append(hit & ~sel[v])
    families = [0, 0]
    connected = sets[1]
    for k in range(2, top + 1):
        grown = 0
        for v in range(n):
            grown |= (connected & grow[v]) << (1 << v)
        connected = grown
        families.append(sets[k] ^ connected)
    return families


class CutWalk:
    """The cut sets of one graph, walked on demand. ``at_least(t)`` answers
    tau(G) >= t, resuming where the last question stopped; ``result()``
    gives tau(G) and its witness, the first minimum-ratio cut in
    (|S|, lexicographic) order. Complete and disconnected graphs are
    settled at once, and so is a graph the clique kernel takes. ``alpha``
    and ``kappa``, if given, are callables that return alpha(G) and
    kappa(G); each is called at most once a walk, and never stored.

    Every cut holds the universal vertices U, as G - S is connected while
    a vertex of U is kept. Both engines search G - U, relabelled
    v -> n-1-v in increasing order, which keeps the order of the cuts that
    hold U, and ``result()`` alone maps the cut back and adds U. The walk
    steps through the masks of the vertices that cuts leave, size by size,
    so they come in the (|S|, lexicographic) order of the cuts. Each
    is counted, and the record kept: the least ratio over the cuts
    counted, and the first cut that attains it. A cut beats a ratio r only
    with floor(|S|/r) + 1 components, and c(G - S) is at most n - |S| and
    at most alpha(G) (Chvatal 1973). So once s/(n - s) >= r or
    floor(s/r) + 1 > alpha(G), s the size of the next mask, no cut still
    to come beats r: these stop tests for r grow with s.

    A question t is answered False once the record is below t, and True
    once it is not and the stop tests hold for t. Walked to the end
    (t = None), the walk stops once they hold for the record, or at size
    n - 1, and is done. The record is then that of the plain walk, which
    counts every mask of sizes 1 to n - 2 in the same order and takes each
    strict improvement:
    - the masks come in one order whatever is asked, and a question only
      moves where the walk pauses; the next resumes at the mask after it,
      so no mask is counted twice;
    - the sets it leaves out, those without U, the sizes below kappa(G)
      (below) and the connected kept sets, have c(G - S) = 1, so it meets
      a prefix of the plain walk's cuts, in order;
    - so on that prefix its record is the plain walk's, which changes only
      on a strict improvement, and none comes once the tests hold for it.
    No question walks past that end: for t <= tau the tests for t hold
    there, as they hold for the record, and for t > tau the record falls
    below t no later than it reaches tau.

    alpha is asked for only when floor(s/r) + 1 > 2, as alpha >= 2. The
    walk starts at size max(1, |U|) <= kappa, and asks for kappa only at
    the start of the next size, with no cut yet and delta(G) above it, to
    skip to size kappa: a cut at the first size makes it kappa, and
    kappa <= delta, so otherwise the search would be wasted, as on the
    many graphs without a 2-factor with a cut vertex or degree-2 vertex.

    Within a size, the masks of k = n - s kept vertices come by Gosper's
    hack, in increasing order. On at most FAMILY_MAX_ORDER vertices, at
    the first connected mask it counts that is not the last of its size,
    the walk builds the families D_k of the disconnected kept sets
    (``_disconnected_families``), up to the current k, and from the next
    mask on jumps: kept is the lowest set bit of D_k at or above the next
    mask, found as the lowest set bit of D_k >> next, and the walk resumes
    at kept + 1. The masks it jumps over are connected kept sets, left out
    above: with one component none reaches c_min >= 2. So the order, the
    pauses and the records are those of the Gosper walk, whatever mask
    the walk switches at.
    The families are exact. P_k, built one vertex at a time, holds every
    k-set: a k-set of the first j + 1 vertices either misses vertex j or is
    a (k-1)-set of the first j plus j, bit K + 2^j. C_k holds the connected
    k-sets: if G'[K] is connected and |K| >= 2, a spanning tree of it has a
    leaf v, and K - v is connected and meets N(v); conversely such a K - v
    and v make a connected K. So C_k is the union over v of the sets of
    C_{k-1} that miss v and meet N(v), shifted by 2^v, from C_1 the
    singletons, and D_k = P_k - C_k. The families are dropped once the
    walk is done.

    A question t is answered False at once, the walk left where it was,
    when a cheap cut of G, non-complete here, shows tau < t: N(v) for v of
    minimum degree leaves v and another vertex in different components, so
    tau <= delta/2; and the complement of a maximum independent set leaves
    alpha isolated vertices, alpha >= 2, so tau <= (n - alpha)/alpha. The
    alpha bound is used only when the caller passes ``alpha``, so a lone
    question does not start an alpha search for it.
    """

    __slots__ = ("g", "radj", "full", "universal", "size", "rest", "num",
                 "den", "cut", "alpha", "kappa", "delta", "families",
                 "done")

    def __init__(self, g: Graph):
        self.g = g
        self.universal = self.size = self.alpha = self.kappa = 0
        # the record num/den (1/0: no cut yet) and its cut, in walk labels
        self.num, self.den, self.cut, self.done = 1, 0, 0, True
        self.families = None
        if g.is_complete():
            return
        if not g.is_connected():
            self.num, self.den = 0, 1
            return
        radj, self.universal = _drop_universal(g)
        u = g.n - len(radj)
        split = _kernel_split(radj)
        if split is not None:
            from .separator import clique_toughness
            self.num, self.den, self.cut = clique_toughness(radj, u, *split)
            return
        self.radj, self.done = radj, False
        self.delta = min(map(int.bit_count, radj)) + u
        self.full = (1 << len(radj)) - 1
        self.size = max(1, u)
        self.rest = (1 << g.n - self.size) - 1

    def at_least(self, t, alpha=None, kappa=None) -> bool:
        """tau(G) >= t, for a positive ``Fraction``; t = None walks to the
        end and answers True."""
        p, q = (0, 1) if t is None else (t.numerator, t.denominator)
        num, den, cut = self.num, self.den, self.cut
        if self.done or num * q < p * den:
            return num * q >= p * den
        g, radj, full = self.g, self.radj, self.full
        n, size, rest = g.n, self.size, self.rest
        if p:  # the cheap cuts
            if self.delta * q < 2 * p:
                return False
            if alpha is not None:
                if not self.alpha:
                    self.alpha = alpha()
                if (n - self.alpha) * q < self.alpha * p:
                    return False
        families, small = self.families, len(radj) <= FAMILY_MAX_ORDER
        while num * q >= p * den:
            left = n - size
            a, b = (p, q) if p else (num, den)  # the stop tests' ratio
            c_stop = size * b // a + 1
            if c_stop > 2 and not self.alpha and size * b < a * left:
                self.alpha = (alpha() if alpha is not None
                              else independence_number(g)[0])
            if size == n - 1 or size * b >= a * left or (
                    c_stop > max(2, self.alpha)):
                self.done = not p
                break
            # n - len(radj) = |U|: the start of the second size, no cut yet
            if (not den and not self.kappa and size > max(1, n - len(radj))
                    and self.delta > size):
                self.kappa = kappa() if kappa is not None else connectivity(g)
                if self.kappa > size:
                    size = self.kappa
                    rest = (1 << n - size) - 1
                    continue
            c_min = max(2, size * den // num + 1)
            count = 0
            if families is None:
                while rest <= full:
                    kept = rest
                    low = rest & -rest
                    ripple = rest + low
                    rest = (((ripple ^ rest) >> 2) // low) | ripple
                    count = len(component_masks(radj, kept))
                    if count >= c_min:
                        break
                    if count == 1 and small and rest <= full:  # jump on
                        families = _disconnected_families(radj, left)
                        break
            if families is not None:
                del families[left + 1:]  # the sizes walked
                disconnected = families[left]
                while count < c_min:
                    ahead = disconnected >> rest
                    if not ahead:
                        break
                    kept = rest + (ahead & -ahead).bit_length() - 1
                    rest = kept + 1
                    count = len(component_masks(radj, kept))
            if count >= c_min:
                num, den, cut = size, count, full & ~kept
            else:
                size += 1
                rest = (1 << n - size) - 1
        self.size, self.rest, self.num, self.den, self.cut = (
            size, rest, num, den, cut)
        self.families = None if self.done else families
        return num * q >= p * den

    def result(self) -> ToughnessResult:
        """tau(G) and its witness, with U added, once the walk is done."""
        if not self.den:
            return ToughnessResult(INF, None)
        cut = self.cut
        for u in sorted(iter_bits(self.universal)):  # back to G's labels
            low = (1 << u) - 1
            cut = cut & low | (cut & ~low) << 1
        n = self.g.n
        return ToughnessResult(Fraction(self.num, self.den), frozenset(
            n - 1 - v for v in iter_bits(cut | self.universal)))


def toughness(g: Graph, *, alpha=None, kappa=None,
              walk: CutWalk | None = None) -> ToughnessResult:
    """min |S| / c(G - S) over all cut sets, as a reduced rational, and the
    first cut of that ratio in (|S|, lexicographic) order, from the
    ``CutWalk`` of g, if given, walked on to its end, or a fresh one."""
    if walk is None:
        walk = CutWalk(g)
    walk.at_least(None, alpha, kappa)
    return walk.result()


def is_t_tough(g: Graph, t, *, alpha=None, kappa=None,
               walk: CutWalk | None = None) -> bool:
    """tau(G) >= t, for a positive rational t (a number or a string that
    ``Fraction`` reads) or ``INF``, from the ``CutWalk`` of g, if given,
    or a fresh one, walked on only until t is decided. Any other t raises
    ``GraphError``."""
    if not isinstance(t, Fraction):  # a hunt asks with Fractions: no copy
        if t == INF:
            return g.is_complete()
        try:
            t = Fraction(t)
        except (TypeError, ValueError, OverflowError,
                ZeroDivisionError) as exc:
            raise GraphError(f"toughness threshold must be a finite "
                             f"rational or INF, not {t!r}") from exc
    if t.numerator <= 0:
        raise GraphError("toughness threshold must be positive")
    if walk is None:
        walk = CutWalk(g)
    return walk.at_least(t, alpha, kappa)
