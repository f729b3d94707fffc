"""Exact graph invariants: minimum degree, independence number, vertex
connectivity and toughness.

Toughness and the independence number are NP-hard in general; the searches
here are exact and exhaustive with pruning. Toughness is practical up to
roughly order 24. The independence search also prunes on a greedy clique
cover, which bounds alpha from above, and returns the same alpha and
witness as without it; it takes well under a second on random graphs of
order 80 and on the paper's constructions. Connectivity uses unit-capacity
vertex-split maximum flow (Menger), run only on the pairs that
Esfahanian-Hakimi selection keeps (Networks 14, 1984): a vertex v of
minimum degree against each non-neighbour, and each non-adjacent pair of
neighbours of v. So it scales further.
"""

from __future__ import annotations

from fractions import Fraction
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


def connectivity(g: Graph) -> int:
    """kappa(G); convention kappa(K_n) = n - 1, kappa(disconnected) = 0.

    Flows run only on the Esfahanian-Hakimi pairs. Take v of minimum degree.
    A minimum separator S that misses v separates v from a non-neighbour; one
    that contains v separates two non-adjacent neighbours of v, because v
    has neighbours in two components of G - S (else S - v would separate).
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
    pairs = [(v, w) for w in iter_bits(g.full_mask & ~adj[v] & ~(1 << v))]
    pairs += [(x, y) for x in iter_bits(adj[v])
              for y in iter_bits(adj[v] & ~adj[x] & ~((2 << x) - 1))]
    network = _split_network(g)
    for s, t in pairs:
        best = min(best, _local_connectivity(network, s, t, best))
    return best


# Toughness -----------------------------------------------------------------------

class ToughnessResult(NamedTuple):
    """Exact toughness with a witnessing cut set.

    ``witness`` is None for complete graphs (value ``INF``) and the empty
    set for disconnected graphs (value 0 by convention).
    """
    value: Fraction | float
    witness: frozenset | None


def _cut_records(g: Graph, num: int, den: int):
    """Yield (|S|, c(G - S), S) for each cut set S of a connected graph, in
    (|S|, lexicographic) order, whose ratio |S|/c(G - S) is below num/den
    and below the ratio of every cut yielded before it. den = 0 means no
    bound.

    Cuts are walked through the vertices they leave. Gosper's hack steps
    through those masks in increasing order on the graph relabelled by
    v -> n-1-v, which is the lexicographic order of S in the original
    labels. A cut beats num/den only with c_min = floor(|S| den/num) + 1
    components.

    The walk ends once c_min exceeds alpha(G). One vertex from each
    component of G - S is an independent set, so c(G - S) <= alpha(G)
    (Chvatal 1973), and c_min never falls: it grows with |S|, and a yield
    only lowers num/den. So every cut the stop skips has too few
    components to be yielded, and the records, the last of which is the
    toughness witness, are the ones the full walk gives. alpha is computed
    the first time c_min exceeds 2, since alpha >= 2 for a connected
    non-complete graph.
    """
    n, full = g.n, g.full_mask
    radj = [0] * n
    for u, v in g.edges:
        radj[n - 1 - u] |= 1 << (n - 1 - v)
        radj[n - 1 - v] |= 1 << (n - 1 - u)
    alpha = 0  # alpha(G), once computed

    def beyond_alpha(c_min: int) -> bool:
        nonlocal alpha
        if c_min <= 2:
            return False
        if not alpha:
            alpha = independence_number(g)[0]
        return c_min > alpha

    for size in range(1, n - 1):
        left = n - size
        if size * den >= num * left:
            return  # every cut of this size has ratio >= size/left
        c_min = max(2, size * den // num + 1)
        if beyond_alpha(c_min):
            return
        rest = (1 << left) - 1
        while rest <= full:
            count = len(component_masks(radj, rest))
            if count >= c_min:
                yield size, count, frozenset(
                    n - 1 - b for b in iter_bits(full & ~rest))
                num, den = size, count
                c_min = count + 1
                if beyond_alpha(c_min):
                    return
            low = rest & -rest
            ripple = rest + low
            rest = (((ripple ^ rest) >> 2) // low) | ripple


def toughness(g: Graph) -> ToughnessResult:
    """min |S| / c(G - S) over all cut sets, as a reduced rational. The
    witness is the first minimum-ratio cut in (|S|, lexicographic) order."""
    if g.is_complete():
        return ToughnessResult(INF, None)
    if not g.is_connected():
        return ToughnessResult(Fraction(0), frozenset())
    record = None
    for record in _cut_records(g, 1, 0):
        pass
    if record is None:
        raise RuntimeError("a connected non-complete graph has a cut set")
    size, comps, cut = record
    return ToughnessResult(Fraction(size, comps), cut)


def is_t_tough(g: Graph, t) -> bool:
    """tau(G) >= t, terminating as soon as any cut certifies tau < t."""
    if t == INF:
        return g.is_complete()
    t = Fraction(t)
    if t <= 0:
        raise GraphError("toughness threshold must be positive")
    if g.is_complete():
        return True
    if not g.is_connected():
        return False
    return next(_cut_records(g, t.numerator, t.denominator), None) is None
