"""Tutte pairs: deficiency, odd-component bookkeeping, exhaustive barrier and
biased-barrier search, biased-barrier structure checks, and the cut-set
witness construction that turns a biased barrier into a toughness upper bound.

Notation, for disjoint A, B subseteq V(G):

    deficiency(A,B) = 2|A| - 2|B| + sum_{v in B} d_{G-A}(v) - o(A,B)

where o(A,B) counts the components H of G-(A u B) with e(H,B) odd. A pair
with deficiency <= -2 is a barrier; the graph has no 2-factor iff a barrier
exists. A biased barrier maximizes |A| and, subject to that, minimizes |B|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import (CertificateError, Graph, GraphError, component_masks,
                     iter_bits, vertex_mask)
from .invariants import is_t_tough

EXHAUSTIVE_BARRIER_CAP = 14  # the (A,B) search space is 3^n


@dataclass(frozen=True)
class Barrier:
    a: frozenset
    b: frozenset
    deficiency: int


@dataclass
class ComponentInfo:
    vertices: tuple
    edges_to_b: int

    @property
    def odd(self) -> bool:
        return self.edges_to_b % 2 == 1


@dataclass
class PerVertex:
    """Per-u annotations for u in B."""
    edges_per_component: tuple  # e(u, H) for each component, in order
    o: int  # odd components H with e(H,B) >= 3 and e(u,H) = 1
    h: int  # odd components H (any e(H,B) >= 1) with e(u,H) = 1


@dataclass
class BarrierDecomposition:
    components: list
    odd_count: int         # o(A,B)
    per_u: dict            # u in B -> PerVertex
    big_odd_weight: int    # sum_{t>=1} t |C_{2t+1}|


def _deficiency_masks(g: Graph, a_mask: int, b_mask: int) -> int:
    adj = g.adj
    rest = g.full_mask & ~a_mask & ~b_mask
    degree_sum = 0
    for v in iter_bits(b_mask):
        degree_sum += (adj[v] & ~a_mask).bit_count()
    odd = 0
    for comp in component_masks(adj, rest):
        e_hb = 0
        for v in iter_bits(comp):
            e_hb += (adj[v] & b_mask).bit_count()
        odd += e_hb & 1
    return (2 * a_mask.bit_count() - 2 * b_mask.bit_count()
            + degree_sum - odd)


def deficiency(g: Graph, a, b) -> int:
    a_mask = vertex_mask(g, a)
    b_mask = vertex_mask(g, b)
    if a_mask & b_mask:
        raise GraphError("A and B must be disjoint")
    return _deficiency_masks(g, a_mask, b_mask)


def decompose(g: Graph, a, b) -> BarrierDecomposition:
    a_mask = vertex_mask(g, a)
    b_mask = vertex_mask(g, b)
    if a_mask & b_mask:
        raise GraphError("A and B must be disjoint")
    adj = g.adj
    rest = g.full_mask & ~a_mask & ~b_mask
    comps = []
    for comp in component_masks(adj, rest):
        e_hb = sum((adj[v] & b_mask).bit_count() for v in iter_bits(comp))
        comps.append(ComponentInfo(tuple(iter_bits(comp)), e_hb))
    odd_count = sum(1 for info in comps if info.odd)
    big_odd_weight = sum((info.edges_to_b - 1) // 2
                         for info in comps if info.odd)
    per_u = {}
    for u in iter_bits(b_mask):
        per_comp = []
        o = h = 0
        for info in comps:
            e_uh = sum(1 for v in info.vertices if adj[u] >> v & 1)
            per_comp.append(e_uh)
            if info.odd and e_uh == 1:
                h += 1
                if info.edges_to_b >= 3:
                    o += 1
        per_u[u] = PerVertex(tuple(per_comp), o, h)
    return BarrierDecomposition(comps, odd_count, per_u, big_odd_weight)


# Exhaustive search ----------------------------------------------------------------

def _barriers_by_union(g: Graph):
    """Yield (a_mask, b_mask, deficiency) for every barrier of ``g``, each
    once, grouped by the union U = A u B in increasing mask order.

    All 3^n pairs of disjoint vertex subsets are covered and nothing is
    pruned. For each U the components H_i of G - U are found once, and each
    v in U gets w(v) = |N(v) - U| and a parity mask p(v) whose bit i is set
    when e(v, H_i) is odd. Since
    d_{G-A}(v) = |N(v) n B| + w(v) for v in B, and e(H_i, B) is odd exactly
    when bit i of the XOR of p over B is set,

        deficiency(A,B) = 2|U| - 4|B| + 2e(B) + sum_{v in B} w(v)
                          - popcount(XOR_{v in B} p(v)).

    B then walks the subsets of U in Gray-code order, one vertex entering
    or leaving at each step, and the sum and the XOR are updated in O(1).
    """
    if g.n > EXHAUSTIVE_BARRIER_CAP:
        raise GraphError(
            f"exhaustive barrier search capped at order {EXHAUSTIVE_BARRIER_CAP}")
    adj = g.adj
    full = g.full_mask
    for u_mask in range(1, full + 1):  # B = U = empty is no barrier
        rest = full & ~u_mask
        comps = component_masks(adj, rest)
        verts = []
        # per v in U: (bit of v, N(v) as a mask, w(v) - 4, p(v))
        for v in iter_bits(u_mask):
            nbrs = adj[v]
            parity = 0
            for i, comp in enumerate(comps):
                parity |= ((nbrs & comp).bit_count() & 1) << i
            verts.append((1 << v, nbrs,
                          (nbrs & rest).bit_count() - 4, parity))
        # B = empty: deficiency 2|U|
        base = 2 * len(verts)
        b_mask = odd = 0
        for step in range(1, 1 << len(verts)):
            bit, nbrs, delta, parity = verts[(step & -step).bit_length() - 1]
            odd ^= parity
            # v is not its own neighbour, so |N(v) n B| is the same on
            # either side of the toggle
            change = delta + 2 * (nbrs & b_mask).bit_count()
            b_mask ^= bit
            base += change if b_mask & bit else -change
            d = base - odd.bit_count()
            if d <= -2:
                yield u_mask ^ b_mask, b_mask, d


def _as_barrier(a_mask: int, b_mask: int, d: int) -> Barrier:
    return Barrier(frozenset(iter_bits(a_mask)),
                   frozenset(iter_bits(b_mask)), d)


def find_barrier(g: Graph) -> Barrier | None:
    """The first barrier ``_barriers_by_union`` yields, or None (iff G has
    a 2-factor)."""
    hit = next(_barriers_by_union(g), None)
    return None if hit is None else _as_barrier(*hit)


def find_biased_barrier(g: Graph) -> Barrier | None:
    """The barrier maximizing |A|, then minimizing |B|, ties broken by the
    smallest lexicographic (sorted A, sorted B) index encoding.

    Every barrier of the 3^n pairs is generated by ``_barriers_by_union``
    (deficiency = 2|U| - 4|B| + 2e(B) + sum_{v in B} w(v) - popcount of the
    XOR of the parity masks over B) and the minimum is taken by the key
    above. Nothing is pruned: in particular the independence of B, a
    theorem about biased barriers, is not used, so structure checks against
    the result stay non-circular.
    """
    def key(hit):
        a, b = tuple(iter_bits(hit[0])), tuple(iter_bits(hit[1]))
        return -len(a), len(b), a, b

    best = min(_barriers_by_union(g), key=key, default=None)
    return None if best is None else _as_barrier(*best)


# Biased barrier structure ----------------------------------------------------------

@dataclass
class BiasedBarrierReport:
    b_independent: bool
    even_components_isolated: bool        # even H have e(H,B) = 0
    b_edges_into_odd_simple: bool         # e(v,H) <= 1 for v in B, H odd
    odd_vertices_edges_to_b_simple: bool  # e(v,B) <= 1 for v in odd H
    counting_inequality: bool             # |B| >= |A| + sum t|C_{2t+1}| + 1
    big_odd_class_nonempty: bool          # union_{t>=1} C_{2t+1} != empty
    one_tough_applicable: bool            # tau >= 1 and order >= 3

    @property
    def all_hold(self) -> bool:
        core = (self.b_independent and self.even_components_isolated
                and self.b_edges_into_odd_simple
                and self.odd_vertices_edges_to_b_simple
                and self.counting_inequality)
        if self.one_tough_applicable:
            return core and self.big_odd_class_nonempty
        return core


def check_biased_properties(g: Graph, barrier: Barrier) -> BiasedBarrierReport:
    if deficiency(g, barrier.a, barrier.b) > -2:
        raise GraphError("pair is not a barrier")
    dec = decompose(g, barrier.a, barrier.b)
    adj = g.adj
    b_mask = vertex_mask(g, barrier.b)
    b_independent = all((adj[u] & b_mask) == 0 for u in barrier.b)
    even_isolated = all(info.odd or info.edges_to_b == 0
                        for info in dec.components)
    edges_simple = all(
        e <= 1
        for u, pv in dec.per_u.items()
        for e, info in zip(pv.edges_per_component, dec.components)
        if info.odd)
    odd_vertices_simple = all(
        (adj[v] & b_mask).bit_count() <= 1
        for info in dec.components if info.odd
        for v in info.vertices)
    counting = len(barrier.b) >= len(barrier.a) + dec.big_odd_weight + 1
    big_odd_nonempty = dec.big_odd_weight > 0
    applicable = g.n >= 3 and is_t_tough(g, 1)
    return BiasedBarrierReport(
        b_independent, even_isolated, edges_simple, odd_vertices_simple,
        counting, big_odd_nonempty, applicable)


# Cut-set witness construction --------------------------------------------------------

@dataclass(frozen=True)
class ToughnessWitness:
    w: frozenset
    ell: int
    ell_prime: int
    h_sum: int
    component_count: int
    ratio: Fraction


def extract_witness(g: Graph, barrier: Barrier) -> ToughnessWitness:
    """Build the cut set W certifying a toughness upper bound.

    Two cases, by max_u h(u) over the biased barrier's B:
      - max h <= 1: W = A plus, from each odd component H with e(H,B) = 2t+1
        >= 3, the 2t lowest-index vertices of H with a neighbor in B;
        guarantees c(G-W) >= |B|.
      - max h >= 2: the iterative construction; at each step pick the
        lowest-index u in B maximizing h on the shrunken graph, collect
        W_j = {v in H_j : e(v,B) = 1, uv not an edge} from the components
        adjacent to u, delete those components, and add u itself to W while
        the maximum is >= 2. Guarantees
            |W| = |A| + ell' + sum_{t>=1} 2t |C_{2t+1}|
            c(G-W) >= |B| - ell' + sum_{i<=ell'} h_{G_i}(u_i).
    Both counting identities are recomputed and checked before returning;
    a failed check raises CertificateError.
    """
    if deficiency(g, barrier.a, barrier.b) > -2:
        raise GraphError("pair is not a barrier")
    dec = decompose(g, barrier.a, barrier.b)
    adj = g.adj
    a_mask = vertex_mask(g, barrier.a)
    b_mask = vertex_mask(g, barrier.b)
    big_odd = [i for i, info in enumerate(dec.components)
               if info.odd and info.edges_to_b >= 3]
    h_max = max((pv.h for pv in dec.per_u.values()), default=0)
    if h_max <= 1 and not big_odd:
        raise GraphError(
            "witness construction needs max h >= 2 or an odd component "
            "with at least 3 edges into B")

    w_mask = a_mask
    ell = ell_prime = h_sum = 0

    if h_max <= 1:
        for i in big_odd:
            info = dec.components[i]
            with_b_neighbor = [v for v in info.vertices
                               if adj[v] & b_mask]
            # e(v,B) <= 1 on odd components, so there are e(H,B) of these
            if len(with_b_neighbor) != info.edges_to_b:
                raise CertificateError("an odd component has e(v,B) > 1")
            for v in with_b_neighbor[:info.edges_to_b - 1]:
                w_mask |= 1 << v
    else:
        alive = [True] * len(dec.components)
        comp_masks = [vertex_mask(g, info.vertices) for info in dec.components]
        steps = 0
        seen_singleton_step = False
        while True:
            best_u = -1
            best_h = 0
            for u in sorted(barrier.b):
                h = sum(1 for i, info in enumerate(dec.components)
                        if alive[i] and info.odd
                        and (adj[u] & comp_masks[i]).bit_count() == 1)
                if h > best_h:
                    best_h, best_u = h, u
            if best_h == 0:
                break
            steps += 1
            if steps > len(barrier.b):
                raise CertificateError("more steps than vertices in B")
            ell += 1
            if best_h >= 2:
                if seen_singleton_step:
                    raise CertificateError(
                        "a step with maximum >= 2 follows a singleton step")
                ell_prime += 1
                h_sum += best_h
                w_mask |= 1 << best_u
            else:
                seen_singleton_step = True
            for i, info in enumerate(dec.components):
                if not alive[i]:
                    continue
                e_uh = (adj[best_u] & comp_masks[i]).bit_count()
                if e_uh == 0:
                    continue
                if not (info.odd and e_uh == 1):
                    raise CertificateError(
                        f"u = {best_u} meets an even component or sends it "
                        "more than one edge")
                for v in info.vertices:
                    if (adj[v] & b_mask).bit_count() == 1 \
                            and not (adj[best_u] >> v & 1):
                        w_mask |= 1 << v
                alive[i] = False

    # counting identities from the construction
    if w_mask.bit_count() != (a_mask.bit_count() + ell_prime
                              + 2 * dec.big_odd_weight):
        raise CertificateError("|W| differs from |A| + ell' + sum 2t|C_2t+1|")
    comp_count = len(component_masks(adj, g.full_mask & ~w_mask))
    if comp_count < len(barrier.b) - ell_prime + h_sum:
        raise CertificateError("c(G-W) < |B| - ell' + sum h(u_i)")
    if h_max <= 1 and comp_count < len(barrier.b):
        raise CertificateError("c(G-W) < |B| with max h <= 1")
    if comp_count < 2 or w_mask == 0:
        raise CertificateError("W is not a cut set")
    ratio = Fraction(w_mask.bit_count(), comp_count)
    return ToughnessWitness(frozenset(iter_bits(w_mask)), ell, ell_prime,
                            h_sum, comp_count, ratio)
