"""Tutte pairs: deficiency, odd-component bookkeeping, barrier and
biased-barrier search, biased-barrier structure checks, and the cut-set
witness construction that turns a biased barrier into a toughness upper bound.

Notation, for disjoint A, B subseteq V(G):

    deficiency(A,B) = 2|A| - 2|B| + sum_{v in B} d_{G-A}(v) - o(A,B)

where o(A,B) counts the components H of G-(A u B) with e(H,B) odd. A pair
with deficiency <= -2 is a barrier; the graph has no 2-factor iff a barrier
exists. A biased barrier maximizes |A| and, subject to that, minimizes |B|.

``matching`` holds ``Barrier`` and the deficiency evaluator, and reads a
barrier off a failed matching. ``find_barrier`` walks all 3^n pairs.
``find_biased_barrier`` is a branch and bound over A on three lemmas,
proved in its docstring: no barrier (A', B) has A' >= A when the
2-matching deficiency def_2 of G - A is below 2|A| + 2; every barrier
has |B| >= |A| + 1; and def_2(H) lies between the degree deficits of H
(rounded up to even) and the room a greedy subgraph of degrees <= 2
leaves, so a gadget matching runs only when the two bounds straddle
2|A| + 2.

``decompose`` is the one pass over G - (A u B) that the structure report
and the witness read. Both take a ``Barrier`` record whose deficiency is
the pair's and at most -2, or raise GraphError. ``extract_witness`` also
needs the four structure predicates of a biased barrier (B independent;
e(H,B) = 0 for even H; e(v,H) <= 1 for v in B and odd H; e(v,B) <= 1 for
v in odd H), and raises GraphError for a pair that fails one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .graphs import (CertificateError, Graph, GraphError, component_masks,
                     iter_bits, vertex_mask)
from .invariants import is_t_tough
from .matching import (Barrier, _as_barrier, _deficiency_from,
                       _deficiency_masks, _greedy_f, _split_deficiency)

EXHAUSTIVE_BARRIER_CAP = 14  # the (A,B) search space is 3^n


class ComponentInfo(NamedTuple):
    vertices: tuple
    edges_to_b: int
    mask: int

    @property
    def odd(self) -> bool:
        return self.edges_to_b % 2 == 1


class PerVertex(NamedTuple):
    """Per-u annotations for u in B."""
    edges_per_component: tuple  # e(u, H) for each component, in order
    o: int  # odd components H with e(H,B) >= 3 and e(u,H) = 1
    h: int  # odd components H (any e(H,B) >= 1) with e(u,H) = 1


class BarrierDecomposition(NamedTuple):
    components: list
    odd_count: int         # o(A,B)
    per_u: dict            # u in B -> PerVertex
    big_odd_weight: int    # sum_{t>=1} t |C_{2t+1}|
    a_mask: int
    b_mask: int


def _pair_masks(g: Graph, a, b) -> tuple[int, int]:
    a_mask = vertex_mask(g, a)
    b_mask = vertex_mask(g, b)
    if a_mask & b_mask:
        raise GraphError("A and B must be disjoint")
    return a_mask, b_mask


def deficiency(g: Graph, a, b) -> int:
    return _deficiency_masks(g, *_pair_masks(g, a, b))


def decompose(g: Graph, a, b) -> BarrierDecomposition:
    a_mask, b_mask = _pair_masks(g, a, b)
    adj = g.adj
    comps = []
    for comp in component_masks(adj, g.full_mask & ~a_mask & ~b_mask):
        e_hb = sum((adj[v] & b_mask).bit_count() for v in iter_bits(comp))
        comps.append(ComponentInfo(tuple(iter_bits(comp)), e_hb, comp))
    odd = [info for info in comps if info.odd]
    per_u = {}
    for u in iter_bits(b_mask):
        per_comp = tuple((adj[u] & info.mask).bit_count() for info in comps)
        single = [info for info, e_uh in zip(comps, per_comp)
                  if info.odd and e_uh == 1]
        per_u[u] = PerVertex(per_comp,
                             sum(info.edges_to_b >= 3 for info in single),
                             len(single))
    big_odd_weight = sum((info.edges_to_b - 1) // 2 for info in odd)
    return BarrierDecomposition(comps, len(odd), per_u, big_odd_weight,
                                a_mask, b_mask)


# Exhaustive search ----------------------------------------------------------------

def _check_order_cap(g: Graph) -> None:
    if g.n > EXHAUSTIVE_BARRIER_CAP:
        raise GraphError(
            f"exhaustive barrier search capped at order {EXHAUSTIVE_BARRIER_CAP}")


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
    _check_order_cap(g)
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


def find_barrier(g: Graph) -> Barrier | None:
    """The first barrier ``_barriers_by_union`` yields, or None (iff G has
    a 2-factor)."""
    hit = next(_barriers_by_union(g), None)
    return None if hit is None else _as_barrier(*hit)


def _def2_floor(g: Graph, mask: int) -> int:
    """Lemma 3's lower bound on def_2 of the subgraph of ``g`` on ``mask``."""
    adj = g.adj
    low = sum(max(0, 2 - (adj[v] & mask).bit_count()) for v in iter_bits(mask))
    return low + (low & 1)


def _def2_reaches(g: Graph, mask: int, need: int) -> bool:
    """Whether def_2 of the subgraph of ``g`` on ``mask`` is at least
    ``need``: lemma 3's two bounds settle most calls, and the gadget
    matching, seeded from the greedy F of the upper bound, runs only when
    they fall on either side of ``need``."""
    if _def2_floor(g, mask) >= need:
        return True
    f = _greedy_f(g, mask)
    if 2 * mask.bit_count() - 2 * len(f) < need:  # lemma 3's upper bound
        return False
    return _split_deficiency(g, mask, f) >= need


def find_biased_barrier(g: Graph) -> Barrier | None:
    """The barrier maximizing |A|, then minimizing |B|, ties broken by the
    smallest lexicographic (sorted A, sorted B) index encoding.

    A branch and bound over A, on three lemmas. Write def_2(H) =
    2|V(H)| - 2 nu_2(H), nu_2(H) the most edges of a subgraph of H with
    every degree at most 2 (``matching.two_matching_deficiency``).

    1. If def_2(G - A) < 2|A| + 2, no barrier (A', B) has A' >= A.
       Proof: deficiency_G(A', B) = deficiency_{G-A}(A' - A, B) + 2|A|,
       and no pair (S, T) of a graph H has deficiency below -def_2(H),
       the weak half of Tutte's f-factor theorem (Tutte 1952, Lovasz
       1970): for F in H with degrees <= 2, S meets at most 2|S| edges
       of F, and by parity each odd component has a vertex of F-degree
       below 2, an F-edge into S or an edge to T outside F.
    2. deficiency(A, B) >= 2|A| - 2|B|, so a barrier has |B| >= |A| + 1.
       Proof: an odd component sends an edge to B, which the degree sum
       over B counts, so o(A, B) <= sum_{v in B} d_{G-A}(v).
    3. sum_v max(0, 2 - d_H(v)), rounded up to even, <= def_2(H)
       <= 2|V(H)| - 2|F| for any F in H with degrees <= 2.
       Proof: def_2(H) = sum_v (2 - d_F(v)) for a largest such F, and
       d_F(v) <= d_H(v); def_2 is even; any such F has |F| <= nu_2(H).

    The search keeps, size by size, the A that lemma 1 does not drop: a
    candidate is a kept A plus a vertex above its largest, and it is kept
    when every A' - {u} was kept (else lemma 1 has dropped a subset of it)
    and def_2(G - A') >= 2|A'| + 2. Lemma 3's bounds, with a greedy F,
    settle most of these tests; one gadget matching settles the rest.
    The kept A are then taken from the largest size down, in
    lexicographic order within a size; for each, B
    runs through the subsets of V - A by increasing size from |A| + 1
    (lemma 2), below the best |B| so far, and in lexicographic order
    within a size, so the first hit at a size is the smallest B. The
    independence of B, a theorem about biased barriers, is not used, so
    structure checks against the result stay non-circular. An empty A
    dropped means G has a 2-factor (None); an empty A kept with no barrier
    found contradicts Tutte's theorem and raises CertificateError.
    """
    _check_order_cap(g)
    n, full = g.n, g.full_mask

    def kept(a_mask: int, size: int) -> bool:
        return _def2_reaches(g, full & ~a_mask, 2 * size + 2)

    def next_level(level: list, size: int):
        seen = set(level)
        for a_mask in level:
            for v in range(a_mask.bit_length(), n):
                child = a_mask | 1 << v
                if all(child ^ 1 << u in seen for u in iter_bits(a_mask)) \
                        and kept(child, size):
                    yield child

    if not kept(0, 0):
        return None
    levels = [[0]]  # the kept A masks of each size, in lexicographic order
    while levels[-1]:
        levels.append(list(next_level(levels[-1], len(levels))))
    best = None
    for size in range(len(levels) - 1, -1, -1):
        for a_mask in levels[size]:
            rest = [1 << v for v in iter_bits(full & ~a_mask)]
            stop = len(rest) + 1 if best is None else best[1].bit_count()
            for b_size in range(size + 1, stop):
                b_mask = next((b for b in map(sum, combinations(rest, b_size))
                               if _deficiency_masks(g, a_mask, b) <= -2),
                              None)
                if b_mask is not None:
                    best = a_mask, b_mask
                    break
        if best is not None:
            return _as_barrier(*best, _deficiency_masks(g, *best))
    raise CertificateError(
        "G has no 2-factor but no barrier was found, against Tutte's theorem")


# Biased barrier structure ----------------------------------------------------------

class BiasedBarrierReport(NamedTuple):
    b_independent: bool
    even_components_isolated: bool        # even H have e(H,B) = 0
    b_edges_into_odd_simple: bool         # e(v,H) <= 1 for v in B, H odd
    odd_vertices_edges_to_b_simple: bool  # e(v,B) <= 1 for v in odd H
    counting_inequality: bool             # |B| >= |A| + sum t|C_{2t+1}| + 1
    big_odd_class_nonempty: bool          # union_{t>=1} C_{2t+1} != empty
    one_tough_applicable: bool            # tau >= 1 and order >= 3

    @property
    def all_hold(self) -> bool:
        return (self.b_independent and self.even_components_isolated
                and self.b_edges_into_odd_simple
                and self.odd_vertices_edges_to_b_simple
                and self.counting_inequality
                and (self.big_odd_class_nonempty
                     or not self.one_tough_applicable))


def _barrier_decomposition(g: Graph, barrier: Barrier) -> BarrierDecomposition:
    """The decomposition of ``barrier``'s pair, which must be a barrier
    whose deficiency the record states."""
    dec = decompose(g, barrier.a, barrier.b)
    d = _deficiency_from(g, dec.a_mask, dec.b_mask, dec.odd_count)
    if d > -2:
        raise GraphError("pair is not a barrier")
    if d != barrier.deficiency:
        raise GraphError(f"record's deficiency {barrier.deficiency} != {d}")
    return dec


def _structure(g: Graph, dec: BarrierDecomposition) -> tuple:
    """The first four fields of the report: the structure predicates of a
    biased barrier."""
    adj, b_mask = g.adj, dec.b_mask
    return (all(not adj[u] & b_mask for u in dec.per_u),
            all(info.odd or info.edges_to_b == 0 for info in dec.components),
            all(e_uh <= 1 for pv in dec.per_u.values()
                for e_uh, info in zip(pv.edges_per_component, dec.components)
                if info.odd),
            all((adj[v] & b_mask).bit_count() <= 1
                for info in dec.components if info.odd
                for v in info.vertices))


def check_biased_properties(g: Graph, barrier: Barrier) -> BiasedBarrierReport:
    return _biased_report(g, barrier, _barrier_decomposition(g, barrier))


def _biased_report(g: Graph, barrier: Barrier,
                   dec: BarrierDecomposition) -> BiasedBarrierReport:
    """The report on ``barrier`` from ``dec``, its pair's decomposition,
    for a caller that has decomposed the pair already. The record is not
    checked, so it must come from a finder or a checked decomposition."""
    return BiasedBarrierReport(
        *_structure(g, dec),
        len(barrier.b) >= len(barrier.a) + dec.big_odd_weight + 1,
        dec.big_odd_weight > 0,
        g.n >= 3 and is_t_tough(g, 1))


# Cut-set witness construction --------------------------------------------------------

class ToughnessWitness(NamedTuple):
    w: frozenset
    ell: int
    ell_prime: int
    h_sum: int
    component_count: int
    ratio: Fraction


def extract_witness(g: Graph, barrier: Barrier) -> ToughnessWitness:
    """Build the cut set W certifying a toughness upper bound.

    ``barrier`` must be a barrier with the structure of a biased one: B
    independent, e(H,B) = 0 for even H, e(v,H) <= 1 for v in B and odd H,
    and e(v,B) <= 1 for v in odd H. A pair that fails one of these raises
    GraphError, before W is built. So does a pair with max h <= 1 and no
    odd component H with e(H,B) >= 3, where the construction has nothing
    to cut. Two cases, by max_u h(u) over B:
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
    dec = _barrier_decomposition(g, barrier)
    if not all(_structure(g, dec)):
        raise GraphError("witness construction needs the structure of a "
                         "biased barrier, which the pair lacks")
    adj, b_mask = g.adj, dec.b_mask
    odd = [info for info in dec.components if info.odd]
    big_odd = [info for info in odd if info.edges_to_b >= 3]
    h_max = max((pv.h for pv in dec.per_u.values()), default=0)
    if h_max <= 1 and not big_odd:
        raise GraphError(
            "witness construction needs max h >= 2 or an odd component "
            "with at least 3 edges into B")

    w_mask = dec.a_mask
    ell = ell_prime = h_sum = 0
    if h_max <= 1:
        for info in big_odd:
            # e(v,B) <= 1 on odd components, so e(H,B) vertices meet B
            meets_b = [v for v in info.vertices if adj[v] & b_mask]
            w_mask |= sum(1 << v for v in meets_b[:info.edges_to_b - 1])
    else:
        # even components send B no edge and odd ones get at most one
        # from each u, so h(u) counts the live components u meets
        live = odd
        seen_singleton_step = False
        while True:
            # max keeps the first, so the lowest-index u of largest h
            best_u = max(dec.per_u, key=lambda u: sum(
                1 for info in live if adj[u] & info.mask))
            nbrs = adj[best_u]
            met = [info for info in live if nbrs & info.mask]
            if not met:
                break
            ell += 1
            if ell > len(barrier.b):
                raise CertificateError("more steps than vertices in B")
            if len(met) >= 2:
                if seen_singleton_step:
                    raise CertificateError(
                        "a step with maximum >= 2 follows a singleton step")
                ell_prime += 1
                h_sum += len(met)
                w_mask |= 1 << best_u
            else:
                seen_singleton_step = True
            for info in met:
                w_mask |= sum(1 << v for v in info.vertices
                              if adj[v] & b_mask and not nbrs >> v & 1)
            live = [info for info in live if not nbrs & info.mask]

    # counting identities from the construction; with max h <= 1 the
    # second reads c(G-W) >= |B|
    if w_mask.bit_count() != (dec.a_mask.bit_count() + ell_prime
                              + 2 * dec.big_odd_weight):
        raise CertificateError("|W| differs from |A| + ell' + sum 2t|C_2t+1|")
    comp_count = len(component_masks(adj, g.full_mask & ~w_mask))
    if comp_count < len(barrier.b) - ell_prime + h_sum:
        raise CertificateError("c(G-W) < |B| - ell' + sum h(u_i)")
    if comp_count < 2 or w_mask == 0:
        raise CertificateError("W is not a cut set")
    ratio = Fraction(w_mask.bit_count(), comp_count)
    return ToughnessWitness(frozenset(iter_bits(w_mask)), ell, ell_prime,
                            h_sum, comp_count, ratio)
