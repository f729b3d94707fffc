"""Exact toughness through a clique separator.

Let X be a clique of G. The pieces are the components P of G - X, and
A(P) = N(P) & X. For a cut S, R = X - S is a clique, so it lies in one
component of G - S, which absorbs every component of a P - S that sees R.

- If R is empty, c(G - S) sums c(P - S) over the pieces.
- Otherwise c(G - S) is 1 plus the components of each P - S that see no
  vertex of R. For piece P that count depends only on P's own cut, on
  which of its private X-vertices (those in A(P) alone) it keeps, and on
  which of the shared X-vertices (those in two or more A(P)) are kept.

So for each kept subset of the shared vertices, every piece is optimised
alone into a frontier keyed by (count, keeps a private vertex), and the
frontiers are merged by min-plus convolution. A vertex of X in no A(P) is
kept at no cost: in S it would add to |S| and never to c(G - S).

The graph need not be connected: a piece with A(P) empty counts all of
its components. The work is at most 2^|shared| * sum over P of
2^(|private(P)| + |P|) component counts.

``invariants.CutWalk`` runs this kernel on G - U, U the universal
vertices, with |U| as the ``offset`` of every |S|, on masks in its
reversed labels, when the work bound is small against the cut walk's
2^|G - U|; see ``CLIQUE_KERNEL_MARGIN_BITS``.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import component_masks, iter_bits


def _submasks(mask: int):
    """Every submask of ``mask``, from ``mask`` itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _min_plus(a: dict, b: dict) -> dict:
    """Merge two frontiers {(count, kept): (|S|, -mask)}: counts add, the
    kept flags or, the cuts join, and each key keeps its least entry."""
    out = {}
    for (count_a, kept_a), (size_a, neg_a) in a.items():
        for (count_b, kept_b), (size_b, neg_b) in b.items():
            key = (count_a + count_b, kept_a or kept_b)
            entry = (size_a + size_b, neg_a + neg_b)
            old = out.get(key)
            if old is None or entry < old:
                out[key] = entry
    return out


def clique_toughness(radj: list[int], offset: int, clique: int,
                     shared: int, pieces: list) -> tuple:
    """The cut walk's last record (|S| + ``offset``, c(G - S), S) of a
    non-complete graph, from a clique and its ``invariants._clique_split``.

    Masks are in the reversed labels of ``radj``, so each entry
    (|S|, -mask) is least for the (|S|, lexicographic)-first cut, and both
    parts add over disjoint parts of S. Over all keys, the least
    (|S|/c, |S|, -mask) is the walk's last record.
    """
    free = clique
    frontiers = []
    for piece, touch in pieces:
        free &= ~touch
        private, touch_shared = touch & ~shared, touch & shared
        # for each kept subset of the piece's shared vertices, its frontier
        fronts = {kept: {} for kept in _submasks(touch_shared)}
        for cut in _submasks(piece):
            reach = []
            for comp in component_masks(radj, piece & ~cut):
                seen = 0
                for v in iter_bits(comp):
                    seen |= radj[v]
                reach.append(seen & clique)
            size = cut.bit_count()
            for kept_private in _submasks(private):
                removed = private ^ kept_private
                entry = (size + removed.bit_count(), -(cut | removed))
                flag = kept_private != 0
                for kept_shared, best in fronts.items():
                    kept = kept_private | kept_shared
                    key = (sum(not r & kept for r in reach), flag)
                    old = best.get(key)
                    if old is None or entry < old:
                        best[key] = entry
        frontiers.append((touch_shared, fronts))

    best = None
    for removed_shared in _submasks(shared):
        kept_shared = shared ^ removed_shared
        total = {(0, bool(kept_shared or free)):
                 (offset + removed_shared.bit_count(), -removed_shared)}
        for touch_shared, fronts in frontiers:
            total = _min_plus(total, fronts[kept_shared & touch_shared])
        for (count, kept), (size, neg) in total.items():
            count += kept  # the component holding the kept vertices
            if count >= 2:
                candidate = (Fraction(size, count), size, neg, count)
                if best is None or candidate < best:
                    best = candidate
    _, size, neg, count = best
    return size, count, -neg
