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

A universal vertex u of X, one adjacent to every other vertex, lies in
every cut: while u is kept, G - S is connected. So the kernel puts the
universal vertices U in every S: they are neither shared nor private,
and every merge starts with them in S. The sets it leaves out have
c(G - S) = 1 and were never candidates, and each cut it keeps has the
entry it had before, so the least entry, the value and the witness, is
unchanged. With U out of the shared and private sets, the work is at
most 2^|shared| * sum over P of 2^(|private(P)| + |P|) component counts.

``invariants.CutWalk`` picks X, splits the graph along it and calls
this kernel, on masks in its reversed labels, when that bound is
small against the cut walk's 2^(n - |U|); see
``CLIQUE_KERNEL_MARGIN_BITS``.
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


def clique_toughness(radj: list[int], universal: int, clique: int,
                     shared: int, pieces: list) -> tuple:
    """The cut walk's last record (|S|, c(G - S), S) of a connected
    non-complete graph, from a clique and its ``invariants._clique_split``
    with ``universal``, universal vertices of the graph in the clique.

    Masks are in the reversed labels of ``radj``, so each entry
    (|S|, -mask) is least for the (|S|, lexicographic)-first cut, and both
    parts add over disjoint parts of S. Over all keys, the least
    (|S|/c, |S|, -mask) is the walk's last record.
    """
    free = clique & ~universal
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
        removed = removed_shared | universal
        total = {(0, bool(kept_shared or free)):
                 (removed.bit_count(), -removed)}
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
