"""Linear-forest patterns (disjoint paths plus isolated vertices) and induced
containment testing.

Patterns are written "P5+2P1": components joined by '+', each an optional
copy count followed by P<order>. The induced search places path components
longest first and isolated vertices last, drawing each vertex from a
bitmask of the candidates that keep the embedding induced; path reversal
and equal-length component permutation symmetries are broken to avoid
duplicate work.

``_sweep`` answers every P_m + kP_1 question about one host, for m up to
``top`` and k up to ``cap``, from one walk of its induced paths. It keeps
best[j] = min(cap, max over induced P_j called Q of alpha(G - N[Q])), -1
while no induced P_j has been seen. Two facts make this exact:

- G contains P_m + kP_1 iff best[m] >= k (for k <= cap). An induced copy
  is an induced P_m, Q, with k vertices that are pairwise non-adjacent
  and adjacent to no vertex of Q: an independent set of G - N[Q].
  Conversely Q with such a set induces P_m + kP_1.
- best is non-increasing in j. A subpath Q' of an induced path Q is an
  induced path with N[Q'] a subset of N[Q], so G - N[Q] is an induced
  subgraph of G - N[Q'] and alpha(G - N[Q']) >= alpha(G - N[Q]). A rise
  of best[m] therefore lifts every best[j], j < m, to at least the same
  value, and an extension of Q is worth no more than Q. Once best[top]
  reaches cap, every entry has, and the sweep ends.

``theorems.GraphFacts`` keeps one sweep per graph suspended between
questions and advances it only until a question is decided.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .graphs import Graph, GraphError, disjoint_union, edgeless, path

_COMPONENT_RE = re.compile(r"^(\d*)P(\d+)$")


class _PatternFields(NamedTuple):
    """The fields of ``ForestPattern``, which checks and sorts them."""
    paths: tuple  # path orders >= 2, sorted descending
    isolated: int  # number of P_1 components


class ForestPattern(_PatternFields):
    __slots__ = ()

    def __new__(cls, paths, isolated):
        paths = tuple(sorted(paths, reverse=True))
        if any(p < 2 for p in paths) or isolated < 0:
            raise GraphError("invalid forest pattern")
        return super().__new__(cls, paths, isolated)

    @classmethod
    def _make(cls, iterable) -> "ForestPattern":
        # _replace builds through _make, so both run the checks above
        return cls(*iterable)

    @property
    def order(self) -> int:
        return sum(self.paths) + self.isolated

    @classmethod
    def parse(cls, text: str) -> "ForestPattern":
        paths = []
        isolated = 0
        for token in text.replace(" ", "").split("+"):
            m = _COMPONENT_RE.match(token)
            if not m:
                raise GraphError(f"malformed pattern component {token!r}")
            count = int(m.group(1)) if m.group(1) else 1
            order = int(m.group(2))
            if order < 1 or count < 1:
                raise GraphError(f"malformed pattern component {token!r}")
            if order == 1:
                isolated += count
            else:
                paths.extend([order] * count)
        return cls(tuple(paths), isolated)

    def __str__(self):
        parts = [f"P{p}" for p in self.paths]
        if self.isolated == 1:
            parts.append("P1")
        elif self.isolated > 1:
            parts.append(f"{self.isolated}P1")
        return "+".join(parts) if parts else "P0"


def pattern_graph(p: ForestPattern) -> Graph:
    """The pattern as a graph: paths in descending order, then P_1's."""
    g = edgeless(0)
    for order in p.paths:
        g = disjoint_union(g, path(order))
    return disjoint_union(g, edgeless(p.isolated))


def find_induced(host: Graph, p: ForestPattern) -> tuple | None:
    """An induced embedding of the pattern, as a tuple of host vertices in
    pattern-vertex order (see pattern_graph), or None.

    Candidates come from bitmasks, lowest vertex first. A path grows by
    ``adj[last]`` minus the closed neighbourhood of the vertices placed
    before ``last``; a new component or isolated vertex starts outside the
    closed neighbourhood of everything placed, above its start bound.
    """
    n = host.n
    if p.order > n:
        return None
    adj = host.adj
    full = host.full_mask
    paths = p.paths  # already sorted descending

    placed: list[int] = []

    def place_isolated(remaining: int, closed: int, start: int) -> bool:
        """``closed`` is the closed neighbourhood of the placed vertices."""
        if remaining == 0:
            return True
        cands = full & ~closed & -(1 << start)
        while cands:
            bit = cands & -cands
            cands ^= bit
            v = bit.bit_length() - 1
            placed.append(v)
            if place_isolated(remaining - 1, closed | bit | adj[v], v + 1):
                return True
            placed.pop()
        return False

    def extend_path(need: int, seq_first: int, before: int, pi: int) -> bool:
        """Grow the current path by ``need`` more vertices; ``before`` is the
        closed neighbourhood of the vertices placed before the last one."""
        last = placed[-1]
        closed = before | adj[last] | 1 << last
        if need == 0:
            return place_component(pi + 1, closed)
        # must touch the previous path vertex, nothing else already placed
        cands = adj[last] & ~before
        if need == 1:
            # path reversal symmetry: the far endpoint is above the first
            cands &= -(2 << seq_first)
        while cands:
            bit = cands & -cands
            cands ^= bit
            placed.append(bit.bit_length() - 1)
            if extend_path(need - 1, seq_first, closed, pi):
                return True
            placed.pop()
        return False

    def place_component(pi: int, closed: int) -> bool:
        """``closed`` is the closed neighbourhood of the placed vertices."""
        if pi == len(paths):
            return place_isolated(p.isolated, closed, 0)
        order = paths[pi]
        # equal-length component permutation symmetry: increasing start vertex
        start = 0
        if pi > 0 and paths[pi - 1] == order:
            start = placed[-order] + 1
        cands = full & ~closed & -(1 << start)
        while cands:
            bit = cands & -cands
            cands ^= bit
            v = bit.bit_length() - 1
            placed.append(v)
            if extend_path(order - 1, v, closed, pi):
                return True
            placed.pop()
        return False

    if place_component(0, 0):
        return tuple(placed)
    return None


def is_free(host: Graph, p: ForestPattern) -> bool:
    """True iff the host contains no induced copy of the pattern."""
    return find_induced(host, p) is None


def _capped_alpha(adj: list, rest: int, cap: int) -> int:
    """min(cap, alpha of the subgraph on ``rest``): take the lowest vertex
    of ``rest``, or, when it has a neighbour there, leave it."""
    if not rest or cap == 0:
        return 0
    bit = rest & -rest
    rest ^= bit
    nbrs = adj[bit.bit_length() - 1] & rest
    alpha = 1 + _capped_alpha(adj, rest & ~nbrs, cap - 1)
    if alpha < cap and nbrs:
        alpha = max(alpha, _capped_alpha(adj, rest, cap))
    return alpha


def _sweep(host: Graph, top: int, cap: int, best: list):
    """Walk the induced paths of ``host`` on at most ``top`` vertices depth
    first, raising ``best[j]`` to min(cap, alpha(host - N[Q])) for each
    induced P_j called Q, and yield after each rise. ``best`` has ``top + 1``
    entries, -1 where no induced path of that order has been seen; entry 0
    is not used. When the generator is exhausted, ``best`` is exact.

    A path grows at its end only, so each path of two or more vertices is
    walked from both ends; it is evaluated from the end below its other
    end. A subpath of Q has a smaller closed neighbourhood, so a rise at j
    lifts every entry below j, and the value of Q bounds the value of every
    path that extends it: the walk leaves a path whose bound is at most
    ``best[top]``, and it returns once ``best[top]`` reaches ``cap``.
    """
    adj = host.adj
    full = host.full_mask
    for first in range(host.n):
        # (last vertex, closed neighbourhood of the vertices before it,
        # order, bound on the value of the path)
        stack = [(first, 0, 1, cap)]
        while stack:
            last, before, size, bound = stack.pop()
            closed = before | adj[last] | 1 << last
            # evaluate where the value can raise best[size], or prune the
            # extensions: values are at least 0, so only once best[top] is
            if last >= first and (bound > best[size] or best[top] >= 0):
                bound = _capped_alpha(adj, full & ~closed, bound)
                if bound > best[size]:
                    j = size
                    while j and best[j] < bound:
                        best[j] = bound
                        j -= 1
                    yield
                    if best[top] >= cap:
                        return
            if size < top and bound > best[top]:
                cands = adj[last] & ~before
                while cands:
                    bit = cands & -cands
                    cands ^= bit
                    stack.append((bit.bit_length() - 1, closed, size + 1,
                                  bound))


def verify_embedding(host: Graph, p: ForestPattern, embedding) -> bool:
    """Recheck the induced condition directly against the pattern graph."""
    pat = pattern_graph(p)
    if len(set(embedding)) != pat.n:
        return False
    for i in range(pat.n):
        for j in range(i + 1, pat.n):
            if pat.has_edge(i, j) != host.has_edge(embedding[i], embedding[j]):
                return False
    return True
