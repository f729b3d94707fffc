"""Linear-forest patterns (disjoint paths plus isolated vertices) and induced
containment testing.

Patterns are written "P5+2P1": components joined by '+', each an optional
copy count followed by P<order>. The induced search places path components
longest first and isolated vertices last, drawing each vertex from a
bitmask of the candidates that keep the embedding induced; path reversal
and equal-length component permutation symmetries are broken to avoid
duplicate work. ``contains`` orders the patterns themselves by induced
containment, which lets a caller derive one pattern's answer on a host
from another's (see ``theorems.GraphFacts``).
"""

from __future__ import annotations

import re
from functools import cache
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
    return _find_induced(host, p)


def _find_induced(host: Graph, p: ForestPattern) -> tuple | None:
    """The search behind ``find_induced``. ``contains`` calls it directly,
    so that ``find_induced`` counts only searches of host graphs."""
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


@cache
def contains(p: ForestPattern, q: ForestPattern) -> bool:
    """True iff pattern ``q`` is an induced subgraph of pattern ``p``.

    Induced containment is transitive, so a host that contains ``p``
    contains ``q``, and a host free of ``q`` is free of ``p``. Memoised:
    the patterns of a hunt are few and asked about once per graph.
    """
    return _find_induced(pattern_graph(p), q) is not None


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
