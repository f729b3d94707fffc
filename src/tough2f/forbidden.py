"""Linear-forest patterns (disjoint paths plus isolated vertices) and induced
containment testing.

Patterns are written "P5+2P1": components joined by '+', each an optional
copy count followed by P<order>. The induced search places path components
longest first and isolated vertices last, drawing each vertex from a
bitmask of the candidates that keep the embedding induced; path reversal
and equal-length component permutation symmetries are broken to avoid
duplicate work.

``_independent_sweep`` answers P_m + kP_1 for one k and every m up to
``top``. It finds L_k, the largest min(top, order of a longest induced
path of G - N[I]) over independent k-sets I, or -1 if there is none;
L_0 is the longest induced path of G. This is exact:

- For m <= top, G contains P_m + kP_1 iff L_k >= m. An induced copy is
  an induced P_m, Q, and an independent k-set I with I and N[Q] disjoint,
  that is, with Q inside G - N[I]. Conversely, an induced path of
  G - N[I] on m or more vertices has a subpath on m, which is induced.
- L_k is non-increasing in k: a larger I leaves a smaller G - N[I].
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


def _longest_path(adj: list, rest: int, floor: int, cap: int) -> int:
    """min(cap, order of a longest induced path on ``rest``) if that is
    above ``floor``, else at most ``floor``. A path grows at its end, and
    its vertices after the next one lie outside the closed neighbourhood
    of the path so far: size + 1 + |rest - closed| bounds its extensions.
    """
    cap = min(cap, rest.bit_count())
    best = max(floor, 0)
    starts = rest
    while starts and best < cap:
        bit = starts & -starts
        starts ^= bit
        # (last vertex, closed neighbourhood of the vertices before it, order)
        stack = [(bit.bit_length() - 1, 0, 1)]
        while stack:
            last, before, size = stack.pop()
            if size > best:
                best = size
                if best >= cap:
                    return best
            closed = before | adj[last] | 1 << last
            if size + 1 + (rest & ~closed).bit_count() > best:
                cands = adj[last] & rest & ~before
                while cands:
                    bit = cands & -cands
                    cands ^= bit
                    stack.append((bit.bit_length() - 1, closed, size + 1))
    return best


def _independent_sweep(host: Graph, k: int, top: int, longest: list):
    """Raise ``longest[k]``, from -1, to L_k (module docstring) over the
    independent k-sets I of ``host`` in increasing order, yielding after
    each rise, until it reaches ``top``. A partial I is dropped when the
    vertices it leaves, less those it has still to take, are at most
    ``longest[k]``: every completion of I leaves no more than that."""
    adj, full = host.adj, host.full_mask
    if k == 0:
        longest[0] = _longest_path(adj, full, -1, top)
        yield
        return
    # (V - N[I], the vertices of it above max(I), k - |I|)
    stack = [(full, full, k)]
    while stack:
        rest, cands, need = stack.pop()
        if rest.bit_count() - need <= longest[k]:
            continue
        if need == 1:  # each I + v, lowest v first
            while cands:
                bit = cands & -cands
                cands ^= bit
                left = rest & ~adj[bit.bit_length() - 1] & ~bit
                if left.bit_count() > longest[k]:
                    found = _longest_path(adj, left, longest[k], top)
                    if found > longest[k]:
                        longest[k] = found
                        yield
                        if found >= top:
                            return
        while need > 1 and cands:  # pushed highest first, popped lowest
            v = cands.bit_length() - 1
            cands ^= 1 << v
            left = rest & ~adj[v] & ~(1 << v)
            stack.append((left, left >> v + 1 << v + 1, need - 1))


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
