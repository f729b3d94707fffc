"""2-factor existence via the Tutte gadget reduction to perfect matching.

A 2-factor (spanning 2-regular subgraph) of G corresponds bijectively, on
host edges, to a perfect matching of the gadget graph (Tutte, 1954). The
gadget (``build_gadget``) and the blossom search (``max_matching``) live in
``gadget``, which the barrier search shares; they are re-exported here.

``brute_force_two_factor`` is the independent oracle: exhaustive per-vertex
choice of 2 incident edges.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .gadget import build_gadget, max_matching
from .graphs import CertificateError, Graph, GraphError

if TYPE_CHECKING:
    from .barriers import Barrier


# 2-factors ------------------------------------------------------------------------

class TwoFactor(NamedTuple):
    """Edge set of a spanning 2-regular subgraph of the host graph."""
    edges: frozenset


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

    With ``certify`` set and order within the exhaustive cap, a Tutte
    barrier is attached to negative answers as an independent certificate.
    """
    def negative() -> TwoFactorResult:
        barrier = None
        if certify:
            from .barriers import EXHAUSTIVE_BARRIER_CAP, find_barrier
            if g.n <= EXHAUSTIVE_BARRIER_CAP:
                barrier = find_barrier(g)
        return TwoFactorResult(None, barrier)

    if any(g.degree(v) < 2 for v in range(g.n)):
        return negative()
    adj, host_edge = build_gadget(g)
    mate = max_matching(adj)
    if -1 in mate:
        return negative()
    # a slot is matched to a core or to its partner, which images its edge
    factor = TwoFactor(frozenset(e for x, e in enumerate(host_edge)
                                 if e is not None and host_edge[mate[x]] == e))
    if not verify_two_factor(g, factor):
        raise CertificateError("the matched edges do not form a 2-factor")
    return TwoFactorResult(factor)


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
