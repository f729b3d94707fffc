"""Immutable simple undirected graphs on dense vertex indices.

Adjacency is kept both as an edge tuple and as one bitmask per vertex, so
subset-heavy searches (toughness, barriers) get O(1) adjacency tests while
matching code can iterate edges. A vertex is just its index; the roles
vertices play in a construction are the construction's named vertex sets
(``families.FamilyInstance.sets``).

Also hosts the two interchange formats: graph6 lines (single-byte header,
order <= 62) and the plain edge-list text format ("n m" then one "u v" pair
per line, 0-based).
"""

from __future__ import annotations

from typing import Iterable, Iterator

GRAPH6_MAX_ORDER = 62


class GraphError(ValueError):
    """Invalid graph construction or malformed graph input."""


class CertificateError(RuntimeError):
    """A computed answer failed its own certificate check: a bug, never
    bad input. Raised explicitly, so ``python -O`` keeps the checks."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A simple undirected graph on vertices 0..n-1. Immutable after build."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("order must be non-negative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for order {n}")
            seen.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        adj = [0] * n
        for u, v in seen:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def is_complete(self) -> bool:
        return 2 * len(self.edges) == self.n * (self.n - 1)

    def is_connected(self) -> bool:
        full = self.full_mask
        return next(component_masks(self.adj, full), full) == full

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


# Construction ----------------------------------------------------------------

def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    return Graph(n, pairs)


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless(n: int) -> Graph:
    return Graph(n, [])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
             if not g.has_edge(i, j)]
    return Graph(g.n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    off = g.n
    edges = list(g.edges) + [(u + off, v + off) for u, v in h.edges]
    return Graph(g.n + h.n, edges)


def copies(a: int, h: Graph) -> Graph:
    if a < 0:
        raise GraphError("copy count must be non-negative")
    return Graph(a * h.n, [(u + i * h.n, v + i * h.n)
                           for i in range(a) for u, v in h.edges])


def join(g: Graph, h: Graph) -> Graph:
    base = disjoint_union(g, h)
    cross = [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return Graph(base.n, list(base.edges) + cross)


def add_matching(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    used = set()
    pairs = list(pairs)
    for u, v in pairs:
        if g.has_edge(u, v):
            raise GraphError(f"pair ({u},{v}) is already an edge")
        if u in used or v in used or u == v:
            raise GraphError("matching pairs must be vertex-disjoint")
        used.update((u, v))
    return Graph(g.n, list(g.edges) + pairs)


def subdivide(g: Graph, edge: tuple[int, int], times: int) -> Graph:
    """Replace ``edge`` by a path through ``times`` fresh internal vertices."""
    u, v = edge
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not in graph")
    if times < 0:
        raise GraphError("subdivision count must be non-negative")
    if times == 0:
        return g
    key = (u, v) if u < v else (v, u)
    edges = [e for e in g.edges if e != key]
    chain = [u] + list(range(g.n, g.n + times)) + [v]
    edges.extend(zip(chain, chain[1:]))
    return Graph(g.n + times, edges)


# Vertex subsets and components ------------------------------------------------

def vertex_mask(g: Graph, s) -> int:
    """Bitmask of the vertex subset ``s``, rejecting out-of-range vertices."""
    mask = 0
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def induced(g: Graph, s) -> Graph:
    """Induced subgraph on ``s``; new vertex i is the i-th smallest member."""
    keep = sorted(set(s))
    vertex_mask(g, keep)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph(len(keep), edges)


def delete(g: Graph, s) -> Graph:
    drop = set(s)
    vertex_mask(g, drop)
    return induced(g, [v for v in range(g.n) if v not in drop])


def component_masks(adj, avail: int) -> Iterator[int]:
    """Yield the connected components of the subgraph induced on the
    ``avail`` bitmask, as bitmasks, in order of their lowest vertex.

    A caller that only needs to know whether some count is reachable may
    stop early.
    """
    rest = avail
    while rest:
        todo = rest & -rest
        free = rest ^ todo  # not yet reached from the component's root
        while todo:
            bit = todo & -todo
            new = adj[bit.bit_length() - 1] & free
            free ^= new
            todo ^= bit | new
        yield rest ^ free
        rest = free


def components(g: Graph) -> tuple[frozenset, ...]:
    """Maximal connected blocks, as a partition of the vertex set."""
    return tuple(frozenset(iter_bits(m))
                 for m in component_masks(g.adj, g.full_mask))


def count_components(g: Graph, removed=()) -> int:
    avail = g.full_mask & ~vertex_mask(g, removed)
    return sum(1 for _ in component_masks(g.adj, avail))


# graph6 interchange ------------------------------------------------------------

def encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_ORDER:
        raise GraphError(f"graph6 support capped at order {GRAPH6_MAX_ORDER}")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + g.n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def decode_graph6(text: str) -> Graph:
    text = text.strip()
    if not text:
        raise GraphError("empty graph6 input")
    head = ord(text[0])
    if text[0] == "~":
        raise GraphError(f"graph6 orders above {GRAPH6_MAX_ORDER} not supported")
    if not (63 <= head <= 63 + GRAPH6_MAX_ORDER):
        raise GraphError(f"malformed graph6 header {text[0]!r}")
    n = head - 63
    need = (n * (n - 1) // 2 + 5) // 6
    body = text[1:]
    if len(body) != need:
        raise GraphError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise GraphError(f"malformed graph6 byte {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    m = n * (n - 1) // 2
    if any(bits[m:]):
        raise GraphError("nonzero trailing bits in graph6 body")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


# Edge-list text format ---------------------------------------------------------

def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise GraphError("edge-list input must start with 'n m'")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
        pairs = [(int(a), int(b)) for a, b in rows[1:]]
    except ValueError as exc:
        raise GraphError(f"malformed edge-list input: {exc}") from exc
    if len(pairs) != m:
        raise GraphError(f"edge-list declares {m} edges, found {len(pairs)}")
    return Graph(n, pairs)
