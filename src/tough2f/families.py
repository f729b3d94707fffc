"""Parameterized generators for the extremal constructions, with their
claimed invariant values and distinguished vertex sets.

Families:
  H(n)                 apex clique K_n joined to (K-bar_{2n+1} u K_{2n+1}),
                       plus an index-aligned perfect matching across the two
                       order-(2n+1) sides. Order 5n+2. 1-tough, no 2-factor.
  R(m,a,b,c)           K_{cm} joined to am disjoint copies of K_{bm};
                       complete, so infinitely tough, when am = 1.
  Gprime(n,k)          (2n+1) triangles and a clique K_{3(2n+1)}, a perfect
                       matching M between them, each matching edge
                       subdivided once.
  G(n,k)               K_n joined to Gprime(n,k).
  Gstar(n,k)           like Gprime but each matching edge subdivided twice.
  Ghat(n,k)            K_n joined to Gstar(n,k). Carries the distinguished
                       pair (A,B) with deficiency -2 and the cut W with
                       c(Ghat - W) = 3(2n+1) + 1.

The distinguished cut W includes the subdividing vertex adjacent to u_1 on
the matching edge u_1 v; without it the component count drops by one and the
claimed ratio 2 - (n+3)/(3(2n+1)+1) is not attained.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import graphs
from .forbidden import ForestPattern
from .graphs import Graph, GraphError
from .rationals import INF

FAMILY_IDS = ("H", "R", "Gprime", "G", "Gstar", "Ghat")


class _SpecFields(NamedTuple):
    """The fields of ``FamilySpec``, which checks them and sorts ``params``."""
    family: str
    params: tuple  # sorted (name, value) pairs


class FamilySpec(_SpecFields):
    __slots__ = ()

    def __new__(cls, family, params):
        if family not in FAMILY_IDS:
            raise GraphError(f"unknown family {family!r}")
        try:
            params = tuple((name, value) for name, value in params)
        except (TypeError, ValueError):
            raise GraphError(
                f"family {family} takes (name, integer) pairs") from None
        if any(type(name) is not str or type(value) is not int
               for name, value in params):
            raise GraphError(f"family {family} takes (name, integer) pairs")
        params = tuple(sorted(params))
        p = dict(params)
        if len(p) != len(params):
            raise GraphError(f"repeated parameter in family {family}")
        if family == "H":
            if set(p) != {"n"} or p["n"] < 1:
                raise GraphError("family H takes n >= 1")
        elif family == "R":
            if set(p) != {"m", "a", "b", "c"} or min(p.values()) < 1:
                raise GraphError("family R takes m,a,b,c >= 1")
        elif family == "Gprime":
            if set(p) != {"n", "k"} or p["k"] < 1 or p["n"] < p["k"] - 1:
                raise GraphError("family Gprime needs n >= k-1 >= 0")
        elif family == "G":
            # the claimed toughness needs the K_n apex, so n >= 1
            if set(p) != {"n", "k"} or p["k"] < 1 or p["n"] < max(1, p["k"] - 1):
                raise GraphError("family G needs k >= 1 and n >= max(1, k-1)")
        else:  # Gstar, Ghat
            if set(p) != {"n", "k"} or p["k"] < 1 or p["n"] < p["k"]:
                raise GraphError(f"family {family} needs n >= k >= 1")
        return super().__new__(cls, family, params)

    @classmethod
    def _make(cls, iterable) -> "FamilySpec":
        # _replace builds through _make, so both run the checks above
        return cls(*iterable)

    @property
    def as_dict(self) -> dict:
        return dict(self.params)

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse e.g. "H:n=2" or "R:m=1,a=2,b=1,c=3"."""
        try:
            family, rest = text.split(":", 1)
            params = tuple((k.strip(), int(v))
                           for k, v in (item.split("=") for item in rest.split(",")))
        except ValueError as exc:
            raise GraphError(f"malformed family spec {text!r}") from exc
        return cls(family.strip(), params)

    def __str__(self):
        return f"{self.family}:" + ",".join(f"{k}={v}" for k, v in self.params)


class FamilyInstance(NamedTuple):
    spec: FamilySpec
    graph: Graph
    # named vertex sets: "apex", "A", "B", "W", side sets, etc.
    sets: dict
    # the perfect matching M as host vertex pairs (pre-subdivision pairing)
    matching: tuple = ()


class ExpectedInvariants(NamedTuple):
    toughness: Fraction | float | None = None  # INF for a complete graph
    alpha: int | None = None
    min_degree: int | None = None
    has_two_factor: bool | None = None
    # (A, B, expected deficiency)
    claimed_barrier: tuple | None = None
    # (W, expected c(G - W), expected ratio)
    claimed_cut: tuple | None = None
    claimed_patterns: tuple = ()
    connectivity_at_least: int | None = None


# Builders -------------------------------------------------------------------------

def _build_h(spec: FamilySpec, n: int) -> FamilyInstance:
    # apex 0..n-1, independent side n..3n, clique side 3n+1..5n+1
    size = 2 * n + 1
    indep = range(n, n + size)
    clique = range(n + size, n + 2 * size)
    matching = tuple(zip(indep, clique))
    sides = graphs.disjoint_union(graphs.edgeless(size), graphs.complete(size))
    g = graphs.add_matching(graphs.join(graphs.complete(n), sides), matching)
    return FamilyInstance(spec, g,
                          {"apex": frozenset(range(n)),
                           "independent": frozenset(indep),
                           "clique": frozenset(clique)},
                          matching)


def _build_r(spec: FamilySpec, m: int, a: int, b: int, c: int) -> FamilyInstance:
    g = graphs.join(graphs.complete(c * m),
                    graphs.copies(a * m, graphs.complete(b * m)))
    return FamilyInstance(spec, g, {"apex": frozenset(range(c * m))})


def _gadget_shape(spec: FamilySpec) -> tuple:
    """(n, subdivisions, apexes, size, sub) of a Gprime/G (subdivisions=1)
    or Gstar/Ghat (=2) spec.

    The apexes come first; after them, the triangles are 0..size-1, the
    clique size..sub-1, and matching edge (i, size+i) runs through the
    subdividing vertices from sub + subdivisions*i on, the one nearest the
    triangle first.
    """
    n = spec.as_dict["n"]
    subdivisions = 1 if spec.family in ("Gprime", "G") else 2
    apexes = n if spec.family in ("G", "Ghat") else 0
    size = 3 * (2 * n + 1)  # matched vertices per side
    return n, subdivisions, apexes, size, 2 * size


def _gadget_sets(shape: tuple) -> dict:
    """The named vertex sets of a gadget family of the given shape."""
    _, subdivisions, apexes, size, sub = shape

    def shift(vs):
        return frozenset(v + apexes for v in vs)

    sets = {
        "apex": frozenset(range(apexes)),
        "triangle": shift(range(size)),
        "clique": shift(range(size, sub)),
        "subdivision_near": shift(range(sub, sub + subdivisions * size,
                                        subdivisions)),
    }
    if subdivisions == 2:
        sets["subdivision_far"] = shift(range(sub + 1, sub + 2 * size, 2))
    # distinguished vertices: u_i = first vertex of each triangle (these are
    # pairwise non-adjacent), v = clique partner of u_1, u = subdividing
    # vertex on the u_1 v matching edge adjacent to u_1
    u_set = shift(range(0, size, 3))
    v_vertex = shift([size])
    u_subdiv = shift([sub])
    sets["u_independent"] = u_set
    sets["W"] = (sets["apex"]
                 | (sets["triangle"] - u_set)
                 | (sets["clique"] - v_vertex)
                 | u_subdiv)
    if apexes:
        sets["A"] = sets["apex"]
        if subdivisions == 2:
            sets["B"] = sets["subdivision_far"]
    return sets


def _build_gadget_family(spec: FamilySpec) -> FamilyInstance:
    """Shared builder for Gprime/G, Gstar/Ghat, laid out by _gadget_shape."""
    shape = _gadget_shape(spec)
    n, subdivisions, apexes, size, sub = shape
    blocks = graphs.disjoint_union(graphs.copies(2 * n + 1, graphs.complete(3)),
                                   graphs.complete(size))
    edges = list(blocks.edges)
    for i in range(size):
        first = sub + subdivisions * i
        chain = [i, *range(first, first + subdivisions), size + i]
        edges.extend(zip(chain, chain[1:]))
    g = graphs.join(graphs.complete(apexes),
                    Graph(sub + subdivisions * size, edges))
    matching = tuple((i + apexes, size + i + apexes) for i in range(size))
    return FamilyInstance(spec, g, _gadget_sets(shape), matching)


def build(spec: FamilySpec) -> FamilyInstance:
    p = spec.as_dict
    if spec.family == "H":
        return _build_h(spec, p["n"])
    if spec.family == "R":
        return _build_r(spec, p["m"], p["a"], p["b"], p["c"])
    return _build_gadget_family(spec)


# Claimed invariants -----------------------------------------------------------------

def expected(spec: FamilySpec) -> ExpectedInvariants:
    p = spec.as_dict
    if spec.family == "H":
        n = p["n"]
        return ExpectedInvariants(
            toughness=Fraction(3 * n, 2 * n + 1),
            alpha=2 * n + 1,
            min_degree=n + 1,
            has_two_factor=False,
            claimed_patterns=(
                ForestPattern((2,), n + 1),   # P2 u kP1, k = n + 1
                ForestPattern((4,), n),       # P4 u kP1, k = n
                ForestPattern((3,), n),       # P3 u kP1, k = n
            ),
            connectivity_at_least=n + 1,
        )
    if spec.family == "R":
        m, a, b, c = p["m"], p["a"], p["b"], p["c"]
        return ExpectedInvariants(
            toughness=INF if a * m == 1 else Fraction(c, a),
            alpha=a * m,
            min_degree=(b + c) * m - 1,
        )
    if spec.family in ("Gprime", "Gstar"):
        return ExpectedInvariants()
    n, k = p["n"], p["k"]
    denom = 3 * (2 * n + 1) + 1
    ratio = 2 - Fraction(n + 3, denom)
    sets = _gadget_sets(_gadget_shape(spec))
    if spec.family == "G":
        return ExpectedInvariants(
            toughness=ratio,
            has_two_factor=False,
            claimed_cut=(sets["W"], denom, ratio),
            claimed_patterns=(ForestPattern((5,), k),),
            connectivity_at_least=k + 1,
        )
    # Ghat
    return ExpectedInvariants(
        toughness=ratio,
        has_two_factor=False,
        claimed_barrier=(sets["A"], sets["B"], -2),
        claimed_cut=(sets["W"], denom, ratio),
        claimed_patterns=(ForestPattern((7,), k), ForestPattern((6,), k)),
        connectivity_at_least=k + 2,
    )


# Arithmetic comparison of hypotheses -------------------------------------------------

class GapCheckReport(NamedTuple):
    m_bound: Fraction
    degree_exceeds_gap: bool       # delta > (2 - tau) * alpha
    dense_threshold_fails: bool    # delta < (3t-2-t^2)/(7t-7-t^2) * order

    @property
    def both_hold(self) -> bool:
        return self.degree_exceeds_gap and self.dense_threshold_fails


def remark1b_gap_check(m: int, a: int, b: int, c: int) -> GapCheckReport:
    """Exact arithmetic check that R(m,a,b,c) meets the independence-based
    degree condition while failing the order-based one, for
    3a/2 <= c < 2a and m at least 5(7ac-7a^2-c^2) / (2(3ac-2a^2-c^2))."""
    if min(m, a, b, c) < 1:
        raise GraphError("parameters must be positive")
    if not (Fraction(3 * a, 2) <= c < 2 * a):
        raise GraphError("need 3a/2 <= c < 2a")
    m_bound = Fraction(5 * (7 * a * c - 7 * a * a - c * c),
                       2 * (3 * a * c - 2 * a * a - c * c))
    if m < m_bound:
        raise GraphError(f"need m >= {m_bound}")
    tau = Fraction(c, a)
    delta = (b + c) * m - 1
    alpha = a * m
    order = a * b * m * m + c * m
    gap_ok = delta > (2 - tau) * alpha
    threshold = Fraction(3 * tau - 2 - tau * tau, 7 * tau - 7 - tau * tau)
    dense_fails = delta < threshold * order
    return GapCheckReport(m_bound, gap_ok, dense_fails)
