"""Parameterized generators for the extremal constructions, with their
claimed invariant values and distinguished vertex sets.

Families:
  H(n)                 apex clique K_n joined to (K-bar_{2n+1} u K_{2n+1}),
                       plus an index-aligned perfect matching across the two
                       order-(2n+1) sides. Order 5n+2. 1-tough, no 2-factor.
  R(m,a,b,c)           K_{cm} joined to am disjoint copies of K_{bm}.
  Gprime(n,k)          (2n+1) triangles and a clique K_{3(2n+1)}, a perfect
                       matching M between them, each matching edge
                       subdivided once.
  G(n,k)               K_n joined to Gprime(n,k).
  Gstar(n,k)           like Gprime but each matching edge subdivided twice.
  Ghat(n,k)            K_n joined to Gstar(n,k). Carries the labeled pair
                       (A,B) with deficiency -2 and the cut W with
                       c(Ghat - W) = 3(2n+1) + 1.

The distinguished cut W includes the subdividing vertex adjacent to u_1 on
the matching edge u_1 v; without it the component count drops by one and the
claimed ratio 2 - (n+3)/(3(2n+1)+1) is not attained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import graphs
from .forbidden import ForestPattern
from .graphs import Graph, GraphError
from .rationals import Rational

FAMILY_IDS = ("H", "R", "Gprime", "G", "Gstar", "Ghat")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple  # sorted (name, value) pairs

    def __post_init__(self):
        if self.family not in FAMILY_IDS:
            raise GraphError(f"unknown family {self.family!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        p = self.as_dict
        if self.family == "H":
            if set(p) != {"n"} or p["n"] < 1:
                raise GraphError("family H takes n >= 1")
        elif self.family == "R":
            if set(p) != {"m", "a", "b", "c"} or min(p.values()) < 1:
                raise GraphError("family R takes m,a,b,c >= 1")
        elif self.family in ("Gprime", "G"):
            if set(p) != {"n", "k"} or p["k"] < 1 or p["n"] < p["k"] - 1:
                raise GraphError(f"family {self.family} needs n >= k-1 >= 0")
        else:  # Gstar, Ghat
            if set(p) != {"n", "k"} or p["k"] < 1 or p["n"] < p["k"]:
                raise GraphError(f"family {self.family} needs n >= k >= 1")

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


@dataclass
class FamilyInstance:
    spec: FamilySpec
    graph: Graph
    # named vertex sets: "apex", "A", "B", "W", side sets, etc.
    sets: dict = field(default_factory=dict)
    # the perfect matching M as host vertex pairs (pre-subdivision pairing)
    matching: tuple = ()


@dataclass
class ExpectedInvariants:
    toughness: Rational | None = None
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

def _build_h(n: int) -> FamilyInstance:
    # apex 0..n-1, independent side n..3n, clique side 3n+1..5n+1
    size = 2 * n + 1
    apex = list(range(n))
    indep = list(range(n, n + size))
    clique = list(range(n + size, n + 2 * size))
    edges = [(i, j) for i in apex for j in apex if i < j]
    edges += [(i, j) for i in clique for j in clique if i < j]
    edges += [(i, v) for i in apex for v in indep + clique]
    matching = list(zip(indep, clique))
    edges += matching
    labels = {v: "apex" for v in apex}
    labels.update({v: "independent" for v in indep})
    labels.update({v: "clique" for v in clique})
    g = Graph(n + 2 * size, edges, labels)
    spec = FamilySpec("H", (("n", n),))
    return FamilyInstance(spec, g,
                          {"apex": frozenset(apex),
                           "independent": frozenset(indep),
                           "clique": frozenset(clique)},
                          tuple(matching))


def _build_r(m: int, a: int, b: int, c: int) -> FamilyInstance:
    core = graphs.complete(c * m)
    blocks = graphs.copies(a * m, graphs.complete(b * m))
    g = graphs.join(core, blocks)
    labels = {v: "apex" for v in range(c * m)}
    for v in range(c * m, g.n):
        labels[v] = f"block-{(v - c * m) // (b * m)}"
    g = Graph(g.n, g.edges, labels)
    spec = FamilySpec("R", (("m", m), ("a", a), ("b", b), ("c", c)))
    return FamilyInstance(spec, g, {"apex": frozenset(range(c * m))})


def _build_gadget_family(n: int, k: int, subdivisions: int,
                         apexes: int) -> FamilyInstance:
    """Shared builder for Gprime/G (subdivisions=1) and Gstar/Ghat (=2)."""
    size = 3 * (2 * n + 1)  # matched vertices per side
    tri = list(range(size))
    clique = list(range(size, 2 * size))
    edges = []
    for t in range(2 * n + 1):
        base = 3 * t
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    edges += [(i, j) for i in clique for j in clique if i < j]
    labels = {v: "triangle" for v in tri}
    labels.update({v: "clique" for v in clique})
    sub_near = []   # subdividing vertex adjacent to the triangle side
    sub_far = []    # subdividing vertex adjacent to the clique side (if 2)
    idx = 2 * size
    matching = []
    for i in range(size):
        t_v, c_v = tri[i], clique[i]
        matching.append((t_v, c_v))
        if subdivisions == 1:
            edges += [(t_v, idx), (idx, c_v)]
            labels[idx] = "subdivision"
            sub_near.append(idx)
            idx += 1
        else:
            edges += [(t_v, idx), (idx, idx + 1), (idx + 1, c_v)]
            labels[idx] = "subdivision-triangle-side"
            labels[idx + 1] = "subdivision-clique-side"
            sub_near.append(idx)
            sub_far.append(idx + 1)
            idx += 2
    base = Graph(idx, edges, labels)
    if apexes:
        apex_g = Graph(apexes, [(i, j) for i in range(apexes)
                                for j in range(i + 1, apexes)],
                       {v: "apex" for v in range(apexes)})
        g = graphs.join(apex_g, base)
        off = apexes
    else:
        g, off = base, 0

    def shift(vs):
        return frozenset(v + off for v in vs)

    sets = {
        "apex": frozenset(range(apexes)),
        "triangle": shift(tri),
        "clique": shift(clique),
        "subdivision_near": shift(sub_near),
    }
    if sub_far:
        sets["subdivision_far"] = shift(sub_far)
    # distinguished vertices: u_i = first vertex of each triangle (these are
    # pairwise non-adjacent), v = clique partner of u_1, u = subdividing
    # vertex on the u_1 v matching edge adjacent to u_1
    u_set = shift(tri[0::3])
    v_vertex = clique[0] + off
    u_subdiv = sub_near[0] + off
    sets["u_independent"] = u_set
    cut = (sets["apex"]
           | (sets["triangle"] - u_set)
           | (sets["clique"] - {v_vertex})
           | {u_subdiv})
    sets["W"] = frozenset(cut)
    if apexes:
        sets["A"] = sets["apex"]
        if sub_far:
            sets["B"] = sets["subdivision_far"]
    matching = tuple((a + off, b + off) for a, b in matching)
    if subdivisions == 1:
        family = "G" if apexes else "Gprime"
    else:
        family = "Ghat" if apexes else "Gstar"
    spec = FamilySpec(family, (("n", n), ("k", k)))
    return FamilyInstance(spec, g, sets, matching)


def build(spec: FamilySpec) -> FamilyInstance:
    p = spec.as_dict
    if spec.family == "H":
        return _build_h(p["n"])
    if spec.family == "R":
        return _build_r(p["m"], p["a"], p["b"], p["c"])
    subdivisions = 1 if spec.family in ("Gprime", "G") else 2
    apexes = p["n"] if spec.family in ("G", "Ghat") else 0
    return _build_gadget_family(p["n"], p["k"], subdivisions, apexes)


# Claimed invariants -----------------------------------------------------------------

def expected(spec: FamilySpec) -> ExpectedInvariants:
    p = spec.as_dict
    if spec.family == "H":
        n = p["n"]
        return ExpectedInvariants(
            toughness=Rational(3 * n, 2 * n + 1),
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
            toughness=Rational(c, a),
            alpha=a * m,
            min_degree=(b + c) * m - 1,
        )
    if spec.family in ("Gprime", "Gstar"):
        return ExpectedInvariants()
    n, k = p["n"], p["k"]
    denom = 3 * (2 * n + 1) + 1
    ratio = Rational.from_fraction(2 - Fraction(n + 3, denom))
    inst = build(spec)
    if spec.family == "G":
        return ExpectedInvariants(
            toughness=ratio,
            has_two_factor=False,
            claimed_cut=(inst.sets["W"], denom, ratio),
            claimed_patterns=(ForestPattern((5,), k),),
            connectivity_at_least=k + 1,
        )
    # Ghat
    return ExpectedInvariants(
        toughness=ratio,
        has_two_factor=False,
        claimed_barrier=(inst.sets["A"], inst.sets["B"], -2),
        claimed_cut=(inst.sets["W"], denom, ratio),
        claimed_patterns=(ForestPattern((7,), k), ForestPattern((6,), k)),
        connectivity_at_least=k + 2,
    )


# Arithmetic comparison of hypotheses -------------------------------------------------

@dataclass
class GapCheckReport:
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
