"""Theorem registry, corpus hunting, the ratio inequality property check, and
whole-family verification.

Each registered statement is a list of hypothesis clauses over exact graph
invariants plus the fixed conclusion "has a 2-factor". Clauses are ordered
cheapest first and evaluation short-circuits on the first failure; a graph
is a counterexample exactly when every hypothesis holds and the conclusion
fails. The registry also carries a deliberately false statement (1-tough
implies a 2-factor) used as a harness self-test.

One loop, ``_failed_clause``, finds the first clause that fails:
``check_theorem`` builds its report from that index, and ``hunt`` counts
from it and the 2-factor answer, with no report per graph. A
forbidden-forest theorem asks its connectivity level before the forest:
kappa is one search per graph, shared with the cut walk, while a
P_m + kP_1-free clause that the counting bound of ``GraphFacts.is_free``
leaves open may walk every induced path on up to 7 vertices. So a graph
below the level never starts that walk.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from . import forbidden, graphs, invariants, matching
from .graphs import Graph, GraphError, decode_graph6

if TYPE_CHECKING:
    from . import families


class GraphFacts:
    """Lazily computed, cached invariants of one graph, the ``toughness``
    result among them.

    ``tough_at`` and ``toughness`` read one ``invariants.CutWalk`` of the
    graph, each question going on from where the last stopped. They pass
    ``alpha`` and ``kappa`` on each call, so a graph's alpha and kappa
    are searched for once, and the walk holds no reference to the facts.

    ``is_free`` answers P_m + kP_1 by counting when n or alpha is too
    small for the pattern, and otherwise from one induced-path sweep
    (``forbidden._sweep``), kept suspended between questions and advanced
    only until the question is decided. It sweeps paths up to the longest
    of the registry's forest theorems, or the longest m asked if that is
    longer, with the largest k asked as its cap; a question beyond either
    starts a new sweep. Other patterns go to ``forbidden.is_free``.
    """

    def __init__(self, graph: Graph, name: str = ""):
        self.graph = graph
        self.name = name or f"order-{graph.n}"
        self._top = _LONGEST_FOREST_PATH  # longest path the sweep walks
        self._cap = -1  # largest k the sweep decides; -1 before the first
        self._best: list = []  # the sweep's best[j], see forbidden._sweep
        self._sweep = None  # the suspended sweep, None once exhausted

    @property
    def order(self) -> int:
        return self.graph.n

    @cached_property
    def min_degree(self) -> int:
        return invariants.min_degree(self.graph)

    @cached_property
    def alpha(self) -> int:
        return invariants.independence_number(self.graph)[0]

    @cached_property
    def kappa(self) -> int:
        return invariants.connectivity(self.graph)

    @cached_property
    def _walk(self) -> invariants.CutWalk:
        return invariants.CutWalk(self.graph)

    @cached_property
    def toughness(self) -> invariants.ToughnessResult:
        return invariants.toughness(self.graph, alpha=lambda: self.alpha,
                                    kappa=lambda: self.kappa, walk=self._walk)

    def tough_at(self, t) -> bool:
        return invariants.is_t_tough(self.graph, t, alpha=lambda: self.alpha,
                                     kappa=lambda: self.kappa, walk=self._walk)

    def is_free(self, pattern: forbidden.ForestPattern) -> bool:
        """Whether the graph has no induced copy of ``pattern``.

        P_m + kP_1 is settled by counting first. An induced copy has
        m + k vertices, and it holds ceil(m/2) + k pairwise non-adjacent
        ones: every other vertex of the P_m, from an end, and the k
        isolated vertices, which see no vertex of the path. So n < m + k
        or alpha(G) < ceil(m/2) + k proves the graph free, and then no
        sweep is started or advanced. Otherwise the sweep decides.
        """
        if len(pattern.paths) != 1:
            return forbidden.is_free(self.graph, pattern)
        (m,), k = pattern
        if self.order < m + k or self.alpha < (m + 1) // 2 + k:
            return True
        if m > self._top or k > self._cap:
            self._top = max(self._top, m)
            self._cap = max(self._cap, k)
            self._best = [-1] * (self._top + 1)
            self._sweep = forbidden._sweep(self.graph, self._top, self._cap,
                                           self._best)
        best = self._best
        if best[m] < k and self._sweep is not None:
            for _ in self._sweep:
                if best[m] >= k:
                    break
            else:
                self._sweep = None
        return best[m] < k

    @cached_property
    def has_two_factor(self) -> bool:
        return matching.find_two_factor(self.graph).exists


class TheoremSpec(NamedTuple):
    theorem_id: str
    params: dict
    # ordered (clause name, predicate over GraphFacts)
    clauses: tuple

    def describe(self) -> str:
        if not self.params:
            return self.theorem_id
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.theorem_id}[{inner}]"


# theorem id -> each parameter it takes and the kind it is read as, in the
# order they are read
_THEOREM_PARAMS = {
    "THM1i": {"t": Fraction}, "THM1ii": {"t": Fraction},
    "THM2": {"eps": Fraction}, "THM3i": {"k": int, "ell": int},
    "THM3ii": {"k": int}, "THM4i": {"k": int, "ell": int},
    "THM4ii": {"k": int}, "EJKS2": {}, "NIESSEN": {}, "FALSE1T": {},
}
THEOREM_IDS = tuple(_THEOREM_PARAMS)

# (id, ell) -> (m, level, tau): the hypotheses are P_m + kP_1-free,
# (k + level)-connected, and tau-tough
_FOREST_THEOREMS = {
    ("THM3i", 1): (2, 0, Fraction(1)), ("THM3i", 2): (4, 1, Fraction(1)),
    ("THM3ii", None): (3, 1, Fraction(1)),
    ("THM4i", 2): (5, 1, Fraction(3, 2)), ("THM4i", 3): (7, 2, Fraction(3, 2)),
    ("THM4ii", None): (6, 2, Fraction(3, 2)),
}
_LONGEST_FOREST_PATH = max(m for m, _, _ in _FOREST_THEOREMS.values())


def _param(params: dict, key: str, theorem_id: str, kind):
    """params[key] as an int, or as a Fraction for kind=Fraction."""
    if key not in params:
        raise GraphError(f"{theorem_id} requires parameter {key!r}")
    value = params[key]
    try:
        if kind is int and type(value) is not int:  # a float, Fraction, bool
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # inf, nan
        raise GraphError(f"{theorem_id} takes a finite {kind.__name__} "
                         f"{key}, not {value!r}") from exc


def make_theorem(theorem_id: str, **params) -> TheoremSpec:
    kinds = _THEOREM_PARAMS.get(theorem_id)
    if kinds is None:
        raise GraphError(f"unknown theorem id {theorem_id!r}")
    stray = sorted(set(params) - set(kinds))
    if stray:
        raise GraphError(f"{theorem_id} does not take "
                         + ", ".join(map(repr, stray)))
    values = {}
    for key, kind in kinds.items():
        values[key] = _param(params, key, theorem_id, kind)
        # in the pass, so that a bad k is reported before a bad ell
        if key == "k" and values[key] < 1:
            raise GraphError("k must be a positive integer")
    shown = {key: str(values[key]) if kind is Fraction else values[key]
             for key, kind in kinds.items()}
    clauses = [("order >= 3", lambda f: f.order >= 3)]
    if theorem_id in ("THM1i", "THM1ii"):
        t = values["t"]
        low = 1 if theorem_id == "THM1i" else Fraction(3, 2)
        if not low <= t < 2:
            raise GraphError(
                f"{theorem_id} needs rational t with {low} <= t < 2")
        if theorem_id == "THM1i":
            name, threshold = "(2-t)n/(1+t)", (2 - t) / (1 + t)
        else:
            denom = 7 * t - 7 - t * t
            if denom <= 0:
                raise RuntimeError(
                    "7t - 7 - t^2 is positive throughout [3/2, 2)")
            name = "(3t-2-t^2)n/(7t-7-t^2)"
            threshold = (3 * t - 2 - t * t) / denom
        num, den = threshold.numerator, threshold.denominator
        clauses.append((f"delta >= {name}",
                        lambda f: den * f.min_degree >= num * f.order))
        tough = t
    elif theorem_id == "THM2":
        eps = values["eps"]
        if not 0 < eps <= 1:
            raise GraphError("THM2 needs rational eps with 0 < eps <= 1")
        num, den = eps.numerator, eps.denominator
        clauses.append(("delta >= eps*alpha",
                        lambda f: den * f.min_degree >= num * f.alpha))
        tough = 2 - eps
    elif "k" in kinds:  # a forbidden-forest theorem
        row = _FOREST_THEOREMS.get((theorem_id, values.get("ell")))
        if row is None:
            ells = [ell for tid, ell in _FOREST_THEOREMS if tid == theorem_id]
            raise GraphError(f"{theorem_id} needs ell in "
                             "{" + ", ".join(map(str, ells)) + "}")
        m, level, tough = row
        pattern = forbidden.ForestPattern((m,), values["k"])
        level += values["k"]
        clauses += [
            (f"order > {level}", lambda f: f.order > level),
            (f"kappa >= {level}", lambda f: f.kappa >= level),
            (f"{pattern}-free", lambda f: f.is_free(pattern)),
        ]
    elif theorem_id == "NIESSEN":
        return TheoremSpec(theorem_id, shown, (
            *clauses, ("delta > alpha", lambda f: f.min_degree > f.alpha)))
    else:  # EJKS2, and FALSE1T: a deliberately false hunt self-test
        tough = Fraction(2 if theorem_id == "EJKS2" else 1)
    clauses.append((f"tau >= {tough}", lambda f: f.tough_at(tough)))
    return TheoremSpec(theorem_id, shown, tuple(clauses))


class CheckReport(NamedTuple):
    graph_name: str
    clause_results: dict          # clause name -> bool, or None if skipped
    hypotheses_hold: bool
    conclusion_holds: bool | None  # None when vacuous
    verdict: str                   # "confirms" | "vacuous" | "COUNTEREXAMPLE"


def _failed_clause(spec: TheoremSpec, facts: GraphFacts) -> int:
    """The index of the first hypothesis clause of ``spec`` that fails on
    ``facts``, or -1 if every one holds."""
    for i, (_, predicate) in enumerate(spec.clauses):
        if not predicate(facts):
            return i
    return -1


def check_theorem(spec: TheoremSpec, facts) -> CheckReport:
    if isinstance(facts, Graph):
        facts = GraphFacts(facts)
    failed = _failed_clause(spec, facts)
    held = len(spec.clauses) if failed < 0 else failed
    clause_results = {name: i < held if i <= held else None
                      for i, (name, _) in enumerate(spec.clauses)}
    if failed >= 0:
        return CheckReport(facts.name, clause_results, False, None, "vacuous")
    conclusion = facts.has_two_factor
    verdict = "confirms" if conclusion else "COUNTEREXAMPLE"
    return CheckReport(facts.name, clause_results, True, conclusion, verdict)


class HuntReport(NamedTuple):
    theorem: str
    total: int = 0
    confirms: int = 0
    vacuous: int = 0
    malformed: int = 0
    counterexamples: list | tuple = ()  # hunt gives a sorted list

    @property
    def clean(self) -> bool:
        return not self.counterexamples


def hunt(corpus, spec: TheoremSpec) -> HuntReport:
    """Run a theorem over a corpus.

    ``corpus`` items may be graph6 strings, Graph values, or GraphFacts
    (reusable across hunts). Malformed graph6 lines are counted and skipped.
    """
    total = confirms = vacuous = malformed = 0
    counterexamples = []
    for item in corpus:
        total += 1
        if isinstance(item, str):
            try:
                facts = GraphFacts(decode_graph6(item), name=item.strip())
            except GraphError:
                malformed += 1
                continue
        else:
            facts = item if isinstance(item, GraphFacts) else GraphFacts(item)
        if _failed_clause(spec, facts) >= 0:
            vacuous += 1
        elif facts.has_two_factor:
            confirms += 1
        else:
            counterexamples.append(facts.name)
    return HuntReport(spec.describe(), total, confirms, vacuous, malformed,
                      sorted(counterexamples))


# Ratio inequality ------------------------------------------------------------------

def check_lemma_inequality(x, y, t: int, a) -> bool:
    """Exact check of (x + a_0 - 2 + t) / (y + sum a_i - t) <= x / y for
    x >= y > 0, t >= 1, all a_i >= 2, a_0 <= max of a_1..a_t."""
    x = Fraction(x)
    y = Fraction(y)
    a = list(a)
    if not (x >= y > 0):
        raise GraphError("need x >= y > 0")
    if t < 1 or len(a) != t + 1:
        raise GraphError("need t >= 1 and exactly t+1 values a_0..a_t")
    if any(ai < 2 for ai in a):
        raise GraphError("need all a_i >= 2")
    if a[0] > max(a[1:]):
        raise GraphError("need a_0 <= max of a_1..a_t")
    lhs = Fraction(x + a[0] - 2 + t) / (y + sum(a[1:]) - t)
    return lhs <= x / y


def run_lemma_inequality_trials(samples: int, seed: int = 0) -> int:
    """Random valid tuples; returns the number of violations (expected 0)."""
    if samples < 0:
        raise ValueError(f"negative sample count {samples}")
    rng = random.Random(seed)
    violations = 0
    for _ in range(samples):
        y = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        x = y + Fraction(rng.randint(0, 40), rng.randint(1, 40))
        t = rng.randint(1, 6)
        tail = [rng.randint(2, 12) for _ in range(t)]
        a0 = rng.randint(2, max(tail))
        if not check_lemma_inequality(x, y, t, [a0] + tail):
            violations += 1
    return violations


# Family verification ----------------------------------------------------------------

class ClaimResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


EXACT_TOUGHNESS_CAP = 18


def verify_family(spec: families.FamilySpec,
                  inst: families.FamilyInstance | None = None) -> list:
    """Check every verifiable claimed invariant of a family instance.

    ``inst`` is ``build(spec)`` when the caller already holds it; otherwise
    it is built here. Above ``EXACT_TOUGHNESS_CAP`` only the cut W checks
    the claimed toughness, an upper bound on tau, so a false claim passes:
    Ghat(2,2) claims 27/16, and its exact tau is 32/21.
    """
    from . import barriers, families
    if inst is None:
        inst = families.build(spec)
    elif inst.spec != spec:
        raise GraphError(f"instance of {inst.spec} given for {spec}")
    g = inst.graph
    facts = GraphFacts(g)
    exp = families.expected(spec)
    results: list[ClaimResult] = []

    def record(name, passed, detail=""):
        results.append(ClaimResult(name, bool(passed), detail))

    if exp.min_degree is not None:
        got = facts.min_degree
        record("min_degree", got == exp.min_degree, f"{got} vs {exp.min_degree}")
    if exp.alpha is not None:
        got = facts.alpha
        record("alpha", got == exp.alpha, f"{got} vs {exp.alpha}")
    if exp.toughness is not None:
        if exp.claimed_cut is not None:
            w, comp_count, ratio = exp.claimed_cut
            got = graphs.count_components(g, w)
            record("cut_component_count", got == comp_count,
                   f"{got} vs {comp_count}")
            got_ratio = Fraction(len(w), got)
            record("cut_ratio", got_ratio == ratio, f"{got_ratio} vs {ratio}")
        if g.n <= EXACT_TOUGHNESS_CAP:
            got = facts.toughness.value
            record("toughness_exact", got == exp.toughness,
                   f"{got} vs {exp.toughness}")
    if exp.claimed_barrier is not None:
        a, b, expected_def = exp.claimed_barrier
        got = barriers.deficiency(g, a, b)
        record("barrier_deficiency", got == expected_def,
               f"{got} vs {expected_def}")
        record("barrier_B_size", len(b) == 3 * (2 * spec.as_dict["n"] + 1))
        record("barrier_B_degrees",
               all(g.degree(v) == spec.as_dict["n"] + 2 for v in b))
    if exp.has_two_factor is not None:
        got = facts.has_two_factor
        record("two_factor_existence", got == exp.has_two_factor,
               f"{got} vs {exp.has_two_factor}")
    for pattern in exp.claimed_patterns:
        embedding = forbidden.find_induced(g, pattern)
        ok = embedding is not None and forbidden.verify_embedding(
            g, pattern, embedding)
        record(f"contains_{pattern}", ok)
    if exp.connectivity_at_least is not None:
        got = facts.kappa
        record("connectivity", got >= exp.connectivity_at_least,
               f"{got} >= {exp.connectivity_at_least}")
    if spec.family in ("Gprime", "Gstar"):
        record("connected", g.is_connected())
        size = 3 * (2 * spec.as_dict["n"] + 1)
        expected_order = 2 * size + size * (1 if spec.family == "Gprime" else 2)
        record("order", g.n == expected_order, f"{g.n} vs {expected_order}")
    return results
