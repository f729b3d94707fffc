"""Theorem registry, corpus hunting, the ratio inequality property check, and
whole-family verification.

Each registered statement is a list of hypothesis clauses over exact graph
invariants plus the fixed conclusion "has a 2-factor". Clauses are ordered
cheapest first and evaluation short-circuits on the first failure; a graph
is a counterexample exactly when every hypothesis holds and the conclusion
fails. The registry also carries a deliberately false statement (1-tough
implies a 2-factor) used as a harness self-test.
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
    """Lazily computed, cached invariants of one graph.

    Monotone questions are answered from earlier answers where those decide
    them. tau is kept as an interval: a threshold that passed bounds it from
    below, one that failed bounds it strictly from above, and ``tough_at``
    runs ``invariants.is_t_tough`` only for a threshold strictly inside. For
    ``is_free``, a host that contains P contains every induced sub-pattern
    of P, and a host free of Q is free of every pattern that contains Q
    (``forbidden.contains``); only an undecided pattern is searched for.
    """

    def __init__(self, graph: Graph, name: str = ""):
        self.graph = graph
        self.name = name or f"order-{graph.n}"
        self._tau_lo = None  # largest threshold asked with tau >= it
        self._tau_hi = None  # smallest threshold asked with tau < it
        self._free: dict = {}  # pattern -> whether the host is free of it

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

    def tough_at(self, t) -> bool:
        if t > 0:  # is_t_tough rejects any other threshold
            if self._tau_lo is not None and t <= self._tau_lo:
                return True
            if self._tau_hi is not None and t >= self._tau_hi:
                return False
        tough = invariants.is_t_tough(self.graph, t)
        if tough:
            self._tau_lo = t
        else:
            self._tau_hi = t
        return tough

    def is_free(self, pattern: forbidden.ForestPattern) -> bool:
        free = self._free.get(pattern)
        if free is not None:
            return free
        for known, known_free in self._free.items():
            if known_free and forbidden.contains(pattern, known):
                free = True
                break
            if not known_free and forbidden.contains(known, pattern):
                free = False
                break
        else:
            free = forbidden.is_free(self.graph, pattern)
        self._free[pattern] = free
        return free

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


# theorem id -> the parameters it takes
_THEOREM_PARAMS = {
    "THM1i": ("t",), "THM1ii": ("t",), "THM2": ("eps",),
    "THM3i": ("ell", "k"), "THM3ii": ("k",), "THM4i": ("ell", "k"),
    "THM4ii": ("k",), "EJKS2": (), "NIESSEN": (), "FALSE1T": (),
}
THEOREM_IDS = tuple(_THEOREM_PARAMS)


def _connected_clauses(level: int):
    """Clauses for "level-connected": more than `level` vertices and kappa."""
    return (
        (f"order > {level}", lambda f, lv=level: f.order > lv),
        (f"kappa >= {level}", lambda f, lv=level: f.kappa >= lv),
    )


def _param(params: dict, key: str, theorem_id: str):
    if key not in params:
        raise GraphError(f"{theorem_id} requires parameter {key!r}")
    return params[key]


def make_theorem(theorem_id: str, **params) -> TheoremSpec:
    # an unknown id has no stray parameters here and is rejected below
    stray = sorted(set(params) - set(_THEOREM_PARAMS.get(theorem_id, params)))
    if stray:
        raise GraphError(f"{theorem_id} does not take "
                         + ", ".join(map(repr, stray)))
    at_least_three = ("order >= 3", lambda f: f.order >= 3)
    if theorem_id == "THM1i":
        t = Fraction(_param(params, "t", theorem_id))
        if not 1 <= t < 2:
            raise GraphError("THM1i needs rational t with 1 <= t < 2")
        clauses = (
            at_least_three,
            ("delta >= (2-t)n/(1+t)",
             lambda f: f.min_degree >= Fraction(2 - t, 1 + t) * f.order),
            (f"tau >= {t}", lambda f: f.tough_at(t)),
        )
        return TheoremSpec(theorem_id, {"t": str(t)}, clauses)
    if theorem_id == "THM1ii":
        t = Fraction(_param(params, "t", theorem_id))
        if not Fraction(3, 2) <= t < 2:
            raise GraphError("THM1ii needs rational t with 3/2 <= t < 2")
        denom = 7 * t - 7 - t * t
        if denom <= 0:
            raise RuntimeError("7t - 7 - t^2 is positive throughout [3/2, 2)")
        threshold = Fraction(3 * t - 2 - t * t, 1) / denom
        clauses = (
            at_least_three,
            ("delta >= (3t-2-t^2)n/(7t-7-t^2)",
             lambda f: f.min_degree >= threshold * f.order),
            (f"tau >= {t}", lambda f: f.tough_at(t)),
        )
        return TheoremSpec(theorem_id, {"t": str(t)}, clauses)
    if theorem_id == "THM2":
        eps = Fraction(_param(params, "eps", theorem_id))
        if not 0 < eps <= 1:
            raise GraphError("THM2 needs rational eps with 0 < eps <= 1")
        clauses = (
            at_least_three,
            ("delta >= eps*alpha", lambda f: f.min_degree >= eps * f.alpha),
            (f"tau >= {2 - eps}", lambda f: f.tough_at(2 - eps)),
        )
        return TheoremSpec(theorem_id, {"eps": str(eps)}, clauses)
    if theorem_id in ("THM3i", "THM3ii", "THM4i", "THM4ii"):
        k = int(_param(params, "k", theorem_id))
        if k < 1:
            raise GraphError("k must be a positive integer")
        if theorem_id == "THM3i":
            ell = int(_param(params, "ell", theorem_id))
            if ell not in (1, 2):
                raise GraphError("THM3i needs ell in {1, 2}")
            pattern = forbidden.ForestPattern((2 * ell,), k)
            level, tough = k + ell - 1, Fraction(1)
            shown = {"ell": ell, "k": k}
        elif theorem_id == "THM3ii":
            pattern = forbidden.ForestPattern((3,), k)
            level, tough = k + 1, Fraction(1)
            shown = {"k": k}
        elif theorem_id == "THM4i":
            ell = int(_param(params, "ell", theorem_id))
            if ell not in (2, 3):
                raise GraphError("THM4i needs ell in {2, 3}")
            pattern = forbidden.ForestPattern((2 * ell + 1,), k)
            level, tough = k + ell - 1, Fraction(3, 2)
            shown = {"ell": ell, "k": k}
        else:
            pattern = forbidden.ForestPattern((6,), k)
            level, tough = k + 2, Fraction(3, 2)
            shown = {"k": k}
        clauses = (
            at_least_three,
            (f"{pattern}-free", lambda f, pat=pattern: f.is_free(pat)),
            *_connected_clauses(level),
            (f"tau >= {tough}", lambda f, t=tough: f.tough_at(t)),
        )
        return TheoremSpec(theorem_id, shown, clauses)
    if theorem_id == "EJKS2":
        return TheoremSpec(theorem_id, {}, (
            at_least_three,
            ("tau >= 2", lambda f: f.tough_at(Fraction(2))),
        ))
    if theorem_id == "NIESSEN":
        return TheoremSpec(theorem_id, {}, (
            at_least_three,
            ("delta > alpha", lambda f: f.min_degree > f.alpha),
        ))
    if theorem_id == "FALSE1T":
        # deliberately false proposition, kept as a hunt self-test
        return TheoremSpec(theorem_id, {}, (
            at_least_three,
            ("tau >= 1", lambda f: f.tough_at(Fraction(1))),
        ))
    raise GraphError(f"unknown theorem id {theorem_id!r}")


class CheckReport(NamedTuple):
    graph_name: str
    clause_results: dict          # clause name -> bool, or None if skipped
    hypotheses_hold: bool
    conclusion_holds: bool | None  # None when vacuous
    verdict: str                   # "confirms" | "vacuous" | "COUNTEREXAMPLE"


def check_theorem(spec: TheoremSpec, facts) -> CheckReport:
    if isinstance(facts, Graph):
        facts = GraphFacts(facts)
    clause_results: dict = {name: None for name, _ in spec.clauses}
    hypotheses_hold = True
    for name, predicate in spec.clauses:
        ok = bool(predicate(facts))
        clause_results[name] = ok
        if not ok:
            hypotheses_hold = False
            break
    if not hypotheses_hold:
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
        verdict = check_theorem(spec, facts).verdict
        if verdict == "confirms":
            confirms += 1
        elif verdict == "vacuous":
            vacuous += 1
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
    it is built here. Claims out of exact reach (toughness of the
    order >= 28 constructions) are verified one-sidedly through the
    distinguished cut W.
    """
    from . import barriers, families
    if inst is None:
        inst = families.build(spec)
    elif inst.spec != spec:
        raise GraphError(f"instance of {inst.spec} given for {spec}")
    g = inst.graph
    exp = families.expected(spec)
    results: list[ClaimResult] = []

    def record(name, passed, detail=""):
        results.append(ClaimResult(name, bool(passed), detail))

    if exp.min_degree is not None:
        got = invariants.min_degree(g)
        record("min_degree", got == exp.min_degree, f"{got} vs {exp.min_degree}")
    if exp.alpha is not None:
        got = invariants.independence_number(g)[0]
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
            got = invariants.toughness(g).value
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
        got = matching.find_two_factor(g).exists
        record("two_factor_existence", got == exp.has_two_factor,
               f"{got} vs {exp.has_two_factor}")
    for pattern in exp.claimed_patterns:
        embedding = forbidden.find_induced(g, pattern)
        ok = embedding is not None and forbidden.verify_embedding(
            g, pattern, embedding)
        record(f"contains_{pattern}", ok)
    if exp.connectivity_at_least is not None:
        got = invariants.connectivity(g)
        record("connectivity", got >= exp.connectivity_at_least,
               f"{got} >= {exp.connectivity_at_least}")
    if spec.family in ("Gprime", "Gstar"):
        record("connected", g.is_connected())
        size = 3 * (2 * spec.as_dict["n"] + 1)
        expected_order = 2 * size + size * (1 if spec.family == "Gprime" else 2)
        record("order", g.n == expected_order, f"{g.n} vs {expected_order}")
    return results
