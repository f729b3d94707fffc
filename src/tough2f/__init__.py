"""Exact toughness, Tutte barriers and 2-factor verification for small graphs.

The names below are resolved on first use (PEP 562): ``tough2f.hunt``
imports ``tough2f.theorems`` when it is first read, so a caller loads only
the modules it uses. The names are not cached here, so each read returns
the submodule's current attribute.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "graphs": (
        "CertificateError", "Graph", "GraphError", "add_matching",
        "complement", "complete", "components", "copies", "cycle",
        "decode_graph6", "delete", "disjoint_union", "edgeless",
        "encode_graph6", "induced", "join", "path", "read_edge_list",
        "subdivide", "write_edge_list"),
    "invariants": (
        "ToughnessResult", "connectivity", "independence_number",
        "is_t_tough", "min_degree", "toughness"),
    "matching": (
        "Matching", "TwoFactor", "TwoFactorResult", "brute_force_two_factor",
        "build_gadget", "find_two_factor", "max_matching",
        "verify_two_factor"),
    "barriers": (
        "Barrier", "BarrierDecomposition", "ToughnessWitness",
        "check_biased_properties", "decompose", "deficiency",
        "extract_witness", "find_barrier", "find_biased_barrier"),
    "forbidden": ("ForestPattern", "find_induced", "is_free", "pattern_graph"),
    "families": ("FamilySpec", "build", "expected", "remark1b_gap_check"),
    "rationals": ("INF", "Rational"),
    "theorems": (
        "GraphFacts", "check_lemma_inequality", "check_theorem", "hunt",
        "make_theorem", "run_lemma_inequality_trials", "verify_family"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

# the re-exported names and the submodules that define them
__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
