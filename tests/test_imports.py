"""What importing the package loads, and the names it re-exports."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import tough2f
from tough2f import INF, ForestPattern, complete, invariants, toughness
from tough2f.theorems import HuntReport

SRC = Path(__file__).resolve().parent.parent / "src"

# submodule -> the names the package re-exports from it
EXPORTS = {
    "graphs": ["CertificateError", "Graph", "GraphError", "add_matching",
               "complement", "complete", "components", "copies", "cycle",
               "decode_graph6", "delete", "disjoint_union", "edgeless",
               "encode_graph6", "induced", "join", "path", "read_edge_list",
               "subdivide", "write_edge_list"],
    "invariants": ["ToughnessResult", "connectivity", "independence_number",
                   "is_t_tough", "min_degree", "toughness"],
    "matching": ["Matching", "TwoFactor", "TwoFactorResult",
                 "brute_force_two_factor", "build_gadget", "find_two_factor",
                 "max_matching", "verify_two_factor"],
    "barriers": ["Barrier", "BarrierDecomposition", "ToughnessWitness",
                 "check_biased_properties", "decompose", "deficiency",
                 "extract_witness", "find_barrier", "find_biased_barrier"],
    "forbidden": ["ForestPattern", "find_induced", "is_free",
                  "pattern_graph"],
    "families": ["FamilySpec", "build", "expected", "remark1b_gap_check"],
    "rationals": ["INF", "Rational"],
    "theorems": ["GraphFacts", "check_lemma_inequality", "check_theorem",
                 "hunt", "make_theorem", "run_lemma_inequality_trials",
                 "verify_family"],
}


def modules_added_by(statement: str) -> set:
    """The modules a fresh interpreter holds after ``statement`` that it
    did not hold before it."""
    code = ("import sys\nbefore = set(sys.modules)\n" + statement
            + "\nprint(*sorted(set(sys.modules) - before), sep='\\n')")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_cli_import_leaves_out_unused_modules():
    added = modules_added_by("import tough2f.cli")
    assert {"tough2f.cli", "tough2f.theorems", "tough2f.matching"} <= added
    assert not added & {"tough2f.barriers", "tough2f.families",
                        "dataclasses"}


def test_package_import_loads_no_submodule():
    added = modules_added_by("import tough2f")
    assert "tough2f" in added
    assert not {m for m in added if m.startswith("tough2f.")}


def test_public_names():
    assert len([n for names in EXPORTS.values() for n in names]) == 60
    assert sorted(tough2f.__all__) == sorted(
        [*EXPORTS, *(n for names in EXPORTS.values() for n in names)])
    assert set(tough2f.__all__) <= set(dir(tough2f))
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"tough2f.{module}")
        assert getattr(tough2f, module) is sub
        for name in names:
            assert getattr(tough2f, name) is getattr(sub, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from tough2f import *", namespace)
    assert set(tough2f.__all__) <= set(namespace)


def test_package_names_read_the_submodule(monkeypatch):
    def replacement(g):
        return "replaced"
    monkeypatch.setattr(invariants, "toughness", replacement)
    assert tough2f.toughness is replacement
    monkeypatch.undo()
    assert tough2f.toughness is invariants.toughness


def test_unknown_name_is_attribute_error():
    assert not hasattr(tough2f, "no_such_name")


def test_results_are_tuples():
    assert toughness(complete(3)) == (INF, None)
    value, witness = toughness(tough2f.cycle(4))
    assert value == Fraction(1) and len(witness) == 2
    assert HuntReport("T") == ("T", 0, 0, 0, 0, ())
    assert HuntReport("T").clean
    pattern = ForestPattern(paths=[2, 5], isolated=1)
    assert pattern == ((5, 2), 1) and pattern.paths == (5, 2)
    assert hash(pattern) == hash(ForestPattern((5, 2), 1))
