"""The package's own checks must survive ``python -O``, which strips
``assert`` statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tough2f

SRC = Path(tough2f.__file__).parent


def test_src_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "use an explicit raise, not assert: " + ", ".join(found)


def raises_under_optimize(setup: str, call: str) -> bool:
    """Whether ``call`` raises CertificateError under ``python -O`` after
    ``setup`` has run, with ``tough2f.matching`` imported as ``m``."""
    script = (
        "import tough2f.matching as m\n"
        "from tough2f import CertificateError, build, cycle\n"
        "from tough2f.families import FamilySpec\n"
        f"{setup}\n"
        "try:\n"
        f"    {call}\n"
        "except CertificateError:\n"
        "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout == "raised\n"


def test_two_factor_check_fires_under_optimize():
    assert raises_under_optimize("m.verify_two_factor = lambda g, f: False",
                                 "m.find_two_factor(cycle(5))")


def test_grown_two_factor_check_fires_under_optimize():
    # K4's greedy F is a triangle, so the growth runs and its n edges end
    # the call on the host; these four meet vertex 0 three times
    assert raises_under_optimize(
        "from tough2f import complete\n"
        "m._grow = lambda g, f: [(0, 1), (0, 2), (0, 3), (1, 2)]",
        "m.find_two_factor(complete(4))")


def test_barrier_check_fires_under_optimize():
    # a derived pair that is no barrier: (empty, empty) has deficiency 0
    assert raises_under_optimize(
        "m._split_pair = lambda g, adj, mate, failed: (0, 0)",
        "m.find_two_factor(build(FamilySpec.parse('H:n=1')).graph, True)")


def test_witness_check_fires_under_optimize():
    # one more t-class unit in the decomposition breaks |W| = |A| + ell'
    # + sum 2t|C_2t+1|; the structure predicates do not read it
    assert raises_under_optimize(
        "import tough2f.barriers as b\n"
        "real = b.decompose\n"
        "def decompose(g, a, bb):\n"
        "    dec = real(g, a, bb)\n"
        "    return dec._replace(big_odd_weight=dec.big_odd_weight + 1)\n"
        "b.decompose = decompose\n"
        "g = build(FamilySpec.parse('H:n=1')).graph",
        "b.extract_witness(g, b.find_biased_barrier(g))")
