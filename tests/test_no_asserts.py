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


def test_two_factor_check_fires_under_optimize():
    script = (
        "import tough2f.matching as m\n"
        "from tough2f import CertificateError, cycle\n"
        "m.verify_two_factor = lambda g, f: False\n"
        "try:\n"
        "    m.find_two_factor(cycle(5))\n"
        "except CertificateError:\n"
        "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"
