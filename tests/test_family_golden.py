"""The family constructions, pinned vertex for vertex.

For each spec below, ``family_golden.json`` holds the graph6 line of the
built graph, its sorted named vertex sets and its matching. Any change to a
construction's vertex numbering, edges, sets or matching fails here. After a
deliberate change to a construction, record them again with

    PYTHONPATH=src python tests/test_family_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from tough2f.families import FamilySpec, build
from tough2f.graphs import encode_graph6

GOLDEN = Path(__file__).with_name("family_golden.json")

SPECS = (
    "H:n=1", "H:n=2", "H:n=3", "H:n=4",
    "R:m=1,a=1,b=1,c=1", "R:m=1,a=2,b=1,c=3", "R:m=2,a=1,b=2,c=1",
    "R:m=2,a=2,b=1,c=3", "R:m=1,a=3,b=2,c=2",
    "Gprime:n=0,k=1", "Gprime:n=1,k=1", "Gprime:n=2,k=1", "Gprime:n=2,k=2",
    "G:n=1,k=1", "G:n=2,k=1", "G:n=2,k=2",
    "Gstar:n=1,k=1", "Gstar:n=2,k=1", "Gstar:n=2,k=2",
    "Ghat:n=1,k=1", "Ghat:n=2,k=1", "Ghat:n=2,k=2",
)


def record(text: str) -> dict:
    inst = build(FamilySpec.parse(text))
    return {
        "graph6": encode_graph6(inst.graph),
        "sets": {name: sorted(vs) for name, vs in sorted(inst.sets.items())},
        "matching": [list(pair) for pair in inst.matching],
        "spec": str(inst.spec),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_spec(golden):
    assert sorted(golden) == sorted(SPECS)


@pytest.mark.parametrize("text", SPECS)
def test_family_golden(text, golden):
    spec = FamilySpec.parse(text)
    assert str(build(spec).spec) == str(spec)
    assert record(text) == golden[text]


if __name__ == "__main__":
    recorded = {text: record(text) for text in SPECS}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
