"""The exact kernels' outputs, pinned edge for edge.

``kernel_golden.json`` holds, for seeded random graphs of orders 6-14 and
for family instances:

- ``two_factor``: whether ``find_two_factor`` finds a 2-factor, and its
  sorted edges;
- ``matching`` and ``gadget_matching``: the sorted matched pairs of
  ``max_matching`` on the graph's neighbour lists and on its Tutte gadget
  (when every degree is at least 2), which pin the blossom search's mate
  array;
- ``alpha``: ``independence_number``'s value and sorted witness;
- ``gadgets``: for seeded random hosts of orders 10-24, the sha256 of the
  sorted matched pairs of ``max_matching`` on the host's gadget (orders up to a
  few hundred, where blossoms nest and a changed contraction order shows
  up as a different maximum matching of the same size).

A faster kernel must reproduce all of them. After a deliberate change to
what a kernel returns, record them again with

    PYTHONPATH=src python tests/test_kernel_golden.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from tough2f.families import FamilySpec, build
from tough2f.graphs import decode_graph6, encode_graph6
from tough2f.invariants import independence_number
from tough2f.matching import build_gadget, find_two_factor, max_matching

from conftest import mate_pairs, neighbour_lists, random_graph

GOLDEN = Path(__file__).with_name("kernel_golden.json")

RANDOM_SEED = 47
RANDOM_GRAPHS = 90  # orders 6..14, ten of each
GADGET_SEED = 53
GADGET_HOSTS = 300

# (spec, pin alpha too); alpha on Ghat(2,k) is left out for its running time
FAMILIES = (
    ("H:n=1", True), ("H:n=2", True), ("H:n=3", True),
    ("R:m=2,a=2,b=1,c=3", True), ("G:n=1,k=1", True),
    ("Gstar:n=1,k=1", True), ("Ghat:n=1,k=1", True), ("Ghat:n=2,k=2", False),
)


def random_graphs() -> list:
    rng = random.Random(RANDOM_SEED)
    return [random_graph(rng, 6 + i % 9, rng.uniform(0.2, 0.8))
            for i in range(RANDOM_GRAPHS)]


def gadget_hosts() -> list:
    rng = random.Random(GADGET_SEED)
    hosts = []
    while len(hosts) < GADGET_HOSTS:
        g = random_graph(rng, rng.randint(10, 24), rng.uniform(0.1, 0.45))
        if all(g.degree(v) >= 2 for v in range(g.n)):
            hosts.append(g)
    return hosts


def gadget_digest(g) -> str:
    edges = mate_pairs(max_matching(build_gadget(g).adj))
    return hashlib.sha256(repr(edges).encode()).hexdigest()


def pairs(edges) -> list:
    return [list(e) for e in sorted(edges)]


def record(g, alpha: bool = True) -> dict:
    result = find_two_factor(g)
    out = {
        "two_factor": [result.exists,
                       pairs(result.factor.edges) if result.exists else None],
        "matching": pairs(mate_pairs(max_matching(neighbour_lists(g)))),
        "gadget_matching": None,
    }
    if all(g.degree(v) >= 2 for v in range(g.n)):
        out["gadget_matching"] = pairs(
            mate_pairs(max_matching(build_gadget(g).adj)))
    if alpha:
        value, witness = independence_number(g)
        out["alpha"] = [value, sorted(witness)]
    return out


def record_all() -> dict:
    out = {"random": [dict(graph6=encode_graph6(g), **record(g))
                      for g in random_graphs()]}
    out["families"] = {text: record(build(FamilySpec.parse(text)).graph, alpha)
                       for text, alpha in FAMILIES}
    out["gadgets"] = [[encode_graph6(g), gadget_digest(g)]
                      for g in gadget_hosts()]
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_input(golden):
    assert [entry["graph6"] for entry in golden["random"]] == [
        encode_graph6(g) for g in random_graphs()]
    assert sorted(golden["families"]) == sorted(text for text, _ in FAMILIES)
    assert [host for host, _ in golden["gadgets"]] == [
        encode_graph6(g) for g in gadget_hosts()]


@pytest.mark.parametrize("index", range(RANDOM_GRAPHS))
def test_random_graph_kernels(index, golden):
    entry = dict(golden["random"][index])
    g = decode_graph6(entry.pop("graph6"))
    assert record(g) == entry


@pytest.mark.parametrize("text,alpha", FAMILIES)
def test_family_kernels(text, alpha, golden):
    g = build(FamilySpec.parse(text)).graph
    assert record(g, alpha) == golden["families"][text]


def test_gadget_matchings(golden):
    changed = [host for host, digest in golden["gadgets"]
               if gadget_digest(decode_graph6(host)) != digest]
    assert changed == []


def dump(data: dict) -> str:
    """One entry per line, so a changed answer shows as one changed line."""
    def lines(entries):
        return ",\n".join(f" {entry}" for entry in entries)
    families = lines(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                     for k, v in sorted(data["families"].items()))
    gadgets = lines(json.dumps(e) for e in data["gadgets"])
    graphs = lines(json.dumps(e, sort_keys=True) for e in data["random"])
    return (f'{{"families": {{\n{families}\n}}, "gadgets": [\n{gadgets}\n'
            f'], "random": [\n{graphs}\n]}}\n')


if __name__ == "__main__":
    GOLDEN.write_text(dump(record_all()))
    sys.exit(0)
