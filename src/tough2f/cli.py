"""Command-line surface.

Subcommands operate on graph6 lines (default) or the edge-list text format
and emit one JSON object per graph on stdout. Exit codes: 0 success, 1 a
counterexample or claim violation was found, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# the handlers import the modules they use, so that a run loads only those
from . import graphs, theorems
from .graphs import GraphError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graphs(source: str, fmt: str):
    text = _read_text(source)
    if fmt == "edges":
        return [("edges", graphs.read_edge_list(text))]
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            out.append((line, graphs.decode_graph6(line)))
    if not out:
        raise GraphError("no graphs in input")
    return out


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _cmd_invariants(args) -> int:
    for name, g in _load_graphs(args.input, args.format):
        if g.n == 0:
            raise GraphError("invariants of the order-0 graph are undefined")
        facts = theorems.GraphFacts(g)
        tough = facts.toughness
        _emit({
            "graph": name,
            "order": g.n,
            "tau": str(tough.value),
            "tau_witness": None if tough.witness is None else sorted(tough.witness),
            "alpha": facts.alpha,
            "kappa": facts.kappa,
            "delta": facts.min_degree,
        })
    return EXIT_OK


def _cmd_two_factor(args) -> int:
    from . import matching
    for name, g in _load_graphs(args.input, args.format):
        result = matching.find_two_factor(g, certify=True)
        payload = {"graph": name, "has_two_factor": result.exists}
        if result.factor is not None:
            payload["factor"] = sorted(map(list, result.factor.edges))
        if result.barrier is not None:
            payload["barrier"] = _barrier_payload(result.barrier)
        _emit(payload)
    return EXIT_OK


def _barrier_payload(b) -> dict:
    return {"A": sorted(b.a), "B": sorted(b.b), "deficiency": b.deficiency}


def _cmd_barrier(args) -> int:
    from . import barriers
    for name, g in _load_graphs(args.input, args.format):
        finder = barriers.find_biased_barrier if args.biased else barriers.find_barrier
        b = finder(g)
        payload = {"graph": name, "barrier": None}
        if b is not None:
            payload["barrier"] = _barrier_payload(b)
            dec = barriers.decompose(g, b.a, b.b)
            payload["components"] = [
                {"vertices": list(info.vertices), "edges_to_B": info.edges_to_b,
                 "odd": info.odd}
                for info in dec.components]
            payload["o_AB"] = dec.odd_count
            payload["per_u"] = {
                str(u): {"o": pv.o, "h": pv.h} for u, pv in dec.per_u.items()}
            if args.biased:
                report = barriers._biased_report(g, b, dec)
                props = report._asdict()
                del props["one_tough_applicable"]
                payload["biased_properties"] = props
        _emit(payload)
    return EXIT_OK


def _cmd_witness(args) -> int:
    from . import barriers
    for name, g in _load_graphs(args.input, args.format):
        b = barriers.find_biased_barrier(g)
        if b is None:
            _emit({"graph": name, "witness": None,
                   "reason": "graph has a 2-factor (no barrier)"})
            continue
        try:
            witness = barriers.extract_witness(g, b)
        except GraphError as exc:  # the barrier has no usable structure
            _emit({"graph": name, "barrier": _barrier_payload(b),
                   "witness": None, "reason": str(exc)})
            continue
        _emit({
            "graph": name,
            "barrier": _barrier_payload(b),
            "witness": {
                "W": sorted(witness.w),
                "ell": witness.ell,
                "ell_prime": witness.ell_prime,
                "h_sum": witness.h_sum,
                "components": witness.component_count,
                "ratio": str(witness.ratio),
            },
        })
    return EXIT_OK


def _cmd_forbidden(args) -> int:
    from . import forbidden
    pattern = forbidden.ForestPattern.parse(args.pattern)
    for name, g in _load_graphs(args.input, args.format):
        embedding = forbidden.find_induced(g, pattern)
        _emit({
            "graph": name,
            "pattern": str(pattern),
            "free": embedding is None,
            "embedding": None if embedding is None else list(embedding),
        })
    return EXIT_OK


def _cmd_family(args) -> int:
    from . import families
    spec = families.FamilySpec.parse(args.spec)
    inst = families.build(spec)
    exp = families.expected(spec)
    payload = {
        "family": str(spec),
        "order": inst.graph.n,
        "size": len(inst.graph.edges),
        "sets": {k: sorted(v) for k, v in inst.sets.items()},
        "matching": sorted(map(list, inst.matching)),
        "expected": {
            "toughness": None if exp.toughness is None else str(exp.toughness),
            "alpha": exp.alpha,
            "min_degree": exp.min_degree,
            "has_two_factor": exp.has_two_factor,
            "patterns": [str(p) for p in exp.claimed_patterns],
            "connectivity_at_least": exp.connectivity_at_least,
        },
    }
    if args.emit == "g6":
        payload["graph6"] = graphs.encode_graph6(inst.graph)
    failed = False
    if args.verify:
        claims = theorems.verify_family(spec, inst)
        payload["claims"] = [c._asdict() for c in claims]
        failed = any(not c.passed for c in claims)
    _emit(payload)
    return EXIT_VIOLATION if failed else EXIT_OK


def _parse_fraction(text: str) -> Fraction:
    """"p/q" or a plain integer; each part is read by int()."""
    num, slash, den = text.partition("/")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)


def _theorem_params(args) -> dict:
    params = {}
    for key in ("eps", "t", "k", "ell"):
        value = getattr(args, key)
        if isinstance(value, str):  # --eps and --t; --k and --ell are ints
            value = _parse_fraction(value)
        if value is not None:
            params[key] = value
    return params


def _cmd_hunt(args) -> int:
    spec = theorems.make_theorem(args.theorem, **_theorem_params(args))
    lines = [line.strip() for line in _read_text(args.corpus).splitlines()
             if line.strip()]
    report = theorems.hunt(lines, spec)
    _emit({
        "theorem": report.theorem,
        "total": report.total,
        "confirms": report.confirms,
        "vacuous": report.vacuous,
        "malformed": report.malformed,
        "counterexamples": report.counterexamples,
    })
    return EXIT_OK if report.clean else EXIT_VIOLATION


def _cmd_lemma4(args) -> int:
    violations = theorems.run_lemma_inequality_trials(args.samples, args.seed)
    _emit({"samples": args.samples, "violations": violations})
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _add_input(parser):
    parser.add_argument("input", help="input file, or - for stdin")
    parser.add_argument("--format", choices=("g6", "edges"), default="g6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tough2f",
        description="Exact toughness, barriers and 2-factor verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="tau, alpha, kappa, delta per graph")
    _add_input(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("two-factor", help="2-factor existence + certificate")
    _add_input(p)
    p.set_defaults(func=_cmd_two_factor)

    p = sub.add_parser("barrier", help="Tutte barrier report")
    _add_input(p)
    p.add_argument("--biased", action="store_true",
                   help="search for the biased barrier and check its structure")
    p.set_defaults(func=_cmd_barrier)

    p = sub.add_parser("witness", help="cut-set witness from the biased barrier")
    _add_input(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("forbidden", help="induced linear-forest containment")
    _add_input(p)
    p.add_argument("--pattern", required=True, help='e.g. "P5+2P1"')
    p.set_defaults(func=_cmd_forbidden)

    p = sub.add_parser("family", help="build/verify a named construction")
    p.add_argument("spec", help='e.g. "H:n=2" or "Ghat:n=1,k=1"')
    p.add_argument("--emit", choices=("g6",), default=None)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("hunt", help="counterexample hunt over a graph6 corpus")
    p.add_argument("corpus", help="graph6 file, or - for stdin")
    p.add_argument("--theorem", required=True, choices=theorems.THEOREM_IDS)
    p.add_argument("--eps", help="rational, e.g. 1/2")
    p.add_argument("--t", help="rational, e.g. 3/2")
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("lemma4", help="random trials of the ratio inequality")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lemma4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
