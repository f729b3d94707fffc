"""End-to-end command-line behaviour: JSON payloads and exit codes."""

import json

import pytest

from tough2f import cycle, encode_graph6, invariants, path, write_edge_list
from tough2f.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VIOLATION, main
from tough2f.families import FamilySpec, build
from tough2f.graphs import Graph


def star4_g6():
    return encode_graph6(Graph(4, [(0, v) for v in (1, 2, 3)]))


def h1_g6():
    return encode_graph6(build(FamilySpec.parse("H:n=1")).graph)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    payloads = [json.loads(line) for line in out.splitlines() if line]
    return code, payloads


def write(tmp_path, text, name="input.g6"):
    target = tmp_path / name
    target.write_text(text + "\n")
    return str(target)


def test_invariants(tmp_path, capsys):
    source = write(tmp_path, encode_graph6(cycle(5)))
    code, payloads = run(capsys, ["invariants", source])
    assert code == EXIT_OK
    (payload,) = payloads
    assert payload["order"] == 5
    assert payload["tau"] == "1"
    assert payload["alpha"] == 2
    assert payload["kappa"] == 2
    assert payload["delta"] == 2
    assert len(payload["tau_witness"]) == 2


def test_invariants_rejects_order_zero_before_computing(
        tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("toughness", "independence_number", "connectivity"):
        def counted(g, real=getattr(invariants, name), name=name):
            calls.append(name)
            return real(g)
        monkeypatch.setattr(invariants, name, counted)
    source = write(tmp_path, "?")  # graph6 of the order-0 graph
    assert main(["invariants", source]) == EXIT_INPUT_ERROR
    assert calls == []
    assert capsys.readouterr().out == ""


def test_invariants_multiple_lines(tmp_path, capsys):
    source = write(tmp_path,
                   encode_graph6(cycle(5)) + "\n" + encode_graph6(path(3)))
    code, payloads = run(capsys, ["invariants", source])
    assert code == EXIT_OK and len(payloads) == 2
    assert payloads[1]["tau"] == "1/2"


def test_invariants_edge_list_format(tmp_path, capsys):
    source = write(tmp_path, write_edge_list(cycle(4)).strip(), "input.txt")
    code, payloads = run(capsys, ["invariants", source, "--format", "edges"])
    assert code == EXIT_OK
    assert payloads[0]["tau"] == "1"


def test_two_factor_positive(tmp_path, capsys):
    source = write(tmp_path, encode_graph6(cycle(6)))
    code, payloads = run(capsys, ["two-factor", source])
    assert code == EXIT_OK
    assert payloads[0]["has_two_factor"] is True
    assert len(payloads[0]["factor"]) == 6


def test_two_factor_negative_carries_barrier(tmp_path, capsys):
    source = write(tmp_path, h1_g6())
    code, payloads = run(capsys, ["two-factor", source])
    assert code == EXIT_OK
    payload = payloads[0]
    assert payload["has_two_factor"] is False
    assert payload["barrier"]["deficiency"] <= -2


def test_barrier(tmp_path, capsys):
    source = write(tmp_path, h1_g6())
    code, payloads = run(capsys, ["barrier", source])
    assert code == EXIT_OK
    payload = payloads[0]
    assert payload["barrier"]["deficiency"] <= -2
    assert payload["o_AB"] >= 1
    assert payload["components"]


def test_barrier_biased(tmp_path, capsys):
    source = write(tmp_path, h1_g6())
    code, payloads = run(capsys, ["barrier", source, "--biased"])
    assert code == EXIT_OK
    props = payloads[0]["biased_properties"]
    assert props["b_independent"] is True
    assert props["counting_inequality"] is True
    assert props["big_odd_class_nonempty"] is True


def test_barrier_none_for_two_factor_graph(tmp_path, capsys):
    source = write(tmp_path, encode_graph6(cycle(5)))
    code, payloads = run(capsys, ["barrier", source])
    assert code == EXIT_OK
    assert payloads[0]["barrier"] is None


def test_witness(tmp_path, capsys):
    source = write(tmp_path, h1_g6())
    code, payloads = run(capsys, ["witness", source])
    assert code == EXIT_OK
    witness = payloads[0]["witness"]
    assert witness["components"] >= 2
    assert "/" in witness["ratio"] or witness["ratio"].isdigit()


def test_witness_absent(tmp_path, capsys):
    source = write(tmp_path, encode_graph6(cycle(5)))
    code, payloads = run(capsys, ["witness", source])
    assert code == EXIT_OK
    assert payloads[0]["witness"] is None


def test_witness_continues_past_unusable_barrier(tmp_path, capsys):
    # P3's biased barrier has max h = 1 and no odd component with 3 edges
    # into B, so it has no witness; the next graph is still reported
    source = write(tmp_path, encode_graph6(path(3)) + "\n" + h1_g6())
    code, payloads = run(capsys, ["witness", source])
    assert code == EXIT_OK
    first, second = payloads
    assert first["graph"] == encode_graph6(path(3))
    assert first["barrier"] == {"A": [1], "B": [0, 2], "deficiency": -2}
    assert first["witness"] is None
    assert first["reason"].startswith("witness construction needs")
    assert second["graph"] == h1_g6()
    assert second["witness"]["components"] >= 2


def test_forbidden(tmp_path, capsys):
    source = write(tmp_path, encode_graph6(cycle(5)))
    code, payloads = run(capsys, ["forbidden", source, "--pattern", "P4"])
    assert code == EXIT_OK
    assert payloads[0]["free"] is False
    assert len(payloads[0]["embedding"]) == 4
    code, payloads = run(capsys, ["forbidden", source, "--pattern", "P5"])
    assert payloads[0]["free"] is True and payloads[0]["embedding"] is None


def test_forbidden_bad_pattern(tmp_path, capsys):
    source = write(tmp_path, encode_graph6(cycle(5)))
    code = main(["forbidden", source, "--pattern", "Q9"])
    capsys.readouterr()
    assert code == EXIT_INPUT_ERROR


def test_family(capsys):
    code, payloads = run(capsys, ["family", "H:n=1", "--emit", "g6"])
    assert code == EXIT_OK
    payload = payloads[0]
    assert payload["order"] == 7 and payload["size"] == 12
    assert payload["graph6"] == h1_g6()
    assert payload["expected"]["toughness"] == "1"
    assert payload["expected"]["has_two_factor"] is False


def test_family_verify(capsys):
    code, payloads = run(capsys, ["family", "H:n=1", "--verify"])
    assert code == EXIT_OK
    assert all(c["passed"] for c in payloads[0]["claims"])


def test_family_bad_spec(capsys):
    assert main(["family", "H:n=0"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_hunt_clean(tmp_path, capsys):
    source = write(tmp_path,
                   "\n".join(encode_graph6(cycle(k)) for k in (3, 4, 5)))
    code, payloads = run(capsys, ["hunt", source, "--theorem", "THM2",
                                  "--eps", "1"])
    assert code == EXIT_OK
    assert payloads[0]["counterexamples"] == []
    assert payloads[0]["total"] == 3


def test_hunt_violation(tmp_path, capsys):
    source = write(tmp_path, h1_g6())
    code, payloads = run(capsys, ["hunt", source, "--theorem", "FALSE1T"])
    assert code == EXIT_VIOLATION
    assert payloads[0]["counterexamples"] == [h1_g6()]


def test_hunt_missing_param(tmp_path, capsys):
    source = write(tmp_path, h1_g6())
    code = main(["hunt", source, "--theorem", "THM2"])  # eps not given
    capsys.readouterr()
    assert code == EXIT_INPUT_ERROR


def test_hunt_stray_param_is_input_error(tmp_path, capsys):
    source = write(tmp_path, h1_g6())
    code = main(["hunt", source, "--theorem", "THM2", "--eps", "1/2",
                 "--t", "3/2", "--k", "9"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err == "error: THM2 does not take 'k', 't'\n"


def test_lemma4(capsys):
    code, payloads = run(capsys, ["lemma4", "--samples", "500", "--seed", "3"])
    assert code == EXIT_OK
    assert payloads[0] == {"samples": 500, "violations": 0}


def test_lemma4_rejects_negative_samples(capsys):
    code, payloads = run(capsys, ["lemma4", "--samples", "-5"])
    assert code == EXIT_INPUT_ERROR
    assert payloads == []


def test_missing_file(capsys):
    assert main(["invariants", "/nonexistent/corpus.g6"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_malformed_graph6(tmp_path, capsys):
    source = write(tmp_path, "!!not graph6!!")
    assert main(["invariants", source]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_empty_input(tmp_path, capsys):
    source = write(tmp_path, "")
    assert main(["invariants", source]) == EXIT_INPUT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("flag,theorem", [("--eps", "THM2"), ("--t", "THM1i")])
def test_hunt_zero_denominator_is_input_error(tmp_path, capsys, flag, theorem):
    source = write(tmp_path, h1_g6())
    code = main(["hunt", source, "--theorem", theorem, flag, "1/0"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: zero denominator")
