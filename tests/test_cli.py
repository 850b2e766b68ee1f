import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import pytest

from seplift.cli import _budget, build_parser, main
from seplift.semantics import DEFAULT_BUDGET

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_lift_fan_exits_nonzero_with_package(capsys):
    code, out = run(capsys, "lift", str(SCENARIOS / "fan.imp"))
    assert code == 1
    assert "NO GUARANTEE" in out
    assert "witness pair: ([1|->0], [1|->0])" in out


def test_lift_good_implication_exits_zero(capsys):
    code, out = run(capsys, "lift", str(SCENARIOS / "good.imp"))
    assert code == 0
    assert "LIFTS" in out


def test_chk_subcommand(capsys):
    code, out = run(capsys, "chk", str(SCENARIOS / "good.imp"))
    assert code == 0 and "CHK: true" in out
    code, out = run(capsys, "chk", str(SCENARIOS / "fan.imp"))
    assert code == 1 and "CHK: false" in out


def test_structured_output_is_deterministic_json(capsys):
    code1, out1 = run(capsys, "--format", "structured", "lift", str(SCENARIOS / "fan.imp"))
    code2, out2 = run(capsys, "--format", "structured", "lift", str(SCENARIOS / "fan.imp"))
    assert code1 == code2 == 1
    assert out1 == out2
    record = json.loads(out1.splitlines()[0])
    assert record["verdict"] == "no_guarantee"
    assert record["package"]["recheck"] is True


def test_lift_decides_seventeen_variables(capsys, tmp_path):
    # the balloon layout padded with x00..x14, once in conjunct 2 and once in
    # disjunct 1: 17 variables, and it lifts by Balloon {b}
    pad = [f"x{k:02d}" for k in range(15)]
    big = "*".join(["a", "b", *pad])
    source = tmp_path / "padded.imp"
    source.write_text(f"avars: {', '.join(['a', 'b', *pad])}\na /\\ {big} |= {big} \\/ true\n")
    code, out = run(capsys, "--format", "structured", "lift", str(source))
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "lifts"
    assert (record["criterion"], record["balloon_subset"]) == ("balloon", ["b"])


def test_search_subcommand(capsys):
    code, out = run(capsys, "--arity", "2", "search", str(SCENARIOS / "fan.imp"))
    assert code == 1 and "COUNTEREXAMPLE" in out
    code, out = run(capsys, "--arity", "1", "search", str(SCENARIOS / "fan.imp"))
    assert code == 0 and "NONE" in out


def test_search_without_assertion_variables_prints_no_empty_environment(capsys, tmp_path):
    source = tmp_path / "false.imp"
    source.write_text("true |= false\n")
    code, out = run(capsys, "search", str(source))
    assert code == 1
    assert out == "COUNTEREXAMPLE: witness ([], [])\n"
    code, out = run(capsys, "--format", "structured", "search", str(source))
    assert json.loads(out)["rho"] == {}


def test_search_names_its_bound(capsys):
    fan = str(SCENARIOS / "fan.imp")
    code, out = run(capsys, "--arity", "1", "--vals", "0,1", "--locs", "2", "search", fan)
    assert code == 0
    assert out.strip() == (
        "NONE within budget (locs<=2, vals=[0, 1], gens<=2, heap size<=1) "
        "at arity 1 (not a validity proof)"
    )
    bound = {"locs": 2, "vals": [0, 1], "gens": 3, "heap_size": 2}
    for arity, counterexample in ((1, False), (2, True)):
        code, out = run(
            capsys, "--format", "structured", "--arity", str(arity), "--locs", "2",
            "--vals", "0,1", "--gens", "3", "--heap-size", "2", "search", fan,
        )
        record = json.loads(out)
        assert code == int(counterexample)
        assert record["budget"] == bound
        assert ("rho" in record) == counterexample


def test_pc_subcommand(capsys):
    code, out = run(capsys, "pc", str(SCENARIOS / "fan.imp"))
    assert code == 1 and "fails" in out


def test_pc_names_its_bound(capsys):
    good = str(SCENARIOS / "good.imp")
    code, out = run(capsys, "--vals", "0,1", "--locs", "2", "pc", good)
    assert code == 0
    assert out.strip().startswith("PC holds (bounded): ")
    assert out.strip().endswith(
        "[1 |-> _ /\\ a * b |= 1 |-> _] "
        "[bound: locs<=2, vals=[0, 1], gens<=2, heap size<=1]"
    )
    code, out = run(
        capsys, "--format", "structured", "--locs", "2", "--vals", "1,0",
        "--gens", "3", "--heap-size", "2", "pc", str(SCENARIOS / "fan.imp"),
    )
    record = json.loads(out)
    assert code == 1 and not record["holds"]
    assert record["budget"] == {"locs": 2, "vals": [0, 1], "gens": 3, "heap_size": 2}


def test_graph_subcommand(capsys, tmp_path):
    target = tmp_path / "fan.dot"
    code, _ = run(capsys, "graph", str(SCENARIOS / "fan.imp"), "--out-file", str(target))
    assert code == 0
    dot = target.read_text()
    assert dot.count("--") == 4 and "style=dashed" in dot


def test_normalize_subcommand(capsys, tmp_path):
    good = tmp_path / "ok.imp"
    good.write_text("avars: a\n(1|->0 \\/ 2|->0) * a\n")
    code, out = run(capsys, "normalize", str(good))
    assert code == 0 and "\\/" in out
    bad = tmp_path / "bad.imp"
    bad.write_text("avars: a, b\n((1|->0 * a) /\\ (2|->0 * b)) * (3|->0 * a)\n")
    code, out = run(capsys, "normalize", str(bad))
    assert code == 1 and "NOT SIMPLE" in out


def test_reduce_subcommand(capsys):
    code, out = run(capsys, "reduce", str(SCENARIOS / "fan.imp"))
    assert code == 0
    assert "|=" in out


def test_prove_and_validity_subcommands(capsys):
    code, out = run(capsys, "--vals=-1,0,1", "prove", str(SCENARIOS / "counter.scn"))
    assert code == 0 and "Accepted" in out
    code, out = run(capsys, "--vals=0,1,2", "validity", str(SCENARIOS / "goodbad_bad.scn"))
    assert code == 1 and "violation" in out


def test_prove_names_its_bound(capsys):
    counter = str(SCENARIOS / "counter.scn")
    code, out = run(capsys, "--vals=-1,0,1", "prove", counter)
    assert code == 0
    assert out.strip() == (
        "Accepted (relative to the search bound) "
        "[bound: locs<=3, vals=[-1, 0, 1], gens<=2, heap size<=1]"
    )
    code, out = run(
        capsys, "--format", "structured", "--vals", "0,1,2", "--gens", "1",
        "prove", str(SCENARIOS / "goodbad_bad.scn"),
    )
    record = json.loads(out)
    assert code == 1 and not record["accepted"]
    assert record["node"] == "root.seq2.pre"
    assert record["budget"] == {"locs": 3, "vals": [0, 1, 2], "gens": 1, "heap_size": 1}


def test_prove_does_not_gate_an_unwritten_reflexive_side(capsys, tmp_path):
    # The one written hop, a /\ a*a |= true, lifts; the consequence step
    # around it also has the side a /\ a*a |= a /\ a*a, which chk rejects
    # but which holds at every arity, so it is not gated.
    source = tmp_path / "reflexive.scn"
    source.write_text(
        "avars: a\n"
        "context:\n  {a /\\ a*a} op {a /\\ a*a}\n"
        "impl1:\n  op: skip\n"
        "impl2:\n  op: skip\n"
        "coupling:\n  a: { ([1:0],[1:0]) }\n"
        "client: op\npre: a /\\ a*a\npost: true\n"
        "proof:\n  {a /\\ a*a}\n  op\n  {a /\\ a*a}\n  {true}\n"
    )
    code, out = run(capsys, "prove", str(source))
    assert (code, out.split(" [")[0]) == (0, "Accepted (relative to the search bound)")
    code, out = run(capsys, "validity", str(source))
    assert code == 0 and out.startswith("NoViolation")


@pytest.mark.parametrize("value", ["-1,0,1", "-1,,0,1", "-1, 0, 1"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("command", ["prove", "validity"])
def test_vals_list_starting_with_a_negative_number_may_follow_a_space(
    capsys, fmt, command, value
):
    counter = str(SCENARIOS / "counter.scn")
    joined = run(capsys, "--format", fmt, f"--vals={value}", command, counter)
    spaced = run(capsys, "--format", fmt, "--vals", value, command, counter)
    assert joined == spaced
    assert joined[0] == 0 and "-1, 0, 1" in joined[1]


@pytest.mark.parametrize("value", ["-x", "--locs", "x,1", "-1,0.5"])
def test_vals_followed_by_a_non_list_exits_two(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["--vals", value, "prove", str(SCENARIOS / "counter.scn")])
    assert exc.value.code == 2
    assert "--vals" in capsys.readouterr().err


def test_vals_error_names_the_expected_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--vals=x", "prove", str(SCENARIOS / "counter.scn")])
    assert exc.value.code == 2
    assert "expected comma-separated integers, got 'x'" in capsys.readouterr().err


def test_demo_subcommand(capsys):
    code, out = run(capsys, "demo", "goodbad")
    assert code == 0
    assert "[1|->1] vs [1|->2]" in out


def test_budget_flags_default_to_the_default_budget():
    args = build_parser().parse_args(["search", str(SCENARIOS / "fan.imp")])
    assert _budget(args) == DEFAULT_BUDGET


def test_demo_outside_a_checkout_names_the_missing_scenarios(tmp_path):
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "seplift"
    site = tmp_path / "site"
    shutil.copytree(package, site / "seplift", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "seplift.cli", "demo", "counter"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(site)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: the demos read scenarios/*.scn from a source checkout; "
        f"no such directory: {tmp_path.resolve() / 'scenarios'}\n"
    )


def test_input_errors_exit_two(capsys, tmp_path):
    code, _ = run(capsys, "lift", str(tmp_path / "missing.imp"))
    assert code == 2
    garbled = tmp_path / "garbled.imp"
    garbled.write_text("avars: a\n((( |=\n")
    code, _ = run(capsys, "lift", str(garbled))
    assert code == 2


@pytest.mark.parametrize("header", ["avars: a, 1, true", "avars: a\nenv: 2=3"])
def test_lift_with_a_non_identifier_header_name_exits_two(capsys, tmp_path, header):
    source = tmp_path / "names.imp"
    source.write_text(header + "\n1|->_ * a |= 1|->_ * a\n")
    code = main(["lift", str(source)])
    captured = capsys.readouterr()
    assert code == 2
    assert "is not an identifier" in captured.err
    assert captured.out == ""


def test_validity_names_its_bound(capsys):
    counter = str(SCENARIOS / "counter.scn")
    code, out = run(capsys, "--vals=-1,0,1", "validity", counter)
    assert code == 0
    assert out.strip() == (
        "NoViolation (bounded; 18 input pairs) [domain: vals=[-1, 0, 1], locs=[1, 2, 3]]"
    )
    code, out = run(
        capsys, "--format", "structured", "--vals=0,1", "--locs", "2", "validity", counter
    )
    record = json.loads(out)
    assert code == 0
    assert record["dom"] == {"vals": [0, 1], "locs": [1, 2]}
    assert record["pairs_checked"] > 0


def test_validity_names_the_coupling_of_a_malformed_relation(capsys, tmp_path):
    text = (SCENARIOS / "goodbad_good.scn").read_text()
    source = tmp_path / "unary.scn"
    source.write_text(text.replace("  b: { ([],[1:0]), ([],[1:1]), ([],[1:2]) }", "  b: { ([1:0]) }"))
    code = main(["validity", str(source)])
    captured = capsys.readouterr()
    assert code == 2
    assert "coupling 'b': '{ ([1:0]) }' has arity 1, expected 2" in captured.err


def test_over_deep_assertion_exits_two(capsys, tmp_path):
    # 1,200 nested parentheses: the parser recurses once per level (a long
    # `*` chain is read and printed with loops, see below)
    source = tmp_path / "deep.imp"
    source.write_text("avars: a\n" + "(" * 1200 + "a" + ")" * 1200 + " |= a\n")
    code = main(["lift", str(source)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: assertion nested too deeply\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["parse", "normalize", "reduce", "chk", "lift"])
def test_long_star_chain_prints_at_the_default_recursion_limit(capsys, tmp_path, command):
    # `pretty` reads the left spine of `*` with a loop, so every subcommand
    # that prints a side runs on 3,000 factors
    chain = " * ".join(["a"] * 3000)
    source = tmp_path / "chain.imp"
    source.write_text(f"avars: a\n{chain} |= a * a\n")
    code, out = run(capsys, command, str(source))
    assert code == 0, capsys.readouterr().err
    assert chain in out


@pytest.mark.parametrize("member", ["1", "-1"])
def test_graph_member_out_of_range_exits_two(capsys, member):
    # fan.imp reduces to a one-member family, so only index 0 exists
    code = main(["graph", str(SCENARIOS / "fan.imp"), "--member", member])
    captured = capsys.readouterr()
    assert code == 2
    assert "out of range" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("arity", ["0", "-1"])
def test_search_with_non_positive_arity_exits_two(capsys, arity):
    code = main(["--arity", arity, "search", str(SCENARIOS / "fan.imp")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: arity must be a positive integer, got {arity}\n"
    assert captured.out == ""


def test_search_with_unbound_normal_variable_exits_two(capsys, tmp_path):
    source = tmp_path / "unbound.imp"
    source.write_text("avars: a\n1|->x * a |= 1|->x * a\n")
    code = main(["search", str(source)])
    assert code == 2
    assert "'x' is unbound" in capsys.readouterr().err


def test_validity_with_missing_coupling_exits_two(capsys, tmp_path):
    # With no coupling: section the scenario parses (prove needs none), so
    # validity itself raises UnboundVariable for the first assertion variable.
    text = (SCENARIOS / "counter.scn").read_text()
    source = tmp_path / "no_coupling.scn"
    source.write_text(
        "\n".join(
            l
            for l in text.splitlines()
            if not l.lstrip().startswith(("coupling:", "a:", "b:"))
        )
    )
    code = main(["--vals=-1,0,1", "validity", str(source)])
    assert code == 2
    err = capsys.readouterr().err
    assert "assertion variable 'a' is unbound" in err
    assert "coupling section" not in err


def test_prove_with_undeclared_coupling_exits_two(capsys, tmp_path):
    text = (SCENARIOS / "goodbad_good.scn").read_text()
    source = tmp_path / "c_for_b.scn"
    source.write_text(text.replace("  b: {", "  c: {"))
    code = main(["--vals", "0,1,2", "prove", str(source)])
    assert code == 2
    assert "coupling section binds 'c'" in capsys.readouterr().err


def _header_commands():
    pattern = re.compile(r"#\s*seplift\s+(?P<args>.*?)(?:\s+->\s*exit\s+(?P<code>\d+))?\s*$")
    for path in sorted(SCENARIOS.glob("*.scn")):
        for line in path.read_text().splitlines():
            m = pattern.match(line)
            if m:
                yield pytest.param(
                    shlex.split(m["args"]), int(m["code"] or 0), id=f"{path.name}:{m['args']}"
                )


HEADER_COMMANDS = list(_header_commands())


def test_scenario_headers_state_commands():
    assert len(HEADER_COMMANDS) >= len(list(SCENARIOS.glob("*.scn")))


@pytest.mark.parametrize("argv, expected", HEADER_COMMANDS)
def test_scenario_header_commands(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(SCENARIOS.parent)
    code = main(argv)
    capsys.readouterr()
    assert code == expected


def test_prove_on_a_file_without_scenario_sections_exits_two(capsys):
    code = main(["prove", str(SCENARIOS / "fan.imp")])
    assert code == 2
    assert "line 3: expected a section header (avars, env, " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prove", "validity"])
def test_long_client_runs_at_the_default_recursion_limit(capsys, tmp_path, command):
    # counter.scn's five calls 410 times over, 2,050 calls, with the proof to
    # match: a sequence is one node, so no walker recurses once per call
    rounds = 410
    head, body = (SCENARIOS / "counter.scn").read_text().split("proof:\n  {1|->_}\n")
    client = "; ".join(["init; inc; nxt; dec; fin"] * rounds)
    head = head.replace("client: init; inc; nxt; dec; fin", f"client: {client}")
    source = tmp_path / "long.scn"
    source.write_text(head + "proof:\n  {1|->_}\n" + body * rounds)
    code, out = run(capsys, "--vals=-1,0,1", command, str(source))
    assert code == 0, capsys.readouterr().err
    assert out.startswith(("Accepted", "NoViolation"))


def _assertion_run(tmp_path, lines: int) -> pathlib.Path:
    """A scenario whose proof is one write followed by `lines` alternating
    {1|->_} and {1|->0} lines: one Consequence per line, nested."""
    run_lines = ["{1|->_}" if k % 2 == 0 else "{1|->0}" for k in range(lines)]
    proof = ["{1|->_}", "[1] := 0", "{1|->0}", *run_lines]
    source = tmp_path / "run.scn"
    source.write_text(
        f"client: [1] := 0\npre: 1|->_\npost: {run_lines[-1][1:-1]}\nproof:\n"
        + "".join(f"  {line}\n" for line in proof)
    )
    return source


@pytest.mark.parametrize("command", ["prove", "validity"])
def test_long_assertion_run_at_the_default_recursion_limit(capsys, tmp_path, command):
    # the checker walks the nested consequences with its own stack
    code, out = run(capsys, command, str(_assertion_run(tmp_path, 5000)))
    assert code == 0, capsys.readouterr().err
    assert out.startswith(("Accepted", "NoViolation"))


def test_long_assertion_run_is_rejected_at_its_first_failing_hop(capsys, tmp_path):
    # at values 0,1, {1|->_} |= {1|->0} fails; the first such hop is the
    # second consequence from the write, under the 4,998 outer ones
    code, out = run(capsys, "--vals", "0,1", "prove", str(_assertion_run(tmp_path, 5000)))
    assert code == 1
    assert out.startswith("Rejected at root" + ".body" * 4998 + ".post: bounded unary search refuted")


@pytest.mark.parametrize("client", ["init; {inc; nxt; dec; fin}", "{init; inc}; nxt; dec; fin"])
def test_braced_client_proves_like_the_flat_one(capsys, tmp_path, client):
    # ; is associative, so the braces do not change the program
    flat = run(capsys, "--vals=-1,0,1", "prove", str(SCENARIOS / "counter.scn"))
    source, _ = _edited_counter(
        tmp_path, ("client: init; inc; nxt; dec; fin", f"client: {client}")
    )
    assert run(capsys, "--vals=-1,0,1", "prove", str(source)) == flat
    assert flat[0] == 0


def _edited_counter(tmp_path, *edits):
    """counter.scn with each (old, new) replaced once, and the line number of
    the first edit."""
    text = (SCENARIOS / "counter.scn").read_text()
    first = text[: text.index(edits[0][0])].count("\n") + 1
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    source = tmp_path / "edited.scn"
    source.write_text(text)
    return source, first


# (old, new, the error after "line N: ") for one bad line of counter.scn
BAD_LINES = [
    ("{1|->_} init {a}", "{1|->_ init {a", "triple must be written {pre} name {post}"),
    ("{1|->_} init {a}", "{1|->_} {a}", "triple must be written {pre} name {post}"),
    ("{a} inc {a}", "{a *} inc {a}", "expected an assertion at offset 3: 'a *'"),
    ("dec: let y=[1] in [1] := y-1", "dec: let y=[1] in",
     "impl1 'dec': expected a command at offset 12: 'let y=[1] in'"),
    ("  b: {", "  b: TOP(3) # {", "coupling 'b': 'TOP(3)' has arity 3, expected 2"),
    ("client: init; inc;", "client: init; inc;;",
     "expected a command at offset 10: 'init; inc;; nxt; dec; fin'"),
    ("pre: 1|->_", "pre: 1|->", "expected an arithmetic expression at offset 4: '1|->'"),
    # a section joined across lines names its first line
    ("post: 1|->_", "post: 1|-> _ *\n  * 1|->_",
     "expected an assertion at offset 9: '1|-> _ * * 1|->_'"),
    ("  {b}\n  fin", "  {b *}\n  fin", "expected an assertion at offset 3: 'b *'"),
    ("  {b}\n  fin", "  {b\n  fin", "assertion line must be braced: '{b'"),
]


@pytest.mark.parametrize("old, new, message", BAD_LINES)
def test_scenario_line_errors_name_their_line(capsys, tmp_path, old, new, message):
    source, number = _edited_counter(tmp_path, (old, new))
    code = main(["--vals=-1,0,1", "prove", str(source)])
    assert code == 2
    assert capsys.readouterr().err == f"error: line {number}: {message}\n"


def test_proof_through_an_assertion_outside_chk_needs_no_gate(capsys, tmp_path):
    # No consequence step is written, so the proof passes through a /\ a*a,
    # which chk rejects, without gating it.
    source = tmp_path / "aa.scn"
    source.write_text(
        "avars: a\ncontext:\n  {1|->_} op {a /\\ a*a}\nimpl1:\n  op: skip\n"
        "impl2:\n  op: skip\nclient: op\npre: 1|->_\npost: a /\\ a*a\n"
        "proof:\n  {1|->_}\n  op\n  {a /\\ a*a}\n"
    )
    code, out = run(capsys, "--vals=-1,0,1", "prove", str(source))
    assert code == 0
    assert out.startswith("Accepted (relative to the search bound)")


UNBOUND_X = {
    "assertion": [
        ("{1|->_} init {a}", "{x|->_} init {a}"),
        ("pre: 1|->_", "pre: x|->_"),
        ("proof:\n  {1|->_}", "proof:\n  {x|->_}"),
    ],
    "operation": [("  nxt: skip", "  nxt: [x] := 0")],
    "client": [("client: init; inc; nxt; dec; fin", "client: init; let y=[x] in skip; fin")],
}


@pytest.mark.parametrize("command", ["prove", "validity"])
@pytest.mark.parametrize("place", sorted(UNBOUND_X))
def test_unbound_normal_variable_exits_two(capsys, tmp_path, command, place):
    source, _ = _edited_counter(tmp_path, *UNBOUND_X[place])
    code = main(["--vals=-1,0,1", command, str(source)])
    assert code == 2
    assert capsys.readouterr().err == "error: normal variable 'x' is unbound\n"


BOUND_X = {
    "env": [("avars: a, b\n", "avars: a, b\nenv: x=1\n"), *UNBOUND_X["assertion"]],
    "exists": [
        ("{1|->_} init {a}", "{EX x. 1|->x} init {a}"),
        ("pre: 1|->_", "pre: EX x. 1|->x"),
        ("proof:\n  {1|->_}", "proof:\n  {EX x. 1|->x}"),
    ],
    "let": [("  nxt: skip", "  nxt: let x=[1] in [1] := x")],
}


@pytest.mark.parametrize("command", ["prove", "validity"])
@pytest.mark.parametrize("binder", sorted(BOUND_X))
def test_bound_normal_variable_passes(capsys, tmp_path, command, binder):
    source, _ = _edited_counter(tmp_path, *BOUND_X[binder])
    code = main(["--vals=-1,0,1", command, str(source)])
    assert capsys.readouterr().err == ""
    assert code == 0


OTHER_TRIPLE = {
    "pre": [("pre: 1|->_", "pre: 1|->0")],
    "client": [("client: init; inc; nxt; dec; fin", "client: init; inc; nxt; dec")],
    "post": [("post: 1|->_", "post: 2|->_")],
    # the first part that differs is named
    "client and post": [
        ("client: init; inc; nxt; dec; fin", "client: init; fin"),
        ("post: 1|->_", "post: 2|->_"),
    ],
}


@pytest.mark.parametrize("edited", sorted(OTHER_TRIPLE))
def test_prove_rejects_a_proof_of_another_triple(capsys, tmp_path, edited):
    # counter.scn's proof kept under another pre, client or post
    source, _ = _edited_counter(tmp_path, *OTHER_TRIPLE[edited])
    code = main(["--vals=-1,0,1", "prove", str(source)])
    part = edited.split()[0]
    assert capsys.readouterr().err == (
        f"error: the proof concludes a different {part} than the {part}: section\n"
    )
    assert code == 2


def test_proof_of_another_client_hid_a_violation(capsys, tmp_path):
    source, _ = _edited_counter(tmp_path, *OTHER_TRIPLE["client and post"])
    code = main(["--vals=-1,0,1", "validity", str(source)])
    assert code == 1
    assert capsys.readouterr().out.startswith("client violation: client: inputs")


@pytest.mark.parametrize("command", ["reduce", "graph", "lift", "pc"])
def test_family_commands_name_the_side_without_a_simple_form(capsys, tmp_path, command):
    source = tmp_path / "nested.imp"
    source.write_text("avars: a, b\n(b /\\ a) * 1|->_ |= a * 1|->_\n")
    code = main([command, str(source)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {source}: left-hand side has no simple form\n"
