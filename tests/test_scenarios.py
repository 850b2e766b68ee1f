import dataclasses
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SCENARIO_DIR, load_scenario
from seplift.heap import heap
from seplift.hoare import (
    Call,
    Consequence,
    IfCmd,
    LetRead,
    SeqCmd,
    SeqRule,
    Skip,
    Triple,
    Write,
    check_proof,
    conclusion,
    exec_command,
    make_context,
    seq,
    two_validity_test,
)
from seplift.relations import GenRel, parse_relation
from seplift.scenarios import (
    DEMO_NAMES,
    Scenario,
    build_annotated_proof,
    demo,
    parse_command,
    parse_proof_lines,
    parse_scenario,
)
from seplift.semantics import SearchBudget
from seplift.syntax import ParseError, parse, parse_header


def test_parse_command_shapes():
    assert parse_command("skip") == Skip()
    assert parse_command("init; inc") == SeqCmd((Call("init"), Call("inc")))
    cmd = parse_command("let y=[1] in [1] := -y")
    assert isinstance(cmd, LetRead) and isinstance(cmd.body, Write)
    grouped = parse_command("let y=[1] in { [1] := y; [2] := y }")
    assert isinstance(grouped.body, SeqCmd)
    branch = parse_command("if x = 0 { skip } else { [1] := 0 }")
    assert isinstance(branch, IfCmd)
    with pytest.raises(ParseError):
        parse_command("let y=[1]")


def test_sequences_are_associative():
    flat = SeqCmd((Call("a"), Call("b"), Call("c")))
    assert parse_command("a; {b; c}") == parse_command("{a; b}; c") == flat
    assert seq([Call("a")]) == parse_command("{a}") == Call("a")
    assert seq([Call("a"), SeqCmd((Call("b"), Call("c")))]) == flat


def test_annotated_proof_straight_line():
    scenario = load_scenario("counter.scn")
    derivation = scenario.derivation()
    pre, _, post = conclusion(derivation)
    assert pre == parse("1|->_")
    assert post == parse("1|->_")


def test_annotated_proof_consequence_wrapping():
    good = load_scenario("goodbad_good.scn")
    derivation = good.derivation()
    # the reassertion between init and fin lands as a consequence node
    assert isinstance(derivation, SeqRule)
    assert isinstance(derivation.steps[-1], Consequence)


def test_annotated_proof_errors():
    scenario = load_scenario("counter.scn")
    with pytest.raises(ValueError):
        build_annotated_proof(
            scenario.gamma,
            parse_proof_lines("init\n{a}", scenario.avars),
        )
    with pytest.raises(ValueError):
        build_annotated_proof(
            scenario.gamma,
            parse_proof_lines("{1|->_}\ninit\n{b}", scenario.avars),
        )


@pytest.mark.parametrize(
    "proof, message",
    [
        (
            "{1|->_}\n[1] := 0\n{1|->1}",
            "a write step must be annotated with the heap-write axiom shape",
        ),
        ("{1|->0}\nskip\n{1|->1}", "skip cannot change the assertion"),
        (
            "{1|->0}\ninit\n{1|->0}",
            "call init: annotations {1 |-> 0}..{1 |-> 0} do not match the context "
            "triple {1 |-> _} init {1 |-> 0}; add a consequence assertion line",
        ),
        ("{1|->_}\nfin\n{1|->0}", "no context triple for operation 'fin'"),
        (
            "{1|->_}\nlet y=[1] in [1] := y\n{1|->_}",
            "only calls, writes and skip are allowed in annotated proofs, got LetRead",
        ),
    ],
)
def test_annotated_proof_error_messages(proof, message):
    gamma = make_context([Triple(parse("1|->_"), "init", parse("1|->0"))])
    with pytest.raises(ValueError) as exc:
        build_annotated_proof(gamma, parse_proof_lines(proof, frozenset()))
    assert str(exc.value) == message


@st.composite
def _straight_line_proofs(draw):
    """A proof text of 1-4 calls with 0-2 extra assertion lines before each
    command and at the end, its context (one operation per call, whose
    triple matches the lines around it), and its chains of assertion lines.
    Every assertion line is a distinct ``1|->k``, so each implication names
    the lines it came from."""
    commands = draw(st.integers(1, 4))
    extras = draw(st.lists(st.integers(0, 2), min_size=commands + 1, max_size=commands + 1))
    values = iter(draw(st.permutations(range(40))))
    chains = [[f"1|->{next(values)}" for _ in range(1 + n)] for n in extras]
    lines, triples = [], []
    for k in range(commands):
        lines += [f"{{{text}}}" for text in chains[k]] + [f"op{k}"]
        triples.append(Triple(parse(chains[k][-1]), f"op{k}", parse(chains[k + 1][0])))
    lines += [f"{{{text}}}" for text in chains[-1]]
    chains = [[parse(text) for text in chain] for chain in chains]
    return lines, make_context(triples), chains


def _consequences(d):
    """Every Consequence node's (pre side, post side) implications."""
    if isinstance(d, Consequence):
        pre_in, _, post_in = conclusion(d.body)
        return [((d.pre, pre_in), (post_in, d.post)), *_consequences(d.body)]
    if isinstance(d, SeqRule):
        return [pair for step in d.steps for pair in _consequences(step)]
    return []


@settings(max_examples=200)
@given(_straight_line_proofs())
def test_annotated_proof_has_one_consequence_per_written_hop(proof):
    lines, gamma, chains = proof
    derivation = build_annotated_proof(gamma, parse_proof_lines("\n".join(lines), frozenset()))
    hops = [pair for chain in chains for pair in zip(chain, chain[1:])]
    before_commands = {pair for chain in chains[:-1] for pair in zip(chain, chain[1:])}
    nodes = _consequences(derivation)
    assert len(nodes) == len(hops)
    first, last = chains[0][0], chains[-1][-1]
    gated = []
    for pre_side, post_side in nodes:
        if pre_side in before_commands:
            # a hop before a command: the step's postcondition is unchanged
            assert post_side[0] == post_side[1]
            gated.append(pre_side)
        else:
            # a hop after the last command: the proof's precondition is unchanged
            assert pre_side == (first, first)
            gated.append(post_side)
    assert set(gated) == set(hops)
    client = parse_command("; ".join(f"op{k}" for k in range(len(gamma))))
    assert conclusion(derivation) == (first, client, last)


def test_scenario_files_round_trip():
    counter_text = (SCENARIO_DIR / "counter.scn").read_text()
    scenario = parse_scenario(counter_text)
    assert {t.name for t in scenario.gamma} == {"init", "inc", "nxt", "dec", "fin"}
    assert scenario.coupling["a"].arity == 2
    budget_values = (-1, 0, 1)
    from seplift.semantics import SearchBudget, ValueDomain

    verdict = two_validity_test(
        scenario.gamma,
        scenario.modules(),
        scenario.rho(),
        scenario.eta,
        scenario.pre,
        scenario.client,
        scenario.post,
        SearchBudget(max_loc=3, values=budget_values),
        ValueDomain(values=(-2, -1, 0, 1, 2), locations=(1, 2, 3)),
    )
    assert verdict.ok
    proof = check_proof(scenario.gamma, scenario.derivation())
    assert proof.accepted


def test_scenario_files_goodbad():
    bad = parse_scenario((SCENARIO_DIR / "goodbad_bad.scn").read_text())
    assert not check_proof(bad.gamma, bad.derivation()).accepted
    good = parse_scenario((SCENARIO_DIR / "goodbad_good.scn").read_text())
    assert check_proof(good.gamma, good.derivation()).accepted


def test_demo_counter_report():
    report = demo("counter")
    assert report.ok
    assert report.proof_verdicts["client"].accepted
    assert report.validity_verdicts["client"].ok
    # counter.scn at the values its header gives, -1,0,1
    assert report.text() == """\
demo counter: OK
  two-stage counter; couplings: equal values in stage one, negated values in stage two
  bound: locs<=3, vals=[-1, 0, 1], gens<=2, heap size<=1
  client proof: Accepted (relative to the search bound)
  binary validity: NoViolation (bounded; 18 input pairs)
  client runs from [1|->-1]: final heaps [1|->0] vs [1|->0]
  client runs from [1|->0]: final heaps [1|->0] vs [1|->0]
  client runs from [1|->1]: final heaps [1|->0] vs [1|->0]"""


def test_demo_goodbad_report():
    report = demo("goodbad")
    assert report.ok
    assert report.proof_verdicts["good"].accepted
    assert not report.proof_verdicts["bad"].accepted
    assert report.validity_verdicts["good"].ok
    assert not report.validity_verdicts["bad"].ok
    violation = report.validity_verdicts["bad"].violation
    assert violation.outputs[0] == heap((1, 1))
    assert violation.outputs[1] == heap((1, 2))
    assert report.text() == """\
demo goodbad: OK
  good client uses fin; bad client uses badfin
  bound: locs<=3, vals=[0, 1, 2], gens<=2, heap size<=1
  good proof: Accepted (relative to the search bound)
  good validity: NoViolation (bounded; 9 input pairs)
  good runs from [1|->0]: final heaps [1|->0] vs [1|->0]
  good runs from [1|->1]: final heaps [1|->1] vs [1|->1]
  good runs from [1|->2]: final heaps [1|->2] vs [1|->2]
  bad proof: Rejected at root.seq2.pre: chk failed for 1 |-> _ /\\ a * b |= \
1 |-> _ * a \\/ 1 |-> _ * b: a family member fails the criteria
  bad validity: client violation: client: inputs ([1|->0], [1|->0]) \
produced ([1|->1], [1|->2]): outputs leave the postcondition
  bad runs from [1|->0]: final heaps [1|->1] vs [1|->2]
  bad runs from [1|->1]: final heaps [1|->1] vs [1|->2]
  bad runs from [1|->2]: final heaps [1|->1] vs [1|->2]"""


def test_demo_unknown_name():
    with pytest.raises(ValueError) as exc:
        demo("nothere")
    for name in DEMO_NAMES:
        assert name in str(exc.value)


def _goodbad_with_coupling_line(old: str, new: str) -> str:
    text = (SCENARIO_DIR / "goodbad_good.scn").read_text()
    assert old in text
    return text.replace(old, new)


def test_coupling_must_not_bind_undeclared_variable():
    text = _goodbad_with_coupling_line("  b: {", "  c: {")
    with pytest.raises(ValueError, match="coupling section binds 'c', which avars: does not declare"):
        parse_scenario(text)


def test_coupling_must_bind_every_declared_variable():
    text = _goodbad_with_coupling_line("  b: { ([],[1:0]), ([],[1:1]), ([],[1:2]) }\n", "")
    with pytest.raises(ValueError, match="coupling section: assertion variable 'b' is unbound"):
        parse_scenario(text)


def test_coupling_relation_errors_name_the_variable():
    text = _goodbad_with_coupling_line("  a: { ([1:0],[]), ([1:1],[]), ([1:2],[]) }", "  a: { ([1:0]) }")
    with pytest.raises(ValueError, match="coupling 'a': .* has arity 1, expected 2"):
        parse_scenario(text)
    text = _goodbad_with_coupling_line("  b: { ([],[1:0]), ([],[1:1]), ([],[1:2]) }", "  b: TOP(two)")
    with pytest.raises(ValueError, match="coupling 'b': malformed relation literal 'TOP"):
        parse_scenario(text)


def test_scenario_without_coupling_section_still_parses():
    # A proof can be checked without couplings; only validity needs them.
    scenario = parse_scenario("avars: a\nclient: skip\npre: a\npost: a\n")
    assert scenario.coupling == {}


@pytest.mark.parametrize("section", ["client", "pre", "post"])
def test_scenario_without_a_required_section_names_it(section):
    # It used to fail on the empty text, e.g. "expected an assertion at offset 0: ''".
    text = (SCENARIO_DIR / "goodbad_good.scn").read_text()
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(f"{section}:")]
    assert len(kept) == len(lines) - 1
    with pytest.raises(ValueError, match=f"^the scenario has no {section}: section$"):
        parse_scenario("".join(kept))


@pytest.mark.parametrize(
    "section, anchor, extra, name",
    [
        ("impl1", "  nxt: skip\n", "  inc: skip\n", "inc"),
        ("impl2", "  fin: let y=[1] in [1] := -y\n", "  inc: skip\n", "inc"),
        ("coupling", "coupling:\n", "  a: { ([1:0],[1:0]) }\n", "a"),
    ],
    ids=["impl1", "impl2", "coupling"],
)
def test_repeated_name_in_a_section_is_an_error(section, anchor, extra, name):
    # Unchecked, counter.scn with an extra "inc: skip" under each
    # implementation passed validity for a program the file does not list.
    text = (SCENARIO_DIR / "counter.scn").read_text()
    assert text.count(anchor) == 1
    with pytest.raises(ValueError, match=f"^{section}: '{name}' is given twice$"):
        parse_scenario(text.replace(anchor, anchor + extra))


def test_unindented_line_outside_a_section_header_is_an_error():
    text = "avars: a\nclient: skip\n  # indented comment\n\nskip\npre: a\n"
    with pytest.raises(ValueError, match=r"^line 5: expected a section header \(avars, env, "):
        parse_scenario(text)
    with pytest.raises(ValueError, match="^line 1: expected a section header"):
        parse_scenario("  skip\navars: a\n")


def test_indented_line_naming_a_section_is_content():
    # A proof step calling an operation named like a section stays a step.
    text = """\
avars: a
context:
  {a} post {a}
impl1:
  post: skip
impl2:
  post: skip
client: post
pre: a
post: a
proof:
  {a}
  post
  {a}
"""
    scenario = parse_scenario(text)
    assert scenario.impl1 == {"post": Skip()}
    assert [kind for kind, _ in scenario.proof] == ["assert", "cmd", "assert"]
    assert check_proof(scenario.gamma, scenario.derivation()).accepted


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.name)
def test_scenario_runs_match_the_direct_calls(path):
    # at the values the file's header comment gives
    text = path.read_text()
    values = re.search(r"--vals[= ](\S+)", text)[1]
    budget = SearchBudget(3, tuple(int(v) for v in values.split(",")))
    s = parse_scenario(text)
    assert s.prove(budget) == check_proof(s.gamma, s.derivation(), budget, s.eta)
    assert s.validity(budget) == two_validity_test(
        s.gamma, s.modules(), s.rho(), s.eta, s.pre, s.client, s.post, budget
    )


# --- each distinct line is parsed once per scenario --------------------------------


def naive_scenario(text: str) -> Scenario:
    """A well-formed scenario read with every line parsed afresh through the
    public parsers, with no table shared between lines."""
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not line[0].isspace():
            current, _, line = line.partition(":")
        if line.strip():
            sections.setdefault(current, []).append(line.strip())
    avars, eta = frozenset(), {}
    for key in ("avars", "env"):
        for chunk in sections.get(key, []):
            avars, eta = parse_header(key, chunk, avars, eta)

    def triple(line: str) -> Triple:
        pre, _, rest = line[1:].partition("}")
        name, _, post = rest.partition("{")
        return Triple(parse(pre, avars), name.strip(), parse(post[:-1], avars))

    def named(section: str, parse_fn) -> dict:
        pairs = (line.partition(":") for line in sections.get(section, []))
        return {name.strip(): parse_fn(body.strip()) for name, _, body in pairs}

    return Scenario(
        avars,
        eta,
        make_context([triple(line) for line in sections.get("context", [])]),
        named("impl1", parse_command),
        named("impl2", parse_command),
        named("coupling", lambda body: parse_relation(body, 2)),
        parse_command(" ".join(sections["client"])),
        parse(" ".join(sections["pre"]), avars),
        parse(" ".join(sections["post"]), avars),
        [step for line in sections["proof"] for step in parse_proof_lines(line, avars)],
    )


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.name)
def test_parse_scenario_matches_a_naive_reading_field_by_field(path):
    text = path.read_text()
    parsed, naive = parse_scenario(text), naive_scenario(text)
    for field in dataclasses.fields(Scenario):
        assert getattr(parsed, field.name) == getattr(naive, field.name), field.name


def test_a_repeated_line_shares_its_first_reading():
    s = parse_scenario((SCENARIO_DIR / "counter.scn").read_text())
    assert s.impl1["inc"] is s.impl2["inc"]
    context = {t.name: t for t in s.gamma}
    assert context["init"].post is context["inc"].pre is s.proof[2][1]
    assert s.pre is context["init"].pre


def test_a_line_reads_under_its_own_scenarios_avars():
    # The same text is an assertion variable under one header and an error
    # under another: nothing read for the first scenario serves the second.
    text = "avars: a\nclient: skip\npre: a\npost: a\n"
    assert parse_scenario(text).pre == parse("a", frozenset({"a"}))
    with pytest.raises(ParseError, match="^line 3: bare identifier 'a' is not a declared"):
        parse_scenario(text.replace("avars: a", "avars: b"))
    assert parse_scenario(text.replace("avars: a", "avars: a, b")).pre == parse("a", {"a"})


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("inc: let y=[1] in [1] := y+1", "inc: let y=[1] in",
         "impl1 'inc': expected a command at offset 12: 'let y=[1] in'"),
        ("{a}", "{a *}", "expected an assertion at offset 3: 'a *'"),
    ],
    ids=["impl", "assertion"],
)
def test_a_malformed_line_given_twice_fails_at_its_first_line(old, new, message):
    text = (SCENARIO_DIR / "counter.scn").read_text()
    assert text.count(old) >= 2
    first = text[: text.index(old)].count("\n") + 1
    with pytest.raises(ValueError) as err:
        parse_scenario(text.replace(old, new))
    assert str(err.value) == f"line {first}: {message}"
