import time

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from conftest import (
    AVARS,
    COMMAND_ETA,
    NINE_DEEP,
    SIX_WIDE,
    commands,
    load_scenario,
    small_heaps,
)
from seplift import hoare
from seplift.heap import EMPTY_HEAP, Heap, cells, compose, heap
from seplift.hoare import (
    ERR,
    Call,
    CallAxiom,
    Consequence,
    ExistsRule,
    FrameRule,
    IfCmd,
    IfRule,
    LetRead,
    SeqCmd,
    SeqRule,
    Skip,
    SkipAxiom,
    Triple,
    Write,
    WriteAxiom,
    build_modules,
    check_proof,
    command_vars,
    conclusion,
    exec_command,
    make_context,
    seq,
    two_validity_test,
)
from seplift.relations import GenRel, top
from seplift.scenarios import build_annotated_proof, parse_command, parse_proof_lines
from seplift.semantics import SearchBudget, ValueDomain
from seplift.syntax import (
    And,
    AssertEnv,
    BoolAtom,
    Exists,
    IntLit,
    PointsTo,
    PointsToAny,
    Star,
    UnboundVariable,
    VarRef,
    parse,
)


def test_exec_write():
    assert exec_command(parse_command("[1] := 5"), {}, {}, heap((1, 0))) == heap((1, 5))
    assert exec_command(parse_command("[1] := 5"), {}, {}, EMPTY_HEAP) is ERR


def test_exec_let_read_binds():
    cmd = parse_command("let y=[1] in [2] := y+1")
    assert exec_command(cmd, {}, {}, heap((1, 4), (2, 0))) == heap((1, 4), (2, 5))
    assert exec_command(cmd, {}, {}, heap((2, 0))) is ERR


def test_exec_if_branches():
    cmd = parse_command("if x = 0 { [1] := 1 } else { [1] := 2 }")
    assert exec_command(cmd, {"x": 0}, {}, heap((1, 9))) == heap((1, 1))
    assert exec_command(cmd, {"x": 3}, {}, heap((1, 9))) == heap((1, 2))


# The budgets below use the value domains the scenario files' headers give.
COUNTER_BUDGET = SearchBudget(max_loc=3, values=(-1, 0, 1))
GOODBAD_BUDGET = SearchBudget(max_loc=3, values=(0, 1, 2))


def test_exec_counter_second_implementation_round_trip():
    scenario = load_scenario("counter.scn")
    modules = build_modules(scenario.impl2)
    h = heap((1, 0))
    for op in ("init", "inc", "nxt", "dec", "fin"):
        h = modules[op](h)
        assert h is not ERR
    assert h == heap((1, 0))


def test_exec_err_propagates_through_seq():
    cmd = parse_command("[1] := 0; [2] := 0")
    assert exec_command(cmd, {}, {}, heap((1, 1))) is ERR


def test_command_vars():
    cmd = parse_command("let y=[x] in [y] := z")
    assert command_vars(cmd) == {"x", "z"}


@settings(max_examples=40)
@given(small_heaps, small_heaps)
def test_frame_property_of_packaged_modules(h, frame):
    scenario = load_scenario("counter.scn")
    combined = compose(h, frame)
    if combined is None:
        return
    for impl in (scenario.impl1, scenario.impl2):
        for cmd in impl.values():
            out = exec_command(cmd, {}, {}, h)
            if out is not ERR:
                assert exec_command(cmd, {}, {}, combined) == compose(out, frame)


# Heaps over locations 1..3 and values 0..2, the command generator's range,
# split into a heap g and a disjoint frame f.
_lemma_cells = st.dictionaries(st.integers(1, 3), st.integers(0, 2), max_size=3)


@settings(max_examples=500)
@given(commands, _lemma_cells, st.frozensets(st.integers(1, 3)))
# A read and a write of a cell that only the frame holds.
@example(
    LetRead("y", IntLit(2), Write(IntLit(1), VarRef("y"))), {1: 0, 2: 1}, frozenset({2})
)
@example(Write(IntLit(2), IntLit(1)), {1: 0, 2: 0}, frozenset({2}))
def test_commands_are_local_actions(cmd, cells, frame_locs):
    """The lemma frame-free 2-validity rests on: a command that does not
    fault on g runs on g·f to its output on g, composed with f."""
    g = Heap({loc: v for loc, v in cells.items() if loc not in frame_locs})
    f = Heap({loc: v for loc, v in cells.items() if loc in frame_locs})
    out = exec_command(cmd, COMMAND_ETA, {}, g)
    if out is ERR:
        return
    framed = compose(out, f)
    assert framed is not None
    assert exec_command(cmd, COMMAND_ETA, {}, compose(g, f)) == framed


@given(commands, commands, small_heaps)
def test_sequence_runs_its_parts_in_order(c1, c2, h):
    mid = exec_command(c1, COMMAND_ETA, {}, h)
    expected = ERR if mid is ERR else exec_command(c2, COMMAND_ETA, {}, mid)
    assert exec_command(seq((c1, c2)), COMMAND_ETA, {}, h) == expected


def test_check_proof_is_linear_in_the_hops():
    # each hop is a write step and a consequence 1|->0 |= 1|->_; a checker
    # that re-walks the chain at every step is quadratic, and one that
    # recurses once per step runs out of stack
    text = "{1|->_}\n" + "[1] := 0\n{1|->0}\n{1|->_}\n" * 1600
    derivation = build_annotated_proof((), parse_proof_lines(text, frozenset()))
    start = time.perf_counter()
    verdict = check_proof((), derivation)
    elapsed = time.perf_counter() - start
    assert verdict.accepted
    assert len(conclusion(derivation)[1].parts) == 1600
    assert elapsed < 1.0  # about 0.2 s on a 2-vCPU host


def test_check_proof_counter_client_accepted():
    scenario = load_scenario("counter.scn")
    verdict = check_proof(scenario.gamma, scenario.derivation(), COUNTER_BUDGET)
    assert verdict.accepted


def test_check_proof_good_and_bad_clients():
    good = load_scenario("goodbad_good.scn")
    bad = load_scenario("goodbad_bad.scn")
    assert check_proof(good.gamma, good.derivation(), GOODBAD_BUDGET).accepted
    verdict = check_proof(bad.gamma, bad.derivation(), GOODBAD_BUDGET)
    assert not verdict.accepted
    assert "chk failed" in verdict.reason
    assert "consequence" not in (verdict.node or "") or verdict.node


def test_check_proof_rejects_sequence_mismatch():
    gamma = make_context(
        [
            Triple(parse("1|->_"), "f", parse("2|->_")),
            Triple(parse("3|->_"), "g", parse("1|->_")),
        ]
    )
    d = SeqRule((
        CallAxiom(parse("1|->_"), "f", parse("2|->_")),
        CallAxiom(parse("3|->_"), "g", parse("1|->_")),
    ))
    verdict = check_proof(gamma, d)
    assert not verdict.accepted and "mismatch" in verdict.reason


def test_check_proof_call_must_match_context():
    gamma = make_context([Triple(parse("1|->_"), "f", parse("2|->_"))])
    verdict = check_proof(gamma, CallAxiom(parse("1|->_"), "f", parse("1|->_")))
    assert not verdict.accepted


def test_check_proof_frame_rule():
    gamma = make_context([Triple(parse("1|->_"), "f", parse("1|->_"))])
    framed = FrameRule(CallAxiom(parse("1|->_"), "f", parse("1|->_")), parse("2|->3"))
    pre, _, post = conclusion(framed)
    assert pre == Star(parse("1|->_"), parse("2|->3"))
    assert check_proof(gamma, framed).accepted


def test_check_proof_exists_rule_side_condition():
    gamma = make_context([Triple(parse("1|->x"), "f", parse("1|->x"))])
    ex = ExistsRule(CallAxiom(parse("1|->x"), "f", parse("1|->x")), "x")
    assert check_proof(gamma, ex).accepted
    write = WriteAxiom(IntLit(1), VarRef("x"))
    bad = ExistsRule(write, "x")  # x occurs in the command
    verdict = check_proof((), bad)
    assert not verdict.accepted and "free" in verdict.reason


def test_check_proof_write_axiom_and_skip():
    d = WriteAxiom(IntLit(1), IntLit(5))
    pre, cmd, post = conclusion(d)
    assert pre == PointsToAny(IntLit(1))
    assert post == PointsTo(IntLit(1), IntLit(5))
    assert check_proof((), d).accepted
    assert check_proof((), SkipAxiom(parse("true"))).accepted


def test_check_proof_if_rule():
    guard = BoolAtom("=", VarRef("x"), IntLit(0))
    base = parse("1|->_")
    then_d = Consequence(And(base, guard), SkipAxiom(And(base, guard)), parse("true"))
    else_d = Consequence(
        And(base, guard.negated()), SkipAxiom(And(base, guard.negated())), parse("true")
    )
    d = IfRule(guard, then_d, else_d)
    pre, cmd, post = conclusion(d)
    assert pre == base and isinstance(cmd, IfCmd)
    assert check_proof((), d, eta={"x": 0}).accepted


def test_check_proof_consequence_unary_search_refutes():
    # 1|->_ does not entail 2|->_; chk alone cannot see that, the bounded
    # unary search must
    d = Consequence(parse("1|->_"), SkipAxiom(parse("2|->_")), parse("2|->_"))
    verdict = check_proof((), d, SearchBudget(max_loc=2))
    assert not verdict.accepted
    assert "unary search" in verdict.reason


@pytest.mark.parametrize(
    "lhs, rhs, bound",
    [("a * b", SIX_WIDE, "10,000-clause"), ("a /\\ b", NINE_DEEP, "10,000-member")],
    ids=["clause-bound", "family-bound"],
)
def test_check_proof_rejects_a_hop_past_a_size_bound(lhs, rhs, bound):
    pre, post = parse(lhs, AVARS), parse(rhs, AVARS)
    verdict = check_proof((), Consequence(pre, SkipAxiom(post), post))
    assert not verdict.accepted
    assert verdict.reason.startswith("chk failed for ")
    assert f"the {bound} bound" in verdict.reason


def test_two_validity_identity_modules():
    gamma = make_context([Triple(parse("1|->_"), "noop", parse("1|->_"))])
    impl = build_modules({"noop": Skip()})
    rho = AssertEnv(2, {})
    verdict = two_validity_test(
        gamma,
        (impl, impl),
        rho,
        {},
        parse("1|->_"),
        Call("noop"),
        parse("1|->_"),
        SearchBudget(max_loc=2, values=(0, 1)),
        ValueDomain(values=(0, 1), locations=(1, 2)),
    )
    assert verdict.ok


def test_two_validity_reports_broken_context_triple():
    scenario = load_scenario("counter.scn")
    broken = dict(scenario.impl1)
    broken["inc"] = parse_command("[1] := 7")  # forgets the coupling
    mods = (build_modules(broken), build_modules(scenario.impl2))
    verdict = two_validity_test(
        scenario.gamma,
        mods,
        scenario.rho(),
        scenario.eta,
        scenario.pre,
        scenario.client,
        scenario.post,
        COUNTER_BUDGET,
        COUNTER_BUDGET.domain(),
    )
    assert not verdict.ok
    assert verdict.failed_triple == "inc"


def test_two_validity_err_is_a_violation():
    gamma = make_context([Triple(parse("true"), "boom", parse("true"))])
    impl = build_modules({"boom": parse_command("[1] := 0")})  # faults on []
    verdict = two_validity_test(
        gamma,
        (impl, impl),
        AssertEnv(2, {}),
        {},
        parse("true"),
        Call("boom"),
        parse("true"),
        SearchBudget(max_loc=1, values=(0,)),
        ValueDomain(values=(0,), locations=(1,)),
    )
    assert not verdict.ok
    assert verdict.violation.reason == "execution faulted"


def _implications(d):
    """The (lhs, rhs) pairs an annotated proof's consequence steps gate:
    every side whose two assertions differ."""
    if isinstance(d, Consequence):
        pre_in, _, post_in = conclusion(d.body)
        sides = [(d.pre, pre_in), (post_in, d.post)]
        return [*_implications(d.body), *((l, r) for l, r in sides if l != r)]
    if isinstance(d, SeqRule):
        return [pair for step in d.steps for pair in _implications(step)]
    return []


def _counting_searches(monkeypatch):
    real = hoare.find_counter_env
    searched = []

    def counting(lhs, rhs, *rest):
        searched.append((lhs, rhs))
        return real(lhs, rhs, *rest)

    monkeypatch.setattr(hoare, "find_counter_env", counting)
    return searched


def test_check_proof_gates_only_written_hops(monkeypatch):
    # counter.scn writes no consequence step, so nothing is searched; the
    # one hop goodbad_good.scn writes is searched, and its reflexive post
    # side is not.
    searched = _counting_searches(monkeypatch)
    counter = load_scenario("counter.scn")
    assert check_proof(counter.gamma, counter.derivation(), COUNTER_BUDGET).accepted
    assert searched == []
    good = load_scenario("goodbad_good.scn")
    derivation = good.derivation()
    assert check_proof(good.gamma, derivation, GOODBAD_BUDGET).accepted
    avars = frozenset({"a", "b"})
    hop = (parse("1|->_ /\\ a*b", avars), parse("1|->_"))
    assert searched == _implications(derivation) == [hop]


def test_check_proof_rejection_at_the_written_hop(monkeypatch):
    searched = _counting_searches(monkeypatch)
    bad = load_scenario("goodbad_bad.scn")
    verdict = check_proof(bad.gamma, bad.derivation(), GOODBAD_BUDGET)
    assert (verdict.accepted, verdict.node) == (False, "root.seq2.pre")
    assert verdict.reason == (
        "chk failed for 1 |-> _ /\\ a * b |= 1 |-> _ * a \\/ 1 |-> _ * b: "
        "a family member fails the criteria"
    )
    assert searched == []  # chk rejects the only written hop before any search


def test_check_proof_known_defect_unchanged():
    # b*b /\ a*a |= a*b is unary invalid, but the default search budget
    # cannot see it, so the consequence is still accepted.
    avars = frozenset({"a", "b"})
    post = parse("a*b", avars)
    d = Consequence(parse("b*b /\\ a*a", avars), SkipAxiom(post), post)
    assert check_proof((), d).describe() == "Accepted (relative to the search bound)"


def test_check_proof_reflexive_gate_still_evaluates():
    # The lhs == rhs shortcut skips chk and the search, but an unbound
    # normal variable is still reported.
    a = parse("x|->_")
    with pytest.raises(UnboundVariable):
        check_proof((), Consequence(a, SkipAxiom(a), a))


def test_violation_notes_output_values_outside_the_domain():
    dom = ValueDomain((0, 1), (1, 2))
    base = "outputs leave the postcondition"
    inputs = (heap((1, 0)), heap((1, 1)))

    def note(outputs, reason=base):
        violation = hoare.Violation("op", inputs, outputs, reason)
        return hoare._note_values_outside(violation, dom).reason

    assert note((heap((1, 3), (2, 1)), heap((1, -1)))) == (
        base + "; output values -1, 3 lie outside the value domain {0, 1}, "
        "so the violation may come from the bound"
    )
    assert note((heap((1, 1)), heap((2, 0)))) == base
    assert note((ERR, heap((1, 5))), "execution faulted") == "execution faulted"
