"""2-validity against a naive framed reference, and run counting.

``naive_check_binary_triple`` is the straightforward framed reading of the
binary triple check: for every generator pair and every pair of frames
disjoint from it, build both inputs, run both implementations, and look for
a post generator whose composition with the frame the outputs extend.  It
builds every heap it tests and runs the implementations once per pair.  It
reports the number of in-budget generator pairs it entered, which is what
``pairs_checked`` counts, so whole verdicts can be compared.  The fast check
runs no frame at all; that commands are local actions makes the two agree,
and the reference asserts the first half of that argument directly: its
first violation is always found at the empty frame pair.
"""

from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import COMMAND_ETA, commands, load_scenario
from seplift import hoare
from seplift.heap import EMPTY_HEAP, Heap, compose, heap
from seplift.hoare import (
    ERR,
    Call,
    LetRead,
    Triple,
    Violation,
    Write,
    build_modules,
    make_context,
    two_validity_test,
)
from seplift.relations import GenRel, tuple_compose, tuple_extends
from seplift.scenarios import parse_command, parse_scenario
from seplift.semantics import SearchBudget, bounded_heaps, interpret
from seplift.syntax import AssertEnv, IntLit, VarRef, parse


def naive_in_post_with_frame(post_rel, frame, outputs):
    for gen in post_rel.generators:
        combined = tuple_compose(gen, frame)
        if combined is not None and tuple_extends(combined, outputs):
            return True
    return False


def naive_check_binary_triple(location, pre, run1, run2, post, rho, eta, budget, dom):
    pre_rel = interpret(pre, eta, rho, 2, dom)
    post_rel = interpret(post, eta, rho, 2, dom)
    frames = bounded_heaps(budget.max_loc, budget.values)
    checked = 0  # in-budget generator pairs entered
    for g1, g2 in pre_rel.sorted_generators():
        if not (budget.admits(g1) and budget.admits(g2)):
            continue
        checked += 1
        frames1 = [f for f in frames if compose(g1, f) is not None]
        frames2 = [f for f in frames if compose(g2, f) is not None]
        for f0 in frames1:
            f = compose(g1, f0)
            for g0 in frames2:
                g = compose(g2, g0)
                out1 = run1(f)
                out2 = run2(g)
                if out1 is ERR or out2 is ERR:
                    reason = "execution faulted"
                elif not naive_in_post_with_frame(post_rel, (f0, g0), (out1, out2)):
                    reason = "outputs leave the postcondition"
                else:
                    continue
                # No framed input of this pair can fail before the unframed one.
                assert (f0, g0) == (EMPTY_HEAP, EMPTY_HEAP)
                return Violation(location, (f, g), (out1, out2), reason), checked
    return None, checked


# Generator pairs share left heaps, and 1|->0 * 2|->0 is reached from both
# the a-generators and the 2|->_ generators, so input heaps recur across
# generators as well as across frames.
MANY_TO_MANY = """\
avars: a
context:
  {a \\/ 2|->_} op {a \\/ 2|->_}
impl1:
  op: skip
impl2:
  op: if 0 = 0 { skip } else { [1] := 0 }
coupling:
  a: { ([1:0],[1:0]), ([1:0],[1:1]), ([1:1],[1:0]) }
client: op; op
pre: a \\/ 2|->_
post: a \\/ 2|->_
"""


def _load(file):
    return parse_scenario(MANY_TO_MANY) if file == "MANY_TO_MANY" else load_scenario(file)


def _validity(scenario, values, modules=None):
    budget = SearchBudget(3, values)
    return two_validity_test(
        scenario.gamma,
        modules or scenario.modules(),
        scenario.rho(),
        scenario.eta,
        scenario.pre,
        scenario.client,
        scenario.post,
        budget,
        budget.domain(),
    )


def _broken_impl2(scenario, op, body):
    impl2 = {**scenario.impl2, op: parse_command(body)}
    return build_modules(scenario.impl1, scenario.eta), build_modules(impl2, scenario.eta)


# (scenario file, values, broken impl2 operation and body or None)
CASES = [
    ("counter.scn", (-1, 0, 1), None),
    ("counter.scn", (0, 1), None),
    ("counter.scn", (-2, -1, 0, 1, 2), None),
    ("counter.scn", (-1, 0, 1), ("nxt", "skip")),
    ("counter.scn", (-1, 0, 1), ("dec", "[2] := 0")),
    ("goodbad_good.scn", (0, 1, 2), None),
    ("goodbad_good.scn", (0, 1), None),
    ("goodbad_good.scn", (-1, 0, 1, 2), None),
    ("goodbad_good.scn", (0, 1, 2), ("fin", "[1] := 0")),
    ("goodbad_bad.scn", (0, 1, 2), None),
    ("goodbad_bad.scn", (0, 1), None),
    ("goodbad_bad.scn", (0, 1, 2), ("badfin", "[1] := 1")),
    ("MANY_TO_MANY", (0, 1), None),
    ("MANY_TO_MANY", (0, 1, 2), None),
    ("MANY_TO_MANY", (0, 1), ("op", "[1] := 1")),
]


@pytest.mark.parametrize("file, values, broken", CASES)
def test_matches_naive_reference(monkeypatch, file, values, broken):
    scenario = _load(file)
    modules = _broken_impl2(scenario, *broken) if broken else None
    fast = _validity(scenario, values, modules)
    monkeypatch.setattr(hoare, "_check_binary_triple", naive_check_binary_triple)
    naive = _validity(scenario, values, modules)
    assert fast == naive
    assert fast.describe() == naive.describe()


def test_reference_cases_cover_every_outcome(monkeypatch):
    """The cases include a pass, a context-triple failure, a fault, a client
    failure and an output value outside the domain."""
    monkeypatch.setattr(hoare, "_check_binary_triple", naive_check_binary_triple)
    outcomes = set()
    for file, values, broken in CASES:
        scenario = _load(file)
        modules = _broken_impl2(scenario, *broken) if broken else None
        verdict = _validity(scenario, values, modules)
        if verdict.ok:
            outcomes.add("ok")
        else:
            outcomes.add("triple" if verdict.failed_triple else "client")
            reason, _, note = verdict.violation.reason.partition("; ")
            outcomes.add(reason)
            if "outside the value domain" in note:
                outcomes.add("output outside the value domain")
    assert outcomes == {
        "ok",
        "triple",
        "client",
        "execution faulted",
        "outputs leave the postcondition",
        "output outside the value domain",
    }


@pytest.mark.parametrize(
    "file, values",
    [("counter.scn", (-1, 0, 1)), ("goodbad_good.scn", (0, 1, 2)), ("MANY_TO_MANY", (0, 1))],
)
def test_each_side_runs_once_per_checked_pair(monkeypatch, file, values):
    real = hoare._check_binary_triple
    runs = []  # per triple check: (runs of impl1, runs of impl2, pairs checked)

    def counting(location, pre, run1, run2, *rest):
        counts = [0, 0]

        def wrap(run, side):
            def counted(h):
                counts[side] += 1
                return run(h)

            return counted

        violation, checked = real(location, pre, wrap(run1, 0), wrap(run2, 1), *rest)
        runs.append((*counts, checked))
        return violation, checked

    monkeypatch.setattr(hoare, "_check_binary_triple", counting)
    verdict = _validity(_load(file), values)
    assert verdict.ok
    assert sum(checked for _, _, checked in runs) == verdict.pairs_checked > 0
    for runs1, runs2, checked in runs:
        assert runs1 == runs2 == checked


# Operations written as heap functions need not be local actions, so the
# frame-free check cannot rely on them and must refuse them.
def _alloc_1(h):
    return h if 1 in h else Heap({**dict(h.cells), 1: 0})


def _drop_2(h):
    return Heap({loc: val for loc, val in h.cells if loc != 2})


def _identity(h):
    return h


# a relates [1|->0] on the left to [] on the right, so its post generator
# can overlap a left frame while the right side is always fine.
LEFT_ONLY = {"a": GenRel(2, [(heap((1, 0)), EMPTY_HEAP)])}

NON_LOCAL = [
    ("true", "1|->_", _alloc_1, _alloc_1, {}),
    ("true", "a", _alloc_1, _identity, LEFT_ONLY),
    ("true", "true", _identity, _drop_2, {}),
    ("true", "true", _drop_2, _identity, {}),
]


@pytest.mark.parametrize("pre, post, op1, op2, coupling", NON_LOCAL)
def test_operations_not_built_from_commands_are_rejected(pre, post, op1, op2, coupling):
    budget = SearchBudget(2, (0, 1))
    pre, post = parse(pre, frozenset(coupling)), parse(post, frozenset(coupling))
    gamma = make_context([Triple(pre, "op", post)])
    with pytest.raises(TypeError, match="'op' is not built by build_modules"):
        two_validity_test(
            gamma, ({"op": op1}, {"op": op2}), AssertEnv(2, coupling), {}, pre,
            Call("op"), post, budget, budget.domain(),
        )


# One-operation scenarios from random command bodies, checked with and
# without frames.  Locations 1..2 and values 0..1 keep the framed loop small.
DIFF_BUDGET = SearchBudget(2, (0, 1))
DIFF_ASSERTIONS = ["true", "1|->_", "1|->0", "a", "a * 2|->_", "1|->_ \\/ a", "1|->_ * 2|->_"]
_diff_heaps = st.dictionaries(st.integers(1, 2), st.integers(0, 1), max_size=2).map(Heap)
_diff_couplings = st.frozensets(st.tuples(_diff_heaps, _diff_heaps), max_size=3).map(
    lambda gens: GenRel(2, gens)
)


@settings(max_examples=200)
@given(
    commands,
    commands,
    st.sampled_from(DIFF_ASSERTIONS),
    st.sampled_from(DIFF_ASSERTIONS),
    st.sampled_from(DIFF_ASSERTIONS),
    _diff_couplings,
)
# impl1 reads cell 2, which only a frame can hold.
@example(
    LetRead("y", IntLit(2), Write(IntLit(1), VarRef("y"))),
    Write(IntLit(1), IntLit(0)),
    "1|->_",
    "1|->0",
    "1|->0",
    GenRel(2, []),
)
def test_frame_free_check_matches_framed_reference(
    cmd1, cmd2, pre, post, client_post, coupling
):
    avars = frozenset({"a"})
    pre, post, client_post = (parse(text, avars) for text in (pre, post, client_post))
    gamma = make_context([Triple(pre, "op", post)])
    modules = (
        build_modules({"op": cmd1}, COMMAND_ETA),
        build_modules({"op": cmd2}, COMMAND_ETA),
    )

    def validity():
        return two_validity_test(
            gamma, modules, AssertEnv(2, {"a": coupling}), COMMAND_ETA, pre,
            Call("op"), client_post, DIFF_BUDGET, DIFF_BUDGET.domain(),
        )

    fast = validity()
    with patch.object(hoare, "_check_binary_triple", naive_check_binary_triple):
        naive = validity()
    assert (fast.ok, fast.failed_triple, fast.violation) == (
        naive.ok, naive.failed_triple, naive.violation
    )
    assert fast.pairs_checked == naive.pairs_checked
