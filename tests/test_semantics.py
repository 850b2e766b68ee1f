import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import AVARS, SCENARIO_DIR, assertions, gen_rels, naive_interpret
from seplift.catalog import CURATED_SUITE, make_form
from seplift.heap import EMPTY_HEAP, Heap, cells, heap
from seplift.normalize import implication_assertions
from seplift.relations import GenRel, delta, empty, equivalent, included, member, top
from seplift.semantics import (
    DEFAULT_BUDGET,
    SearchBudget,
    ValueDomain,
    _left_bound,
    bounded_heaps,
    env_candidate_count,
    env_valid,
    find_counter_env,
    interpret,
    pc_check,
)
from seplift.syntax import (
    And,
    AssertEnv,
    BoolAtom,
    Exists,
    Forall,
    NonEmptyHeap,
    Or,
    PointsTo,
    PointsToAny,
    Star,
    UnboundVariable,
    assertion_vars,
    parse,
    parse_assertion_file,
)

DOM01 = ValueDomain(values=(0, 1), locations=(1, 2))
SMALL = SearchBudget(max_loc=2, values=(0,))

FAN_LHS = parse("1|->_ /\\ a*b", AVARS)
FAN_RHS = parse("1|->_*a \\/ 1|->_*b", AVARS)
FAN_RHO = AssertEnv(
    2,
    {
        "a": GenRel(2, [(cells(1), EMPTY_HEAP)]),
        "b": GenRel(2, [(EMPTY_HEAP, cells(1))]),
    },
)


def test_interpret_true_false():
    assert interpret(parse("true"), {}, None, 3, DOM01) == top(3)
    assert interpret(parse("false"), {}, None, 2, DOM01) == empty(2)


def test_interpret_points_to():
    rel = interpret(parse("1 |-> 5"), {}, None, 1, DOM01)
    assert rel == GenRel(1, [(heap((1, 5)),)])
    rel2 = interpret(parse("x |-> y"), {"x": 2, "y": 7}, None, 1, DOM01)
    assert rel2 == GenRel(1, [(heap((2, 7)),)])
    # non-positive addresses denote no heap at all
    assert interpret(parse("0 |-> 1"), {}, None, 1, DOM01) == empty(1)


def test_interpret_wildcard_is_existential():
    wild = interpret(parse("1 |-> _"), {}, None, 2, DOM01)
    sugar = interpret(parse("EX z. 1 |-> z"), {}, None, 2, DOM01)
    assert equivalent(wild, sugar)


def test_interpret_fan_meet_contains_pair():
    lhs = interpret(FAN_LHS, {}, FAN_RHO, 2, DOM01)
    assert member(lhs, (cells(1), cells(1)))


def test_interpret_unbound_errors():
    with pytest.raises(UnboundVariable):
        interpret(parse("1 |-> x"), {}, None, 1, DOM01)
    with pytest.raises(UnboundVariable):
        interpret(parse("a", AVARS), {}, AssertEnv(1, {}), 1, DOM01)


@st.composite
def _interpretation_inputs(draw):
    """An arity, an environment for some of a, b (or none) and a binding for
    some of x, y, so that unbound variables of both kinds occur."""
    n = draw(st.sampled_from([1, 2]))
    rho = draw(st.none() | st.dictionaries(
        st.sampled_from(sorted(AVARS)), gen_rels(n)
    ).map(lambda mapping: AssertEnv(n, mapping)))
    eta = draw(st.dictionaries(st.sampled_from(["x", "y"]), st.integers(-1, 3)))
    return n, rho, eta


@settings(max_examples=300)
@given(assertions, _interpretation_inputs())
def test_interpret_matches_naive_interpret(phi, inputs):
    n, rho, eta = inputs
    try:
        want = naive_interpret(phi, tuple(sorted(eta.items())), rho, n, DOM01)
    except UnboundVariable as exc:
        with pytest.raises(UnboundVariable) as raised:
            interpret(phi, eta, rho, n, DOM01)
        assert str(raised.value) == str(exc)
        return
    assert interpret(phi, eta, rho, n, DOM01) == want


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("text", ["1|->_ /\\ a*b |= 1|->_", "1|->_ * true |= 2|->_"])
def test_non_positive_arity_is_rejected(text, n):
    lhs, rhs = (parse(side, AVARS) for side in text.split("|="))
    message = f"arity must be a positive integer, got {n}"
    with pytest.raises(ValueError, match=message):
        find_counter_env(lhs, rhs, {}, n, SMALL)
    with pytest.raises(ValueError, match=message):
        interpret(lhs, {}, None, n, DOM01)


def _primitive_occurrences(phi, values) -> int:
    """Primitive predicates in `phi` after expanding each quantifier over values."""
    if isinstance(phi, (PointsTo, PointsToAny, NonEmptyHeap, BoolAtom)):
        return 1
    if isinstance(phi, (Star, And, Or)):
        return _primitive_occurrences(phi.left, values) + _primitive_occurrences(
            phi.right, values
        )
    if isinstance(phi, (Exists, Forall)):
        return len(values) * _primitive_occurrences(phi.body, values)
    return 0


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        parse_assertion_file((SCENARIO_DIR / "good.imp").read_text()).implications[0],
        tuple(
            parse(side, AVARS)
            for side in "a * (EX x. x|->_) |= (EX y. a * y|->_) \\/ b".split("|=")
        ),
    ],
    ids=["good.imp", "quantified"],
)
def test_each_side_is_compiled_once_per_search(lhs, rhs):
    # Each primitive's diagonal embedding is built when its side is compiled,
    # so the delta count bounds the compilations whatever the environments.
    budget = SearchBudget(max_loc=2, values=(0, 1))
    assert env_candidate_count(2, 2, budget) > 1000
    before = delta.cache_info()
    assert find_counter_env(lhs, rhs, {}, 2, budget) is None
    after = delta.cache_info()
    calls = after.hits + after.misses - before.hits - before.misses
    occurrences = sum(_primitive_occurrences(side, budget.values) for side in (lhs, rhs))
    assert 0 < calls <= occurrences


def test_env_valid_fan_binary_fails():
    assert not env_valid(FAN_LHS, FAN_RHS, {}, FAN_RHO, 2, DOM01)


def test_env_valid_bridge_binary_fails():
    lhs = parse("- * a * b /\\ a * a", AVARS)
    rhs = parse("- * a * a \\/ - * - * b", AVARS)
    rho = AssertEnv(
        2,
        {
            "a": GenRel(2, [(cells(1), EMPTY_HEAP), (cells(2), cells(2))]),
            "b": top(2),
        },
    )
    dom = ValueDomain(values=(0,), locations=(1, 2, 3))
    assert not env_valid(lhs, rhs, {}, rho, 2, dom)
    lhs_rel = interpret(lhs, {}, rho, 2, dom)
    rhs_rel = interpret(rhs, {}, rho, 2, dom)
    witness = (cells(1, 2), cells(2))
    assert member(lhs_rel, witness) and not member(rhs_rel, witness)


@settings(max_examples=30)
@given(assertions)
def test_env_valid_reflexive(phi):
    rho = AssertEnv(2, {v: top(2) for v in assertion_vars(phi)})
    assert env_valid(phi, phi, {"x": 0, "y": 1}, rho, 2, DOM01)


def test_find_counter_env_fan():
    result = find_counter_env(FAN_LHS, FAN_RHS, {}, 2, SMALL)
    assert result is not None
    lhs_rel = interpret(FAN_LHS, {}, result.rho, 2, SMALL.domain())
    rhs_rel = interpret(FAN_RHS, {}, result.rho, 2, SMALL.domain())
    assert member(lhs_rel, result.witness)
    assert not member(rhs_rel, result.witness)


def test_find_counter_env_unary_none_for_fan():
    assert find_counter_env(FAN_LHS, FAN_RHS, {}, 1, SearchBudget(max_loc=3)) is None


def test_find_counter_env_shadow_none():
    form = make_form(
        [("true", "a b"), ("true", "a b b")],
        [("true", "a b b"), ("true", "b b")],
    )
    lhs, rhs = implication_assertions(form)
    assert find_counter_env(lhs, rhs, {}, 2, SMALL) is None


def test_find_counter_env_no_variables():
    lhs = parse("1 |-> 0")
    rhs = parse("2 |-> 0")
    result = find_counter_env(lhs, rhs, {}, 1, SMALL)
    assert result is not None
    assert result.witness == (heap((1, 0)),)


def test_pc_fan_fails():
    verdict = pc_check(
        make_form([("1|->_", ""), ("true", "a b")],
                  [("1|->_", "a"), ("1|->_", "b")]),
        {},
    )
    assert not verdict.holds
    assert verdict.witness.heap == cells(1)


def test_pc_single_conjunct_all_solid_holds():
    verdict = pc_check(
        make_form([("1|->_", "a a")], [("true", "a")]), {}
    )
    assert verdict.holds


def test_pc_false_conjunct_holds_vacuously():
    verdict = pc_check(make_form([("false", "a")], [("1|->_", "a")]), {})
    assert verdict.holds
    assert verdict.combinations_checked == 0


def test_pc_agrees_with_binary_search_on_small_instances():
    # when the condition holds on an exhausted bound for quantifier-free
    # instances, the binary search must come up empty as well
    instances = [
        make_form([("1|->_", "a a")], [("true", "a")]),
        make_form([("true", "a"), ("true", "b")], [("true", "a"), ("true", "b")]),
        make_form([("1|->_", ""), ("true", "a b")],
                  [("1|->_", "a"), ("1|->_", "b")]),
    ]
    for form in instances:
        lhs, rhs = implication_assertions(form)
        holds = pc_check(form, {}, SMALL).holds
        if holds:
            assert find_counter_env(lhs, rhs, {}, 2, SMALL) is None


def test_domain_monotonicity():
    small = ValueDomain(values=(0,), locations=(1, 2))
    large = ValueDomain(values=(0, 1), locations=(1, 2))
    exists = parse("EX z. 1 |-> z")
    forall = parse("ALL z. 1 |-> z")
    assert included(
        interpret(exists, {}, None, 1, small), interpret(exists, {}, None, 1, large)
    )
    assert included(
        interpret(forall, {}, None, 1, large), interpret(forall, {}, None, 1, small)
    )


def _diag_env(rho: AssertEnv, n: int) -> AssertEnv:
    return AssertEnv(n, {name: delta(n, rel) for name, rel in rho.items()})


@settings(max_examples=60)
@given(assertions, gen_rels(1), gen_rels(1))
def test_diagonal_embedding_commutes_with_interpretation(phi, p, q):
    rho1 = AssertEnv(1, {"a": p, "b": q})
    for n in (2, 3):
        lifted = interpret(phi, {"x": 0, "y": 1}, _diag_env(rho1, n), n, DOM01)
        unary = interpret(phi, {"x": 0, "y": 1}, rho1, 1, DOM01)
        assert equivalent(delta(n, unary), lifted)


def test_bounded_heaps_sorted_and_complete():
    heaps = bounded_heaps(2, (0, 1))
    assert heaps[0] == EMPTY_HEAP
    assert len(heaps) == 9
    assert heaps == sorted(heaps, key=Heap.sort_key)
    assert len(bounded_heaps(2, (0, 1), max_cells=1)) == 5


# The .imp files at the arities their header comments name: fan and bridge
# are binary invalid, scaled is binary valid and ternary invalid.
IMP_ARITIES = {"bridge": (1, 2), "fan": (1, 2), "good": (1, 2), "scaled": (1, 2, 3)}


def test_first_refutation_keeps_each_variable_within_its_left_occurrence_bound():
    # A refutation (rho, h) shrinks: keeping only the generators of rho(a)
    # that h's left generator uses keeps h on the left and off the right,
    # with fewer generators in all.  The search visits environments by total
    # generator count, so the first refutation it returns is already shrunk:
    # the search caps each variable at `_left_bound`, and no generator of
    # the returned environment can be dropped.
    cases = [
        (*implication_assertions(entry.form), {}, n)
        for entry in CURATED_SUITE
        for n in (1, 2)
    ]
    for name, arities in IMP_ARITIES.items():
        doc = parse_assertion_file((SCENARIO_DIR / f"{name}.imp").read_text(encoding="utf-8"))
        cases += [(*doc.implications[0], doc.eta, n) for n in arities]
    dom = DEFAULT_BUDGET.domain()
    refuted = []
    for lhs, rhs, eta, n in cases:
        found = find_counter_env(lhs, rhs, eta, n)
        if found is None:
            continue
        refuted.append(n)
        for name, rel in found.rho.items():
            assert len(rel.generators) <= _left_bound(lhs, name, len(dom.values))
            # without any one of its generators the witness leaves the left side
            for gen in rel.generators:
                fewer = AssertEnv(n, {**found.rho.mapping, name: GenRel(n, rel.generators - {gen})})
                assert not member(interpret(lhs, eta, fewer, n, dom), found.witness)
    assert 3 in refuted and len(refuted) >= 5
