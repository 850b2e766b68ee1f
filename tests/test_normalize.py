import random

import pytest
from hypothesis import given, settings

from conftest import AVARS, assertions, gen_rels
from seplift import normalize
from seplift.catalog import make_form
from seplift.normalize import (
    MAX_CLAUSES,
    MAX_FAMILY,
    Clause,
    ImplicationForm,
    SimpleAssertion,
    clause_assertion,
    format_implication,
    implication_assertions,
    reduce_implication,
    simple_assertion,
    to_simple,
)
from seplift.relations import GenRel, included
from seplift.semantics import ValueDomain, interpret
from seplift.syntax import (
    AssertEnv,
    Exists,
    FalseLit,
    IntLit,
    PointsTo,
    TrueLit,
    assertion_vars,
    parse,
    pretty,
)
from seplift.heap import Heap

DOM = ValueDomain(values=(0, 1), locations=(1, 2))


def test_already_simple():
    simple = to_simple(parse("1|->_ /\\ a * b", AVARS))
    assert simple is not None
    assert len(simple.disjuncts) == 1
    conjuncts = simple.disjuncts[0]
    assert len(conjuncts) == 2
    assert conjuncts[0].avars == ()
    assert conjuncts[1] == Clause(TrueLit(), ("a", "b"))


def test_star_distributes_over_or():
    simple = to_simple(parse("(1|->0 \\/ 2|->0) * a", AVARS))
    assert simple is not None
    assert len(simple.disjuncts) == 2
    for conj in simple.disjuncts:
        assert len(conj) == 1
        assert conj[0].avars == ("a",)


def test_conjunction_inside_star_is_not_simple():
    phi = parse("((1|->0 * a) /\\ (2|->0 * b)) * (3|->0 * a)", AVARS)
    assert to_simple(phi) is None


def test_forall_over_variables_is_not_simple():
    assert to_simple(parse("ALL x. 1|->x * a", AVARS)) is None
    # but a variable-free forall is a perfectly good base
    simple = to_simple(parse("(ALL x. 1|->x) * a", AVARS))
    assert simple is not None


def test_exists_moves_onto_base():
    simple = to_simple(parse("EX x. 1|->x * a", AVARS))
    assert simple is not None
    clause = simple.disjuncts[0][0]
    assert clause.avars == ("a",)
    assert clause.base == Exists("x", PointsTo(parse_expr_one(), var_x()))


def parse_expr_one():
    from seplift.syntax import IntLit

    return IntLit(1)


def var_x():
    from seplift.syntax import VarRef

    return VarRef("x")


def test_false_collapses():
    simple = to_simple(parse("false * a \\/ 1|->_", AVARS))
    assert simple is not None
    assert len(simple.disjuncts) == 1


def test_reduce_fan_single_member():
    lhs = to_simple(parse("1|->_ /\\ a*b", AVARS))
    rhs = to_simple(parse("1|->_*a \\/ 1|->_*b", AVARS))
    family = reduce_implication(lhs, rhs)
    assert len(family) == 1
    form = family[0]
    assert len(form.conjuncts) == 2
    assert len(form.disjuncts) == 2
    assert form.variables == ("a", "b")


def test_reduce_drops_foreign_disjuncts():
    avars = frozenset({"a", "c"})
    lhs = to_simple(parse("true * a", avars))
    rhs = to_simple(parse("true * a \\/ true * c", avars))
    (form,) = reduce_implication(lhs, rhs)
    assert len(form.disjuncts) == 1
    assert form.disjuncts[0].avars == ("a",)


def test_reduce_false_rhs():
    avars = frozenset({"a", "c"})
    lhs = to_simple(parse("true * a", avars))
    rhs = to_simple(parse("true * c", avars))
    (form,) = reduce_implication(lhs, rhs)
    assert form.disjuncts == ()
    lhs_back, rhs_back = implication_assertions(form)
    assert rhs_back == FalseLit()


def test_to_simple_asks_variable_freeness_once_per_clause(monkeypatch):
    # a left-nested 300-factor chain: asking at every node would make 300
    # calls, each walking the whole subtree below it; `Clause` asks once
    phi = parse(" * ".join(["a"] * 300 + ["1|->_"]), AVARS)
    expected = [Clause(parse("1|->_"), ("a",) * 300)]
    calls = []
    holds_avar = normalize._holds_avar

    def counting(a):
        calls.append(a)
        return holds_avar(a)

    monkeypatch.setattr(normalize, "_holds_avar", counting)
    simple = to_simple(phi)
    clauses = [c for conj in simple.disjuncts for c in conj]
    assert clauses == expected
    assert len(calls) <= len(clauses)


@settings(max_examples=150)
@given(assertions)
def test_clause_rejects_a_base_exactly_when_it_holds_a_variable(phi):
    if assertion_vars(phi):
        with pytest.raises(ValueError, match="must not contain assertion variables"):
            Clause(phi, ())
    else:
        assert Clause(phi, ("b", "a")).avars == ("a", "b")


def test_to_simple_gives_up_past_the_clause_bound():
    # a conjunction of k ten-way disjunctions has 10**k disjuncts in DNF;
    # k is the largest count within the bound
    ten_way = " \\/ ".join(f"{i}|->_ * a" for i in range(1, 11))
    k = 1
    while 10 ** (k + 1) <= MAX_CLAUSES:
        k += 1
    at_bound = to_simple(parse(" /\\ ".join([f"({ten_way})"] * k), AVARS))
    assert at_bound is not None and len(at_bound.disjuncts) == 10**k
    past = parse(" /\\ ".join([f"({ten_way})"] * (k + 1)), AVARS)
    assert to_simple(past) is None


def test_reduce_implication_raises_past_the_family_bound():
    lhs = SimpleAssertion(((Clause(TrueLit(), ("a",)),),))
    wide = tuple(
        Clause(PointsTo(IntLit(i), IntLit(0)), ("a",))
        for i in range(1, MAX_FAMILY + 1)
    )
    assert len(reduce_implication(lhs, SimpleAssertion((wide,)))) == MAX_FAMILY
    two_lhs = SimpleAssertion(lhs.disjuncts * 2)
    with pytest.raises(ValueError, match="family size bound"):
        reduce_implication(two_lhs, SimpleAssertion((wide,)))


def test_reduce_cnf_splitting():
    # two disjuncts with two conjuncts each: the right-hand side contributes
    # a clause per choice function
    avars = frozenset({"a", "b"})
    lhs = to_simple(parse("true * a * b", avars))
    rhs = to_simple(
        parse("(1|->_ * a /\\ 2|->_ * b) \\/ (3|->_ * b /\\ true * a)", avars)
    )
    family = reduce_implication(lhs, rhs)
    assert len(family) == 4
    for form in family:
        assert len(form.disjuncts) == 2


def test_implication_form_validates_rhs_vars():
    with pytest.raises(ValueError):
        ImplicationForm(
            (Clause(TrueLit(), ("a",)),), (Clause(TrueLit(), ("b",)),)
        )


def test_format_round_trip_through_parser():
    form = make_form(
        [("1|->_", ""), ("true", "a b")], [("1|->_", "a"), ("1|->_", "b")]
    )
    text = format_implication(form)
    assert "|=" in text
    lhs_text, rhs_text = text.split("|=")
    assert parse(lhs_text, AVARS) is not None
    assert parse(rhs_text, AVARS) is not None


def _random_env(rng, n, variables):
    heaps = [Heap({}), Heap({1: 0}), Heap({2: 0}), Heap({1: 0, 2: 0}), Heap({2: 1})]
    mapping = {}
    for v in variables:
        gens = []
        for _ in range(rng.randint(0, 2)):
            gens.append(tuple(rng.choice(heaps) for _ in range(n)))
        mapping[v] = GenRel(n, gens)
    return AssertEnv(n, mapping)


@settings(max_examples=60)
@given(assertions)
def test_to_simple_preserves_meaning(phi):
    simple = to_simple(phi)
    if simple is None:
        return
    back = simple_assertion(simple)
    rng = random.Random(20240301)
    variables = sorted(assertion_vars(phi))
    for n in (1, 2):
        for _ in range(3):
            rho = _random_env(rng, n, variables)
            left = interpret(phi, {"x": 0, "y": 1}, rho, n, DOM)
            right = interpret(back, {"x": 0, "y": 1}, rho, n, DOM)
            assert included(left, right) and included(right, left)


def test_family_validity_matches_original():
    # per-environment equivalence between an implication and its family, on
    # pairs whose right side introduces no fresh variables (the dropped-
    # disjunct rewrite is an equivalence only under full environment
    # quantification, so such pairs are tested one-way elsewhere)
    rng = random.Random(7)
    bases = ["true", "-", "1|->_"]
    for _ in range(10):
        lhs_text = " /\\ ".join(
            _clause_text(rng, bases) for _ in range(rng.randint(1, 2))
        )
        rhs_text = " \\/ ".join(
            _clause_text(rng, bases) for _ in range(rng.randint(1, 2))
        )
        lhs = parse(lhs_text, AVARS)
        rhs = parse(rhs_text, AVARS)
        if not assertion_vars(rhs) <= assertion_vars(lhs):
            continue
        family = reduce_implication(to_simple(lhs), to_simple(rhs))
        for n in (1, 2):
            for _ in range(3):
                rho = _random_env(rng, n, sorted(AVARS))
                original = included(
                    interpret(lhs, {}, rho, n, DOM), interpret(rhs, {}, rho, n, DOM)
                )
                members = all(
                    included(
                        interpret(ml, {}, rho, n, DOM),
                        interpret(mr, {}, rho, n, DOM),
                    )
                    for ml, mr in map(implication_assertions, family)
                )
                assert original == members


def _clause_text(rng, bases):
    base = rng.choice(bases)
    vars_part = "".join(
        f" * {rng.choice(['a', 'b'])}" for _ in range(rng.randint(0, 2))
    )
    return base + vars_part
