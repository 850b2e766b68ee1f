import pytest
from hypothesis import example, given, settings

from conftest import AVARS, assertions
from seplift.relations import top
from seplift.syntax import (
    And,
    AssertEnv,
    AVar,
    BoolAtom,
    Exists,
    Forall,
    IntLit,
    NonEmptyHeap,
    Or,
    ParseError,
    PointsTo,
    PointsToAny,
    Star,
    SubExpr,
    TrueLit,
    UnboundVariable,
    VarRef,
    eval_bool,
    eval_expr,
    free_vars,
    assertion_vars,
    parse,
    parse_assertion_file,
    parse_expr,
    parse_header,
    pretty,
    _pretty,
)


def test_parse_precedence_conj_over_star():
    node = parse("1|->_ /\\ a * b", AVARS)
    assert node == And(PointsToAny(IntLit(1)), Star(AVar("a"), AVar("b")))


def test_parse_disjunction_of_stars():
    node = parse("1|->_ * a \\/ 1|->_ * b", AVARS)
    assert node == Or(
        Star(PointsToAny(IntLit(1)), AVar("a")),
        Star(PointsToAny(IntLit(1)), AVar("b")),
    )


def test_parse_existential_wildcard_desugaring():
    explicit = parse("EX x. 1 |-> x")
    assert explicit == Exists("x", PointsTo(IntLit(1), VarRef("x")))
    # same meaning as the wildcard arrow, checked in the semantics tests
    assert parse("1 |-> _") == PointsToAny(IntLit(1))


def test_quantifier_extends_right():
    node = parse("EX x. 1|->x \\/ 2|->x")
    assert isinstance(node, Exists)
    assert isinstance(node.body, Or)


def test_nonempty_atom_vs_minus():
    assert parse("- * a", AVARS) == Star(NonEmptyHeap(), AVar("a"))
    assert parse("1 - 1 |-> 0") == PointsTo(SubExpr(IntLit(1), IntLit(1)), IntLit(0))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse("1|->_ /\\ (a * ", AVARS)
    assert exc.value.position >= 10
    with pytest.raises(ParseError):
        parse("c * a", AVARS)  # c undeclared
    with pytest.raises(ParseError):
        parse("1|->_ extra", AVARS)


def test_boolatom_parsing():
    node = parse("x = 0")
    assert node == BoolAtom("=", VarRef("x"), IntLit(0))
    assert eval_bool(node, {"x": 0})
    assert not eval_bool(node, {"x": 2})


_PYTHON_COMPARISONS = {
    "=": lambda x, y: x == y,
    "!=": lambda x, y: x != y,
    "<": lambda x, y: x < y,
    "<=": lambda x, y: x <= y,
    ">": lambda x, y: x > y,
    ">=": lambda x, y: x >= y,
}
_SMALL = range(-2, 3)


@pytest.mark.parametrize("op", sorted(_PYTHON_COMPARISONS))
def test_every_comparison_agrees_with_python_and_its_negation(op):
    atom = parse(f"x {op} y")
    assert atom == BoolAtom(op, VarRef("x"), VarRef("y"))
    assert atom.negated().negated() == atom
    for x in _SMALL:
        for y in _SMALL:
            eta = {"x": x, "y": y}
            assert eval_bool(atom, eta) == _PYTHON_COMPARISONS[op](x, y)
            assert eval_bool(atom.negated(), eta) != eval_bool(atom, eta)


def test_unknown_comparison_is_an_error_after_both_sides():
    with pytest.raises(UnboundVariable):
        eval_bool(BoolAtom("<>", VarRef("x"), IntLit(0)), {})
    with pytest.raises(ValueError, match="unknown comparison '<>'"):
        eval_bool(BoolAtom("<>", VarRef("x"), IntLit(0)), {"x": 0})


def test_expr_eval():
    e = parse_expr("x + 2 - -y")
    assert eval_expr(e, {"x": 1, "y": 3}) == 6


def test_free_vars_respect_binders():
    node = parse("EX x. 1|->x /\\ 2|->y")
    assert free_vars(node) == {"y"}
    assert free_vars(parse("ALL y. 1 |-> y")) == frozenset()
    assert assertion_vars(parse("a * (b \\/ a)", AVARS)) == {"a", "b"}


@settings(max_examples=200)
@given(assertions)
def test_parse_pretty_round_trip(node):
    assert parse(pretty(node), AVARS) == node


def recursive_pretty(a, level=0, tail=True) -> str:
    """The printer before it read left spines with a loop: one recursive call
    per binary node, at levels 0 (or) to 3 (atom).  Atoms print as before."""
    if isinstance(a, Or):
        text = f"{recursive_pretty(a.left, 0, False)} \\/ {recursive_pretty(a.right, 1, tail)}"
        return f"({text})" if level > 0 else text
    if isinstance(a, And):
        text = f"{recursive_pretty(a.left, 1, False)} /\\ {recursive_pretty(a.right, 2, tail)}"
        return f"({text})" if level > 1 else text
    if isinstance(a, Star):
        text = f"{recursive_pretty(a.left, 2, False)} * {recursive_pretty(a.right, 3, tail)}"
        return f"({text})" if level > 2 else text
    if isinstance(a, (Forall, Exists)):
        word = "ALL" if isinstance(a, Forall) else "EX"
        text = f"{word} {a.var}. {recursive_pretty(a.body, 0, True)}"
        return text if tail else f"({text})"
    return _pretty(a, level, tail)


@settings(max_examples=300)
@given(assertions)
@example(Star(Star(AVar("a"), Exists("x", AVar("b"))), AVar("a")))
@example(Or(Or(Forall("x", AVar("a")), Exists("y", AVar("b"))), And(AVar("a"), Star(AVar("b"), AVar("a")))))
@example(And(And(Star(Or(AVar("a"), AVar("b")), AVar("a")), AVar("b")), Exists("x", AVar("a"))))
def test_pretty_prints_like_the_recursive_printer(node):
    assert pretty(node) == recursive_pretty(node)


def test_pretty_minimal_parens():
    assert pretty(parse("a * b /\\ a", AVARS)) == "a * b /\\ a"
    assert pretty(parse("(a \\/ b) * a", AVARS)) == "(a \\/ b) * a"
    assert pretty(TrueLit()) == "true"
    assert pretty(parse("false")) == "false"


def test_assert_env_arity_checked():
    with pytest.raises(ValueError):
        AssertEnv(2, {"a": top(1)})
    env = AssertEnv(2, {"a": top(2)})
    assert "a" in env and "b" not in env


def test_assertion_file():
    doc = parse_assertion_file(
        """
        # demo file
        avars: a, b
        env: x=3, y=0
        1 |-> x
        1|->_ /\\ a*b |= 1|->_
        """
    )
    assert doc.avars == {"a", "b"}
    assert doc.eta == {"x": 3, "y": 0}
    assert len(doc.assertions) == 1
    assert len(doc.implications) == 1
    lhs, rhs = doc.implications[0]
    assert assertion_vars(lhs) == {"a", "b"}
    assert assertion_vars(rhs) == frozenset()


def test_assertion_file_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_assertion_file("avars: a\n\n((a\n")
    assert "line 3" in str(exc.value)


def test_assertion_file_error_names_text_and_offset_once():
    with pytest.raises(ParseError) as exc:
        parse_assertion_file("avars: a\n\n((a\n")
    text = str(exc.value)
    assert text == "line 3: expected ')' at offset 3: '((a'"
    assert text.count("((a") == 1 and text.count("offset") == 1
    assert exc.value.position == 3


def test_parse_header_folds_lines():
    avars, eta = parse_header("avars", " a, b,", frozenset(), {})
    avars, eta = parse_header("avars", "c", avars, eta)
    avars, eta = parse_header("env", "x=3, y = -1", avars, eta)
    avars, eta = parse_header("env", "x=4", avars, eta)
    assert avars == {"a", "b", "c"}
    assert eta == {"x": 4, "y": -1}
    with pytest.raises(ValueError):
        parse_header("vals", "0", avars, eta)


def test_assertion_file_and_scenario_share_headers():
    from seplift.scenarios import parse_scenario

    header = "avars: a, b\nenv: x=1\n"
    doc = parse_assertion_file(header + "1|->x * a |= 1|->x * a\n")
    scenario = parse_scenario(header + "client: skip\npre: true\npost: true\n")
    assert (doc.avars, dict(doc.eta)) == (scenario.avars, scenario.eta)


@pytest.mark.parametrize("binding", ["x", "x=", "=3", "x=three", "x=1.5"])
def test_env_binding_errors_name_the_binding(binding):
    message = f"env binding {binding!r} needs the form name=int"
    with pytest.raises(ValueError) as exc:
        parse_header("env", f"y=0, {binding}", frozenset(), {})
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        parse_assertion_file(f"avars: a\nenv: {binding}\na |= a\n")
    assert str(exc.value) == f"line 2: {message}"
    from seplift.scenarios import parse_scenario

    with pytest.raises(ValueError) as exc:
        parse_scenario(f"env: {binding}\nclient: skip\npre: true\npost: true\n")
    assert str(exc.value) == message


def test_env_binding_accepts_signed_integers():
    _, eta = parse_header("env", "x = -2, y=+3", frozenset(), {})
    assert eta == {"x": -2, "y": 3}


# (header key, header body, the message's kind and word, how it fails)
BAD_NAMES = [
    ("avars", "a, 1", "assertion variable '1'", "is not an identifier"),
    ("avars", "a, true", "assertion variable 'true'", "is a reserved word"),
    ("avars", "EX", "assertion variable 'EX'", "is a reserved word"),
    ("avars", "a b", "assertion variable 'a b'", "is not an identifier"),
    ("avars", "_", "assertion variable '_'", "is a reserved word"),
    ("env", "2=3", "normal variable '2'", "is not an identifier"),
    ("env", "x=1, false=0", "normal variable 'false'", "is a reserved word"),
    ("env", "x-y=1", "normal variable 'x-y'", "is not an identifier"),
]


@pytest.mark.parametrize("key, body, kind, failure", BAD_NAMES)
def test_header_names_must_be_identifiers(key, body, kind, failure):
    from seplift.scenarios import parse_scenario

    message = f"{kind} {failure}"
    with pytest.raises(ValueError) as exc:
        parse_header(key, body, frozenset(), {})
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        parse_assertion_file(f"# names\n{key}: {body}\n1|->_ |= 1|->_\n")
    assert str(exc.value) == f"line 2: {message}"
    with pytest.raises(ValueError) as exc:
        parse_scenario(f"{key}: {body}\nclient: skip\npre: true\npost: true\n")
    assert str(exc.value) == message


def test_header_accepts_identifier_names():
    avars, eta = parse_header("avars", "a, b_2, c'", frozenset(), {})
    _, eta = parse_header("env", "x_1=0, X=2", avars, eta)
    assert avars == {"a", "b_2", "c'"}
    assert eta == {"x_1": 0, "X": 2}
