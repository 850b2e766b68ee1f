"""The parser and `to_simple` against the slower front end they replaced.

`naive_tokenize` is the tokenizer that matched one token or whitespace run
at a time and built a frozen dataclass per token.  `NaiveParser` reads every
bare identifier through the expression path before it becomes an `AVar`.
`naive_to_simple` asks `assertion_vars` at every node whether the subtree is
variable-free.  Token streams, ASTs, `ParseError` fields and `to_simple`
results must be equal on the scenario files, the curated suite, generated
assertions and malformed inputs.
"""

import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings

from conftest import AVARS, SCENARIO_DIR, assertions
from seplift.catalog import CURATED_SUITE
from seplift.normalize import (
    Clause,
    SimpleAssertion,
    _Blowup,
    _check_size,
    format_implication,
    to_simple,
)
from seplift.syntax import (
    _CMP_OPS,
    _KEYWORDS,
    And,
    Assertion,
    AVar,
    Exists,
    FalseLit,
    Forall,
    NonEmptyHeap,
    Or,
    ParseError,
    Star,
    TrueLit,
    VarRef,
    _Parser,
    _tokenize,
    assertion_vars,
    parse,
    pretty,
    star_all,
)

# --- naive references ---------------------------------------------------------

_NAIVE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>\|->|\|=|:=|/\\|\\/|<=|>=|!=|[-+*().,_=<>\[\]{};])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _NaiveToken:
    kind: str
    text: str
    pos: int


def naive_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _NAIVE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character", pos, text)
        if m.lastgroup != "ws":
            tokens.append(_NaiveToken(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_NaiveToken("eof", "", len(text)))
    return tokens


class NaiveParser(_Parser):
    def __init__(self, text, avars):
        self.text = text
        self.avars = avars
        self.tokens = naive_tokenize(text)
        self.index = 0

    def atom(self):
        tok = self.peek()
        if tok.text == "true":
            self.advance()
            return TrueLit()
        if tok.text == "false":
            self.advance()
            return FalseLit()
        if tok.text in ("ALL", "EX"):
            self.advance()
            name = self.peek()
            if name.kind != "ident" or name.text in _KEYWORDS:
                raise self.error("expected a variable after quantifier")
            if name.text in self.avars:
                raise self.error("quantifier cannot bind an assertion variable")
            self.advance()
            self.expect(".")
            body = self.or_level()
            return (Forall if tok.text == "ALL" else Exists)(name.text, body)
        if tok.text == "-" and not self._minus_starts_expr():
            self.advance()
            return NonEmptyHeap()
        if tok.text == "(":
            snapshot = self.index
            try:
                expr = self.expr()
                follow = self.peek().text
                if follow == "|->" or follow in _CMP_OPS:
                    return self._after_expr(expr)
            except ParseError:
                pass
            self.index = snapshot
            self.advance()
            node = self.or_level()
            self.expect(")")
            return node
        if tok.kind in ("num", "ident") or tok.text == "-":
            expr = self.expr()
            follow = self.peek().text
            if follow == "|->" or follow in _CMP_OPS:
                return self._after_expr(expr)
            if isinstance(expr, VarRef):
                if expr.name in self.avars:
                    return AVar(expr.name)
                raise self.error(
                    f"bare identifier {expr.name!r} is not a declared assertion "
                    "variable (declare it with 'avars:') and no '|->' follows"
                )
            raise self.error("expression is not an assertion; expected '|->'")
        raise self.error("expected an assertion")


def naive_parse(text, avars=frozenset()):
    parser = NaiveParser(text, frozenset(avars))
    node = parser.assertion()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input after assertion", tok.pos, text)
    return node


def naive_to_simple(phi):
    try:
        dnf = _naive_norm(phi)
    except _Blowup:
        return None
    if dnf is None:
        return None
    return SimpleAssertion(tuple(
        tuple(Clause(star_all(list(bases)), avars) for bases, avars in conj)
        for conj in dnf
    ))


def _naive_norm(a: Assertion):
    if isinstance(a, FalseLit):
        return []
    if isinstance(a, AVar):
        return [[((), (a.name,))]]
    if isinstance(a, Or):
        left = _naive_norm(a.left)
        right = _naive_norm(a.right)
        if left is None or right is None:
            return None
        _check_size(len(left) + len(right))
        return left + right
    if not assertion_vars(a):
        if isinstance(a, TrueLit):
            return [[((), ())]]
        return [[((a,), ())]]
    if isinstance(a, And):
        left = _naive_norm(a.left)
        right = _naive_norm(a.right)
        if left is None or right is None:
            return None
        _check_size(len(left) * len(right))
        return [lc + rc for lc in left for rc in right]
    if isinstance(a, Star):
        left = _naive_norm(a.left)
        right = _naive_norm(a.right)
        if left is None or right is None:
            return None
        out = []
        _check_size(len(left) * len(right))
        for lc in left:
            if len(lc) != 1:
                return None
            for rc in right:
                if len(rc) != 1:
                    return None
                (lb, lv), (rb, rv) = lc[0], rc[0]
                out.append([(lb + rb, tuple(sorted(lv + rv)))])
        return out
    if isinstance(a, Exists):
        body = _naive_norm(a.body)
        if body is None or len(body) != 1 or len(body[0]) != 1:
            return None
        bases, avars = body[0][0]
        return [[((Exists(a.var, star_all(list(bases))),), avars)]]
    if isinstance(a, Forall):
        return None
    raise TypeError(f"not an assertion: {a!r}")


# --- comparison -----------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ParseError as exc:
        return ("error", exc.message, exc.position, exc.text)


def _tokens(tokenize, text):
    return [(t.kind, t.text, t.pos) for t in tokenize(text)]


def assert_same_front_end(text, avars):
    """Equal tokens, parse outcome and, on success, `to_simple` result."""
    assert _outcome(_tokens, _tokenize, text) == _outcome(
        _tokens, naive_tokenize, text
    )
    got = _outcome(parse, text, avars)
    assert got == _outcome(naive_parse, text, avars)
    if got[0] == "ok":
        assert to_simple(got[1]) == naive_to_simple(got[1])


def _scenario_lines():
    for path in sorted(SCENARIO_DIR.iterdir()):
        lines = path.read_text().splitlines()
        avars = frozenset(
            name.strip()
            for line in lines
            if line.startswith("avars:")
            for name in line.partition(":")[2].split(",")
        )
        for lineno, line in enumerate(lines, start=1):
            yield pytest.param(line, avars, id=f"{path.name}:{lineno}")


@pytest.mark.parametrize("line, avars", _scenario_lines())
def test_scenario_lines_match_naive_front_end(line, avars):
    assert_same_front_end(line, avars)
    body = line.split("#", 1)[0]
    if "|=" in body:
        for side in body.split("|="):
            assert_same_front_end(side, avars)


@pytest.mark.parametrize("entry", CURATED_SUITE, ids=lambda e: e.name)
def test_curated_forms_match_naive_front_end(entry):
    text = format_implication(entry.form)
    assert_same_front_end(text, entry.form.variables)
    for side in text.split("|="):
        assert_same_front_end(side, entry.form.variables)


@settings(max_examples=150)
@given(assertions)
def test_generated_assertions_match_naive_front_end(phi):
    assert to_simple(phi) == naive_to_simple(phi)
    assert_same_front_end(pretty(phi), AVARS)


# Inputs on the edges of the shortcuts: an assertion variable read as a
# normal variable, and variable-free disjunctions, conjunctions and
# quantifiers under and next to variables.
EDGE_CASES = [
    "a - 1 |-> _",
    "a + 1 = 2 /\\ a",
    "(a) * b",
    "(1|->0 \\/ 2|->0) * a",
    "(1|->0 /\\ (2|->0 \\/ -)) * a",
    "a * b /\\ (a \\/ 1|->_)",
    "EX x. x |-> _ * a",
    "(ALL x. 1|->x) * a",
    "ALL x. 1|->x * a",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match_naive_front_end(text):
    assert_same_front_end(text, AVARS)


MALFORMED = [
    "a | b",
    "1 @ 2",
    "a *\tb",
    "a *\n b \\/ 1 @ 2",
    "--a",
    "(a",
    "a -",
    "a - b",
    "x |-> -1",
    "c * a",
    "a * b)",
    "a /\\ * b",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_raise_the_same_error(text):
    assert_same_front_end(text, AVARS)


def test_malformed_cases_cover_every_error_kind():
    """Guard: the inputs above fail in each of these ways."""
    messages = {_outcome(naive_parse, text, AVARS)[1] for text in MALFORMED}
    assert {
        "unexpected character",
        "trailing input after assertion",
        "expression is not an assertion; expected '|->'",
        "expected an assertion",
        "expected an arithmetic expression",
        "expected ')'",
    } <= messages
