"""The parser and `to_simple` against the slower front end they replaced.

`naive_tokenize` is the tokenizer that matched one token or whitespace run
at a time and built a frozen dataclass, with a kind and an offset, per token.
`NaiveParser` and `NaiveCommandParser` are whole copies of the parsers over
those tokens: they read every offset from a token, and `NaiveParser` reads
every bare identifier through the expression path before it becomes an
`AVar`.  `naive_to_simple` asks `assertion_vars` at every node whether the
subtree is variable-free.  Token texts, ASTs, commands, `ParseError` fields
and `to_simple` results must be equal on the scenario files, the curated
suite, generated assertions, fuzzed strings and malformed inputs.  Tokens
are now plain strings, so offsets are compared through the errors.
"""

import re
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import AVARS, SCENARIO_DIR, assertions
from seplift.catalog import CURATED_SUITE
from seplift.hoare import Call, IfCmd, LetRead, SeqCmd, Skip, Write
from seplift.normalize import (
    Clause,
    SimpleAssertion,
    _Blowup,
    _check_size,
    format_implication,
    to_simple,
)
from seplift.scenarios import _SECTIONS, parse_command
from seplift.syntax import (
    _CMP_OPS,
    _KEYWORDS,
    Add,
    And,
    Assertion,
    AVar,
    BoolAtom,
    Exists,
    FalseLit,
    Forall,
    IntLit,
    Neg,
    NonEmptyHeap,
    Or,
    ParseError,
    PointsTo,
    PointsToAny,
    Star,
    SubExpr,
    TrueLit,
    VarRef,
    _check_variable_name,
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


class NaiveParser:
    """The parser as it was before tokens became plain strings, whole: token
    objects with a kind and an offset, and an offset read on every error."""

    def __init__(self, text, avars):
        self.text = text
        self.avars = avars
        self.tokens = naive_tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos, self.text)
        return self.advance()

    def error(self, message):
        return ParseError(message, self.peek().pos, self.text)

    def assertion(self):
        return self.or_level()

    def or_level(self):
        node = self.and_level()
        while self.peek().text == "\\/":
            self.advance()
            node = Or(node, self.and_level())
        return node

    def and_level(self):
        node = self.star_level()
        while self.peek().text == "/\\":
            self.advance()
            node = And(node, self.star_level())
        return node

    def star_level(self):
        node = self.atom()
        while self.peek().text == "*":
            self.advance()
            node = Star(node, self.atom())
        return node

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

    def _after_expr(self, expr):
        follow = self.advance()
        if follow.text == "|->":
            if self.peek().text == "_":
                self.advance()
                return PointsToAny(expr)
            return PointsTo(expr, self.expr())
        return BoolAtom(follow.text, expr, self.expr())

    def _minus_starts_expr(self):
        nxt = self.tokens[self.index + 1]
        if nxt.text == "(" or nxt.text == "-":
            return True
        return nxt.kind == "num" or (nxt.kind == "ident" and nxt.text not in _KEYWORDS)

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else SubExpr(node, rhs)
        return node

    def term(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            self.advance()
            return VarRef(tok.text)
        if tok.text == "-":
            self.advance()
            return Neg(self.term())
        if tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise self.error("expected an arithmetic expression")


class NaiveCommandParser(NaiveParser):
    def command(self):
        parts = [self.statement()]
        while self.peek().text == ";":
            self.advance()
            if self.peek().kind == "eof":
                break
            parts.append(self.statement())
        # a braced block inside a sequence is spliced into it
        flat = [p for c in parts for p in (c.parts if isinstance(c, SeqCmd) else (c,))]
        return flat[0] if len(flat) == 1 else SeqCmd(tuple(flat))

    def statement(self):
        tok = self.peek()
        if tok.text == "skip":
            self.advance()
            return Skip()
        if tok.text == "{":
            self.advance()
            node = self.command()
            self.expect("}")
            return node
        if tok.text == "[":
            self.advance()
            addr = self.expr()
            self.expect("]")
            self.expect(":=")
            return Write(addr, self.expr())
        if tok.text == "let":
            self.advance()
            name = self.advance()
            if name.kind != "ident":
                raise self.error("expected a variable after 'let'")
            self.expect("=")
            self.expect("[")
            addr = self.expr()
            self.expect("]")
            self.expect("in")
            return LetRead(name.text, addr, self.statement())
        if tok.text == "if":
            self.advance()
            left = self.expr()
            op = self.advance()
            if op.text not in ("=", "!=", "<", "<=", ">", ">="):
                raise self.error("expected a comparison in the guard")
            cond = BoolAtom(op.text, left, self.expr())
            self.expect("{")
            then_branch = self.command()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_branch = self.command()
            self.expect("}")
            return IfCmd(cond, then_branch, else_branch)
        if tok.kind == "ident":
            self.advance()
            return Call(tok.text)
        raise self.error("expected a command")


def naive_parse(text, avars=frozenset()):
    parser = NaiveParser(text, frozenset(avars))
    node = parser.assertion()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input after assertion", tok.pos, text)
    return node


def naive_parse_command(text):
    parser = NaiveCommandParser(text, frozenset())
    node = parser.command()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input after command", tok.pos, text)
    return node


def naive_check_variable_name(word, kind):
    if word in _KEYWORDS or word == "_":
        raise ValueError(f"{kind} {word!r} is a reserved word")
    token = _NAIVE_TOKEN_RE.fullmatch(word)
    if token is None or token.lastgroup != "ident":
        raise ValueError(f"{kind} {word!r} is not an identifier")


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


def _naive_token_texts(text):
    return [t.text for t in naive_tokenize(text)]


def assert_same_front_end(text, avars):
    """Equal token texts, parse outcome and, on success, `to_simple` result.

    Tokens carry no offsets any more; the error outcomes compare those."""
    assert _outcome(_tokenize, text) == _outcome(_naive_token_texts, text)
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
# normal variable, variable-free disjunctions, conjunctions and quantifiers
# under and next to variables, and `*` chains whose variable-free prefix
# holds a disjunction, `true` or `false`, or whose operands are parenthesised
# chains, conjunctions or factors with no simple form.
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
    "(1|->0 \\/ 2|->0) * - * a",
    "- * (1|->0 \\/ 2|->0) * a",
    "a * (1|->0 \\/ 2|->0) * b",
    "true * - * a",
    "false * a",
    "a * (b * c)",
    "a * (b /\\ c) * -",
    "- * - * a * b",
    "EX x. x|->_ * a * b",
    "(a /\\ b) * false",
    "false * (a /\\ b)",
    "false * a * (ALL x. x|->_ * a)",
    "a * 1|->0 * (2|->0 * 3|->0) * true",
]
EDGE_AVARS = AVARS | {"c"}


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match_naive_front_end(text):
    assert_same_front_end(text, EDGE_AVARS)
    parse(text, EDGE_AVARS)  # well formed, so `to_simple` was compared


# `*` chains of 1-12 factors: atoms, variables, quantifiers, and
# parenthesised disjunctions (some variable-free), conjunctions and chains of
# up to three atoms or variables.
_CHAIN_ATOMS = ["1|->0", "2|->_", "-", "true", "false", "1 = 1"]
_CHAIN_LEAVES = [*_CHAIN_ATOMS, "a", "b", "c"]
_short_chains = st.lists(st.sampled_from(_CHAIN_LEAVES), min_size=1, max_size=3).map(
    " * ".join
)
_chain_factors = st.one_of(
    st.sampled_from(_CHAIN_LEAVES),
    st.sampled_from(_CHAIN_LEAVES),
    st.lists(st.sampled_from(_CHAIN_ATOMS), min_size=2, max_size=3).map(
        lambda ds: "(" + " \\/ ".join(ds) + ")"
    ),
    st.lists(_short_chains, min_size=2, max_size=3).map(
        lambda ds: "(" + " \\/ ".join(ds) + ")"
    ),
    st.lists(_short_chains, min_size=2, max_size=2).map(
        lambda cs: "(" + " /\\ ".join(cs) + ")"
    ),
    _short_chains.map(lambda c: f"({c})"),
    st.sampled_from(["(EX x. x|->_ * a)", "(ALL x. x|->_ * b)", "(ALL x. 1|->x)"]),
)
star_chains = st.lists(_chain_factors, min_size=1, max_size=12).map(" * ".join)


@settings(max_examples=300)
@given(star_chains)
@example("(1|->0 \\/ 2|->0) * - * a")
def test_star_chains_match_naive_to_simple(text):
    phi = parse(text, EDGE_AVARS)
    assert to_simple(phi) == naive_to_simple(phi)


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


# --- commands -------------------------------------------------------------------


def assert_same_command(text):
    """Equal token texts and `parse_command` outcome."""
    assert _outcome(_tokenize, text) == _outcome(_naive_token_texts, text)
    assert _outcome(parse_command, text) == _outcome(naive_parse_command, text)


def _scenario_command_lines():
    """The command text of every operation, client and proof command line."""
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        section = None
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            head, _, tail = line.partition(":")
            if not line[0].isspace() and head.strip() in _SECTIONS:
                section, text = head.strip(), tail.strip()
            elif section in ("impl1", "impl2"):
                text = line.partition(":")[2].strip()
            else:
                text = line.strip()
            if text and (
                section in ("impl1", "impl2", "client")
                or (section == "proof" and not text.startswith("{"))
            ):
                yield pytest.param(text, id=f"{path.name}:{lineno}")


@pytest.mark.parametrize("text", _scenario_command_lines())
def test_scenario_commands_match_naive_front_end(text):
    assert_same_command(text)


MALFORMED_COMMANDS = [
    "let 1 = [1] in skip",
    "[1] :=",
    "if 1 ? 2 {skip} else {skip}",
    "{ skip",
    "x @ y",
    "let x = [1] skip",
    "if 1 = 2 {skip} {skip}",
    "skip skip",
    ";",
    "[1 := 2",
    "let y=[1] in [1] := y+",
]


@pytest.mark.parametrize("text", MALFORMED_COMMANDS)
def test_malformed_commands_raise_the_same_error(text):
    assert_same_command(text)


@pytest.mark.parametrize(
    "text, message",
    [("let", "expected a variable after 'let'"), ("if 1", "expected a comparison in the guard")],
)
def test_command_cut_short_is_a_parse_error_at_the_end(text, message):
    # The replaced parser read past the end of its token list here and
    # raised IndexError.
    with pytest.raises(IndexError):
        naive_parse_command(text)
    assert _outcome(parse_command, text) == ("error", message, len(text), text)


# --- fuzzed strings ----------------------------------------------------------------

# Token fragments, whitespace, and characters the tokenizer rejects or must
# treat as whitespace ("\x1c", "\u00a0" and "\u2028" are whitespace to both
# `str.split` and the regex `\s`).
FRAGMENTS = [
    "a", "b", "x", "y'", "_", "1", "23", "true", "false", "ALL", "EX", ".",
    "|->", "|=", "*", "/\\", "\\/", "(", ")", "-", "+", "=", "!=", "<", "<=",
    ">", ">=", ",", " ", "\t", "skip", "let", "in", "if", "else", "[", "]",
    ":=", "{", "}", ";", "@", "|", "\u21a6", "\x1c", "\u00a0", "\u2028",
]
fuzzed = st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join)


@settings(max_examples=400)
@given(fuzzed)
@example("a /\\ * b @")
def test_fuzzed_strings_parse_as_before(text):
    assert_same_front_end(text, AVARS)


def test_unexpected_character_wins_over_an_earlier_parse_error():
    # "*" cannot start an assertion, but the "@" after it is reported
    text = "a /\\ * b @"
    assert _outcome(parse, text, AVARS) == ("error", "unexpected character", 9, text)


@settings(max_examples=400)
@given(fuzzed)
def test_fuzzed_strings_parse_as_commands_as_before(text):
    try:
        want = _outcome(naive_parse_command, text)
    except IndexError:
        # see test_command_cut_short_is_a_parse_error_at_the_end
        got = _outcome(parse_command, text)
        assert got[0] == "error" and got[2] == len(text)
        return
    assert _outcome(parse_command, text) == want


def _name_outcome(check, word):
    try:
        check(word, "assertion variable")
        return "ok"
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(fuzzed)
@example("x'")
@example("_a")
@example("1a")
@example("٣")
def test_variable_names_are_checked_as_before(word):
    assert _name_outcome(_check_variable_name, word) == _name_outcome(
        naive_check_variable_name, word
    )
