"""Assertion language: AST, parser, pretty-printer, and environments.

Grammar (ASCII concrete syntax)::

    assertion := or
    or        := and ('\\/' and)*
    and       := star ('/\\' star)*
    star      := atom ('*' atom)*
    atom      := 'true' | 'false' | '-' | '(' assertion ')'
               | ('ALL'|'EX') ident '.' or
               | expr '|->' ('_' | expr)
               | expr cmp expr          (pure, heap-independent comparison)
               | avar-ident
    expr      := term (('+'|'-') term)*
    term      := number | ident | '-' term | '(' expr ')'

Separating conjunction binds tighter than conjunction, which binds tighter
than disjunction; quantifiers extend maximally to the right.  A bare ``-`` in
atom position is the nonempty-heap atom.  Assertion variables are lowercase
identifiers and must be declared (the ``avars`` argument); an undeclared bare
identifier is a syntax error, which keeps normal variables and assertion
variables disjoint.
"""

from __future__ import annotations

import operator
import re
import string
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, TypeVar

from .relations import GenRel

__all__ = [
    "Expr",
    "IntLit",
    "VarRef",
    "Add",
    "SubExpr",
    "Neg",
    "Assertion",
    "PointsTo",
    "PointsToAny",
    "NonEmptyHeap",
    "BoolAtom",
    "AVar",
    "Star",
    "And",
    "Or",
    "TrueLit",
    "FalseLit",
    "Forall",
    "Exists",
    "ParseError",
    "UnboundVariable",
    "parse",
    "parse_expr",
    "pretty",
    "pretty_expr",
    "eval_expr",
    "eval_bool",
    "free_vars",
    "free_expr_vars",
    "assertion_vars",
    "AssertEnv",
    "AssertionFile",
    "parse_assertion_file",
    "star_all",
    "parse_header",
]


# --- expressions -----------------------------------------------------------


class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True, slots=True)
class VarRef(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class SubExpr(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    operand: Expr


def eval_expr(e: Expr, eta: Mapping[str, int]) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, VarRef):
        try:
            return eta[e.name]
        except KeyError:
            raise UnboundVariable(f"normal variable {e.name!r} is unbound") from None
    if isinstance(e, Add):
        return eval_expr(e.left, eta) + eval_expr(e.right, eta)
    if isinstance(e, SubExpr):
        return eval_expr(e.left, eta) - eval_expr(e.right, eta)
    if isinstance(e, Neg):
        return -eval_expr(e.operand, eta)
    raise TypeError(f"not an expression: {e!r}")


def free_expr_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, IntLit):
        return frozenset()
    if isinstance(e, VarRef):
        return frozenset((e.name,))
    if isinstance(e, (Add, SubExpr)):
        return free_expr_vars(e.left) | free_expr_vars(e.right)
    if isinstance(e, Neg):
        return free_expr_vars(e.operand)
    raise TypeError(f"not an expression: {e!r}")


# --- assertions ------------------------------------------------------------


class Assertion:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PointsTo(Assertion):
    addr: Expr
    value: Expr


@dataclass(frozen=True, slots=True)
class PointsToAny(Assertion):
    """``E |-> _``, a cell at E with an unspecified value."""

    addr: Expr


@dataclass(frozen=True, slots=True)
class NonEmptyHeap(Assertion):
    """The ``-`` atom: heaps containing at least one cell."""


# Each comparison operator: its meaning and its negation.
_COMPARISONS = {
    "=": (operator.eq, "!="),
    "!=": (operator.ne, "="),
    "<": (operator.lt, ">="),
    "<=": (operator.le, ">"),
    ">": (operator.gt, "<="),
    ">=": (operator.ge, "<"),
}
_CMP_OPS = tuple(_COMPARISONS)
# Tokens after a term that keep it inside an expression or make it one side
# of a points-to or comparison atom.
_EXPR_FOLLOW = frozenset(("+", "-", "|->", *_CMP_OPS))


@dataclass(frozen=True, slots=True)
class BoolAtom(Assertion):
    """A heap-independent comparison; denotes everything or nothing."""

    op: str
    left: Expr
    right: Expr

    def negated(self) -> "BoolAtom":
        return BoolAtom(_COMPARISONS[self.op][1], self.left, self.right)


@dataclass(frozen=True, slots=True)
class AVar(Assertion):
    name: str


@dataclass(frozen=True, slots=True)
class Star(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True, slots=True)
class And(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True, slots=True)
class Or(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True, slots=True)
class TrueLit(Assertion):
    pass


@dataclass(frozen=True, slots=True)
class FalseLit(Assertion):
    pass


@dataclass(frozen=True, slots=True)
class Forall(Assertion):
    var: str
    body: Assertion


@dataclass(frozen=True, slots=True)
class Exists(Assertion):
    var: str
    body: Assertion


class UnboundVariable(LookupError):
    pass


def eval_bool(b: BoolAtom, eta: Mapping[str, int]) -> bool:
    lhs = eval_expr(b.left, eta)
    rhs = eval_expr(b.right, eta)
    if b.op not in _COMPARISONS:
        raise ValueError(f"unknown comparison {b.op!r}")
    return _COMPARISONS[b.op][0](lhs, rhs)


def free_vars(a: Assertion) -> frozenset[str]:
    """Free normal variables; quantifiers bind as usual."""
    if isinstance(a, PointsTo):
        return free_expr_vars(a.addr) | free_expr_vars(a.value)
    if isinstance(a, PointsToAny):
        return free_expr_vars(a.addr)
    if isinstance(a, BoolAtom):
        return free_expr_vars(a.left) | free_expr_vars(a.right)
    if isinstance(a, (NonEmptyHeap, AVar, TrueLit, FalseLit)):
        return frozenset()
    if isinstance(a, (Star, And, Or)):
        return free_vars(a.left) | free_vars(a.right)
    if isinstance(a, (Forall, Exists)):
        return free_vars(a.body) - {a.var}
    raise TypeError(f"not an assertion: {a!r}")


def assertion_vars(a: Assertion) -> frozenset[str]:
    if isinstance(a, AVar):
        return frozenset((a.name,))
    if isinstance(a, (Star, And, Or)):
        return assertion_vars(a.left) | assertion_vars(a.right)
    if isinstance(a, (Forall, Exists)):
        return assertion_vars(a.body)
    if isinstance(
        a, (PointsTo, PointsToAny, NonEmptyHeap, BoolAtom, TrueLit, FalseLit)
    ):
        return frozenset()
    raise TypeError(f"not an assertion: {a!r}")


def star_all(parts: list[Assertion]) -> Assertion:
    if not parts:
        return TrueLit()
    result = parts[0]
    for p in parts[1:]:
        result = Star(result, p)
    return result


# --- tokenizer -------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} at offset {position}: {text!r}")
        self.message = message
        self.position = position
        self.text = text


# The token set also covers the command language (":=", brackets, braces,
# ";"), so the command parser can share this tokenizer.  Tokens are plain
# strings from one `findall`, ended by a "" sentinel, and a token's first
# character gives its kind: a digit starts a number, a letter or "_" an
# identifier, anything else an operator.  The search skips whitespace and
# every character no alternative matches, so the tokens cover all the text's
# non-whitespace characters exactly when it has no unexpected one; otherwise
# a `finditer` pass finds the first and raises "unexpected character" at its
# offset, before any parse error.  Other offsets are computed only for an
# error, from a `finditer` pass with the same pattern.
_TOKEN_RE = re.compile(
    r"""
    \d+
  | [A-Za-z_][A-Za-z0-9_']*
  | \|->|\|=|:=|/\\|\\/|<=|>=|!=|[-+*().,_=<>\[\]{};]
    """,
    re.VERBOSE,
)
_NON_SPACE = re.compile(r"\S")
_IDENT_START = frozenset(string.ascii_letters + "_")

_KEYWORDS = {"true", "false", "ALL", "EX"}
_T = TypeVar("_T")


def _is_num(tok: str) -> bool:
    return tok[:1].isdecimal()


def _is_ident(tok: str) -> bool:
    return tok[:1] in _IDENT_START


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        end = 0
        for m in _TOKEN_RE.finditer(text):
            if _NON_SPACE.search(text, end, m.start()):
                break
            end = m.end()
        position = _NON_SPACE.search(text, end).start()
        raise ParseError("unexpected character", position, text)
    tokens.append("")
    return tokens


class _Failure(Exception):
    """A parse error at a token index.  `_Parser.run` turns it into a
    `ParseError` at the token's offset, so a failed expression reading that
    `atom` backs out of costs no offset."""

    def __init__(self, message: str, index: int):
        self.message = message
        self.index = index


class _Parser:
    def __init__(self, text: str, avars: frozenset[str]):
        self.text = text
        self.avars = avars
        self.tokens = _tokenize(text)
        self.index = 0
        # One node per declared variable, made where it first occurs and
        # shared by its other occurrences in the text.
        self.avar_nodes: dict[str, AVar] = {}

    def peek(self) -> str:
        return self.tokens[self.index]

    def advance(self) -> str:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> str:
        if self.tokens[self.index] != text:
            raise self.error(f"expected {text!r}")
        return self.advance()

    def error(self, message: str) -> _Failure:
        return _Failure(message, self.index)

    def run(self, rule: Callable[[], _T], what: str) -> _T:
        """`rule()` read from the whole text, or a `ParseError` at the offset
        of the token it failed at (the end of the text once past the last)."""
        try:
            node = rule()
            if self.tokens[self.index]:
                raise self.error(f"trailing input after {what}")
        except _Failure as failure:
            starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
            position = starts[failure.index] if failure.index < len(starts) else len(self.text)
            raise ParseError(failure.message, position, self.text) from None
        return node

    # assertion levels

    def assertion(self) -> Assertion:
        return self.or_level()

    def or_level(self) -> Assertion:
        node = self.and_level()
        while self.tokens[self.index] == "\\/":
            self.advance()
            node = Or(node, self.and_level())
        return node

    def and_level(self) -> Assertion:
        node = self.star_level()
        while self.tokens[self.index] == "/\\":
            self.advance()
            node = And(node, self.star_level())
        return node

    def star_level(self) -> Assertion:
        """Factors joined by ``*``, as a left spine of Star nodes.  A declared
        assertion variable is read here, as its shared node, unless an
        expression operator follows it (``a - 1 |-> _``): `atom` reads the
        rest."""
        tokens, avar_nodes = self.tokens, self.avar_nodes
        node = None
        while True:
            index = self.index
            tok = tokens[index]
            factor = avar_nodes.get(tok)
            if factor is None and tok in self.avars and _is_ident(tok) and tok not in _KEYWORDS:
                # a keyword reads as the keyword, even when declared
                factor = avar_nodes[tok] = AVar(tok)
            if factor is not None and tokens[index + 1] not in _EXPR_FOLLOW:
                self.index = index + 1
            else:
                factor = self.atom()
            node = factor if node is None else Star(node, factor)
            if tokens[self.index] != "*":
                return node
            self.index += 1

    def atom(self) -> Assertion:
        tok = self.tokens[self.index]
        if tok == "true":
            self.advance()
            return TrueLit()
        if tok == "false":
            self.advance()
            return FalseLit()
        if tok in ("ALL", "EX"):
            self.advance()
            name = self.peek()
            if not _is_ident(name) or name in _KEYWORDS:
                raise self.error("expected a variable after quantifier")
            if name in self.avars:
                raise self.error("quantifier cannot bind an assertion variable")
            self.advance()
            self.expect(".")
            body = self.or_level()
            return (Forall if tok == "ALL" else Exists)(name, body)
        if tok == "-" and not self._minus_starts_expr():
            self.advance()
            return NonEmptyHeap()
        if tok == "(":
            # Could be a parenthesised assertion or an expression followed by
            # |-> or a comparison; try the expression reading first.
            snapshot = self.index
            try:
                expr = self.expr()
                follow = self.peek()
                if follow == "|->" or follow in _CMP_OPS:
                    return self._after_expr(expr)
            except _Failure:
                pass
            self.index = snapshot
            self.advance()
            node = self.or_level()
            self.expect(")")
            return node
        if _is_num(tok) or _is_ident(tok) or tok == "-":
            expr = self.expr()
            follow = self.peek()
            if follow == "|->" or follow in _CMP_OPS:
                return self._after_expr(expr)
            if isinstance(expr, VarRef):
                raise self.error(
                    f"bare identifier {expr.name!r} is not a declared assertion "
                    "variable (declare it with 'avars:') and no '|->' follows"
                )
            raise self.error("expression is not an assertion; expected '|->'")
        raise self.error("expected an assertion")

    def _after_expr(self, expr: Expr) -> Assertion:
        follow = self.advance()
        if follow == "|->":
            if self.peek() == "_":
                self.advance()
                return PointsToAny(expr)
            return PointsTo(expr, self.expr())
        return BoolAtom(follow, expr, self.expr())

    def _minus_starts_expr(self) -> bool:
        nxt = self.tokens[self.index + 1]
        if nxt == "(" or nxt == "-":
            # "-(" can only be negation (atoms never juxtapose a paren), and
            # "--" can only be a double negation.
            return True
        return _is_num(nxt) or (_is_ident(nxt) and nxt not in _KEYWORDS)

    # expressions

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else SubExpr(node, rhs)
        return node

    def term(self) -> Expr:
        tok = self.peek()
        if _is_num(tok):
            self.advance()
            return IntLit(int(tok))
        if _is_ident(tok) and tok not in _KEYWORDS:
            self.advance()
            return VarRef(tok)
        if tok == "-":
            self.advance()
            return Neg(self.term())
        if tok == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise self.error("expected an arithmetic expression")


def parse(text: str, avars: Iterator[str] | frozenset[str] = frozenset()) -> Assertion:
    """Parse an assertion; `avars` lists the declared assertion variables."""
    parser = _Parser(text, frozenset(avars))
    return parser.run(parser.assertion, "assertion")


def parse_expr(text: str) -> Expr:
    parser = _Parser(text, frozenset())
    return parser.run(parser.expr, "expression")


# --- pretty-printing -------------------------------------------------------

_LEVEL_OR, _LEVEL_AND, _LEVEL_STAR, _LEVEL_ATOM = range(4)


def pretty_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Add):
        return f"{pretty_expr(e.left)}+{_expr_operand(e.right)}"
    if isinstance(e, SubExpr):
        return f"{pretty_expr(e.left)}-{_expr_operand(e.right)}"
    if isinstance(e, Neg):
        return f"-{_expr_operand(e.operand)}"
    raise TypeError(f"not an expression: {e!r}")


def _expr_operand(e: Expr) -> str:
    """`e` parenthesised unless it is a literal or a variable: the right
    operand of `+`/`-`, the operand of unary minus, and a points-to address,
    where a trailing unparenthesised `+`/`-` would absorb the `|->` operand."""
    text = pretty_expr(e)
    if isinstance(e, (Add, SubExpr, Neg)):
        return f"({text})"
    return text


# Each binary connective: its infix text, its own level and its right
# operand's level.
_SPINES = {
    Or: (" \\/ ", _LEVEL_OR, _LEVEL_AND),
    And: (" /\\ ", _LEVEL_AND, _LEVEL_STAR),
    Star: (" * ", _LEVEL_STAR, _LEVEL_ATOM),
}


def pretty(a: Assertion) -> str:
    """Render with minimal parentheses; `parse(pretty(a))` returns `a`."""
    return _pretty(a, _LEVEL_OR, tail=True)


def _pretty(a: Assertion, level: int, tail: bool) -> str:
    if isinstance(a, TrueLit):
        return "true"
    if isinstance(a, FalseLit):
        return "false"
    if isinstance(a, NonEmptyHeap):
        return "-"
    if isinstance(a, AVar):
        return a.name
    if isinstance(a, PointsTo):
        return f"{_expr_operand(a.addr)} |-> {pretty_expr(a.value)}"
    if isinstance(a, PointsToAny):
        return f"{_expr_operand(a.addr)} |-> _"
    if isinstance(a, BoolAtom):
        return f"{pretty_expr(a.left)} {a.op} {pretty_expr(a.right)}"
    spine = _SPINES.get(type(a))
    if spine is not None:
        # The left spine of one connective prints at its own level, so it is
        # read with a loop, as the parser builds it, and only the right
        # operands recurse; the last of them carries `tail`.
        op, own, right_level = spine
        rights = []
        node = a
        while type(node) is type(a):
            rights.append(node.right)
            node = node.left
        parts = [_pretty(node, own, False)]
        for right in reversed(rights[1:]):
            parts.append(_pretty(right, right_level, False))
        parts.append(_pretty(rights[0], right_level, tail))
        text = op.join(parts)
        return f"({text})" if level > own else text
    if isinstance(a, (Forall, Exists)):
        word = "ALL" if isinstance(a, Forall) else "EX"
        text = f"{word} {a.var}. {_pretty(a.body, _LEVEL_OR, True)}"
        # A quantifier extends maximally to the right, so it can appear bare
        # only where nothing follows it.
        return text if tail else f"({text})"
    raise TypeError(f"not an assertion: {a!r}")


# --- environments ----------------------------------------------------------


@dataclass(frozen=True)
class AssertEnv:
    """A finite map from assertion variables to relations of one arity."""

    arity: int
    mapping: Mapping[str, GenRel] = field(default_factory=dict)

    def __post_init__(self):
        for name, rel in self.mapping.items():
            if rel.arity != self.arity:
                raise ValueError(
                    f"relation for {name!r} has arity {rel.arity}, expected {self.arity}"
                )

    def __getitem__(self, name: str) -> GenRel:
        try:
            return self.mapping[name]
        except KeyError:
            raise UnboundVariable(f"assertion variable {name!r} is unbound") from None

    def __contains__(self, name: str) -> bool:
        return name in self.mapping

    def items(self):
        return sorted(self.mapping.items())


# --- assertion files -------------------------------------------------------


_HEADER_KEYS = ("avars", "env")


def _check_variable_name(word: str, kind: str) -> None:
    """Reject a declared name that the tokenizer would not read as one."""
    if word in _KEYWORDS or word == "_":
        raise ValueError(f"{kind} {word!r} is a reserved word")
    if not (_TOKEN_RE.fullmatch(word) and _is_ident(word)):
        raise ValueError(f"{kind} {word!r} is not an identifier")


def parse_header(
    key: str, body: str, avars: frozenset[str], eta: Mapping[str, int]
) -> tuple[frozenset[str], dict[str, int]]:
    """Fold one header line into ``(avars, eta)`` and return the result.

    ``avars: a, b`` declares assertion variables; ``env: x=3, y=0`` binds
    normal variables.  Both are comma-separated and may repeat, adding to
    what earlier lines declared or bound.
    """
    items = [item.strip() for item in body.split(",") if item.strip()]
    if key == "avars":
        for item in items:
            _check_variable_name(item, "assertion variable")
        return avars | frozenset(items), dict(eta)
    if key == "env":
        bound = dict(eta)
        for item in items:
            name, eq, value = (part.strip() for part in item.partition("="))
            if not (name and eq and re.fullmatch(r"[+-]?\d+", value)):
                raise ValueError(f"env binding {item!r} needs the form name=int")
            _check_variable_name(name, "normal variable")
            bound[name] = int(value)
        return avars, bound
    raise ValueError(f"unknown header {key!r}; expected one of {', '.join(_HEADER_KEYS)}")


def _on_lines(entries: list[tuple[int, str]], parse_fn, *args, what: str = ""):
    """``parse_fn`` on the entries' joined text; an error names the first line."""
    text = " ".join(t for _, t in entries)
    try:
        return parse_fn(text, *args)
    except ValueError as err:
        prefix = (f"line {entries[0][0]}: " if entries else "") + what
        if isinstance(err, ParseError):
            raise ParseError(prefix + err.message, err.position, err.text) from None
        raise ValueError(prefix + str(err)) from None


@dataclass(frozen=True)
class AssertionFile:
    avars: frozenset[str]
    eta: Mapping[str, int]
    assertions: tuple[Assertion, ...]
    implications: tuple[tuple[Assertion, Assertion], ...]


def parse_assertion_file(text: str) -> AssertionFile:
    """Parse an assertion file.

    Header lines: ``avars: a, b`` and optionally ``env: x=3, y=0``.  Every
    following nonempty line is either a single assertion or an implication
    written ``LHS |= RHS``.  ``#`` starts a comment.
    """
    avars: frozenset[str] = frozenset()
    eta: dict[str, int] = {}
    assertions: list[Assertion] = []
    implications: list[tuple[Assertion, Assertion]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, body = line.partition(":")
        if colon and key in _HEADER_KEYS:
            avars, eta = _on_lines(
                [(lineno, body)], lambda text: parse_header(key, text, avars, eta)
            )
        elif "|=" in line:
            lhs_text, _, rhs_text = line.partition("|=")
            implications.append((
                _on_lines([(lineno, lhs_text)], parse, avars),
                _on_lines([(lineno, rhs_text)], parse, avars),
            ))
        else:
            assertions.append(_on_lines([(lineno, line)], parse, avars))
    return AssertionFile(avars, eta, tuple(assertions), tuple(implications))
