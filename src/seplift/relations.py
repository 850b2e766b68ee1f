"""Finitely generated upward-closed n-ary heap relations.

A relation is represented by a finite set of generator tuples; it denotes the
upward closure of those tuples under componentwise heap extension.  This class
of relations is closed under union, intersection (via componentwise merge of
generators), separating conjunction (via componentwise compose), and the
diagonal embedding of unary predicates, which is everything the assertion
interpreter needs.  Membership and inclusion are exact, with no bound on heap
size, which is what the counterexample machinery relies on: relations such as
{([1|->0], [])}^ are infinite as sets but have a one-tuple description here.

Generator sets are kept as antichains: a generator extending another is
redundant and is dropped.  Two relations are equal iff their antichains are
equal, so structural equality coincides with semantic equality.

Relation literals (``parse_relation``, ``format_relation``; ``parse_heap``
reads the ``heap`` rule) follow one grammar.  A keyword with its parenthesis
is one token, of any case, and so is a cell; a cell without a value stores 0::

    relation := TOP(n) | EMPTY(n) | '{' [tuple (',' tuple)*] '}'
    tuple    := '(' heap (',' heap)* ')'
    heap     := '[' [cell (',' cell)*] ']'
    cell     := loc [('|->' | ':') int]
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .heap import EMPTY_HEAP, Heap, _LiteralReader, compose, extends, merge

__all__ = [
    "GenRel",
    "HeapTuple",
    "top",
    "empty",
    "member",
    "included",
    "union",
    "meet",
    "star",
    "delta",
    "tuple_compose",
    "tuple_merge",
    "tuple_extends",
    "parse_relation",
    "format_relation",
]

HeapTuple = tuple[Heap, ...]

def tuple_compose(s: HeapTuple, t: HeapTuple) -> HeapTuple | None:
    out = []
    for f, g in zip(s, t):
        h = compose(f, g)
        if h is None:
            return None
        out.append(h)
    return tuple(out)


def tuple_merge(s: HeapTuple, t: HeapTuple) -> HeapTuple | None:
    out = []
    for f, g in zip(s, t):
        h = merge(f, g)
        if h is None:
            return None
        out.append(h)
    return tuple(out)


def tuple_extends(s: HeapTuple, t: HeapTuple) -> bool:
    return all(map(extends, s, t))


def tuple_sort_key(t: HeapTuple) -> tuple:
    return (sum(len(h) for h in t), tuple(h.sort_key() for h in t))


def _cell_count(t: HeapTuple) -> int:
    return sum(map(len, t))


def _minimize(tuples: Iterable[HeapTuple]) -> frozenset[HeapTuple]:
    """The minimal elements of `tuples` under componentwise extension.

    The pool is scanned in order of total cell count, and a tuple is kept
    unless it extends one kept before it.  That is exact: a tuple that
    strictly extends another has strictly more cells, so every tuple a
    candidate can extend comes earlier in the scan, and tuples with equal
    counts extend each other only when they are equal, which the set rules
    out.
    """
    kept: list[HeapTuple] = []
    for cand in sorted(set(tuples), key=_cell_count):
        if not any(tuple_extends(small, cand) for small in kept):
            kept.append(cand)
    return frozenset(kept)


class GenRel:
    """An upward-closed heap relation given by a finite generator antichain."""

    __slots__ = ("_arity", "_generators", "_hash")

    def __init__(self, arity: int, generators: Iterable[HeapTuple] = ()):
        if arity < 1:
            raise ValueError("arity must be positive")
        gens = frozenset(generators)
        for g in gens:
            if len(g) != arity:
                raise ValueError(f"generator {g} does not have arity {arity}")
        gens = _minimize(gens)
        object.__setattr__(self, "_arity", arity)
        object.__setattr__(self, "_generators", gens)
        object.__setattr__(self, "_hash", hash((arity, gens)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GenRel instances are immutable")

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def generators(self) -> frozenset[HeapTuple]:
        return self._generators

    def sorted_generators(self) -> list[HeapTuple]:
        return sorted(self._generators, key=tuple_sort_key)

    def is_empty(self) -> bool:
        return not self._generators

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenRel):
            return NotImplemented
        return self._arity == other._arity and self._generators == other._generators

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GenRel({self._arity}, {format_relation(self)})"


# One shared (immutable) relation per arity: the evaluator folds constants to them.
@lru_cache(maxsize=16)
def top(arity: int) -> GenRel:
    """The full relation Heap^arity (generated by the all-empty tuple)."""
    return GenRel(arity, [(EMPTY_HEAP,) * arity])


@lru_cache(maxsize=16)
def empty(arity: int) -> GenRel:
    return GenRel(arity, [])


def _check_arity(r: GenRel, s: GenRel) -> None:
    if r.arity != s.arity:
        raise ValueError(f"arity mismatch: {r.arity} vs {s.arity}")


def member(r: GenRel, t: HeapTuple) -> bool:
    """Whether t lies in the upward closure of r's generators."""
    if len(t) != r.arity:
        raise ValueError(f"tuple arity {len(t)} does not match relation {r.arity}")
    return any(tuple_extends(g, t) for g in r.generators)


def included(r: GenRel, s: GenRel) -> bool:
    """Exact inclusion of closures: every generator of r is a member of s."""
    _check_arity(r, s)
    return all(member(s, g) for g in r.generators)


def equivalent(r: GenRel, s: GenRel) -> bool:
    return included(r, s) and included(s, r)


@lru_cache(maxsize=1 << 16)
def union(r: GenRel, s: GenRel) -> GenRel:
    _check_arity(r, s)
    return GenRel(r.arity, r.generators | s.generators)


@lru_cache(maxsize=1 << 16)
def meet(r: GenRel, s: GenRel) -> GenRel:
    """Intersection of closures.

    A tuple extends both some g in r and some f in s iff it extends their
    componentwise merge, so merging generator pairs is exact.
    """
    _check_arity(r, s)
    out = []
    for g in r.generators:
        for f in s.generators:
            m = tuple_merge(g, f)
            if m is not None:
                out.append(m)
    return GenRel(r.arity, out)


@lru_cache(maxsize=1 << 16)
def star(r: GenRel, s: GenRel) -> GenRel:
    """Separating conjunction: componentwise disjoint composition."""
    _check_arity(r, s)
    out = []
    for g in r.generators:
        for f in s.generators:
            c = tuple_compose(g, f)
            if c is not None:
                out.append(c)
    return GenRel(r.arity, out)


@lru_cache(maxsize=1 << 16)
def delta(n: int, p: GenRel) -> GenRel:
    """Diagonal embedding of a unary predicate as an n-ary relation."""
    if p.arity != 1:
        raise ValueError("delta expects a unary relation")
    return GenRel(n, [(g[0],) * n for g in p.generators])


def parse_relation(text: str, arity: int | None = None) -> GenRel:
    """Parse a relation literal; the grammar is in the module docstring."""
    reader = _LiteralReader(text)
    tokens = reader.tokens
    keyword = tokens[0].upper()
    if keyword in ("TOP(", "EMPTY("):
        if tokens[2:4] != [")", ""] or not tokens[1].lstrip("-").isdigit():
            raise ValueError(f"malformed relation literal {text!r}")
        n = int(tokens[1])
        tuples = [(EMPTY_HEAP,) * n] if keyword == "TOP(" else []
    else:
        tuples = reader.sequence("{", reader.heap_tuple, "}")
        reader.take("the end")
        if not tuples and arity is None:
            raise ValueError("empty generator literal needs an explicit arity; use EMPTY(n)")
        arities = {len(t) for t in tuples} or {arity}
        if len(arities) > 1:
            raise ValueError(f"mixed tuple arities in {text!r}")
        (n,) = arities
    if arity is not None and n != arity:
        raise ValueError(f"{text!r} has arity {n}, expected {arity}")
    return GenRel(n, tuples)


def format_relation(r: GenRel) -> str:
    if r.is_empty():
        return f"EMPTY({r.arity})"
    if r == top(r.arity):
        return f"TOP({r.arity})"
    gens = ", ".join(
        "(" + ",".join(str(h) for h in g) + ")" for g in r.sorted_generators()
    )
    return "{ " + gens + " }"
