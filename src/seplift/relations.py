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

The algebra computes on fingerprints, not on heaps.  A generator's
fingerprint is the tuple of its per-coordinate cell bitmasks followed by its
per-coordinate location bitmasks, read off ``Heap._bits`` and
``Heap._locmask``; each bit names one cell or location (see ``heap``), so a
fingerprint names its generator exactly.  One kernel (`_star`, `_meet`,
`_union`, `_delta`) works on frozensets of fingerprints:

- compose: the location masks are disjoint in every coordinate, and the
  masks are ORed;
- merge: the masks are ORed, and the cell and location popcounts stay equal
  (each coordinate has at least as many cells as locations, so the totals
  are equal iff every coordinate's are);
- extension: a mask subset test in every entry;
- minimization: by popcount, as `_antichain` argues.

`_star`, `_meet` and `_union` are memoized process-wide on those frozensets,
whose hashing and equality run in C; `semantics` evaluates assertions on
them directly.  `_delta` runs once per primitive meaning, behind the memo of
the public `delta`.  The
public `star`, `meet`, `union` and `delta` unbox their `GenRel` operands,
call the kernel and box the result.  A `GenRel` built from heap tuples keeps
them; one boxed from fingerprints materializes its `generators` only when
they are read, through the bit→cell list of ``heap``.

No answer depends on the iteration order of a fingerprint set, although
fingerprint hashes, and so that order, depend on the order in which the
process first met each cell: every result of the kernel is a set; a
generator is reported only as the least of some set in `tuple_sort_key`
order, a total order on heap tuples; and generators are listed through
`sorted_generators`.

Relation literals (``parse_relation``, ``format_relation``; ``parse_heap``
reads the ``heap`` rule) follow one grammar.  A keyword with its parenthesis
is one token, of any case, and so is a cell; a cell without a value stores 0::

    relation := TOP(n) | EMPTY(n) | '{' [tuple (',' tuple)*] '}'
    tuple    := '(' heap (',' heap)* ')'
    heap     := '[' [cell (',' cell)*] ']'
    cell     := loc [('|->' | ':') int]

A relation literal is read straight to fingerprints: the reader puts each
heap literal's cells into its cell and location masks through the bit
registry of ``heap``, with the checks and messages of `Heap` (a duplicate or
non-positive location), and the relation is the `_antichain` of the tuples'
fingerprints, its generators materialized when first read.  No `Heap` is
built on the way.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, attrgetter, or_
from typing import Iterable

from .heap import EMPTY_HEAP, Heap, _from_bits, _LiteralReader, compose, extends

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
    "tuple_extends",
    "parse_relation",
    "format_relation",
]

HeapTuple = tuple[Heap, ...]
# Per-coordinate cell masks, then per-coordinate location masks.
Fingerprint = tuple[int, ...]
Fingerprints = frozenset[Fingerprint]


def tuple_compose(s: HeapTuple, t: HeapTuple) -> HeapTuple | None:
    out = []
    for f, g in zip(s, t):
        h = compose(f, g)
        if h is None:
            return None
        out.append(h)
    return tuple(out)


def tuple_extends(s: HeapTuple, t: HeapTuple) -> bool:
    return all(map(extends, s, t))


def tuple_sort_key(t: HeapTuple) -> tuple:
    return (sum(len(h) for h in t), tuple(h.sort_key() for h in t))


_BITS, _LOCMASK = attrgetter("_bits"), attrgetter("_locmask")


def _fingerprint(t: HeapTuple) -> Fingerprint:
    return (*map(_BITS, t), *map(_LOCMASK, t))


def _heap_tuple(f: Fingerprint) -> HeapTuple:
    """The generator a fingerprint names, materialized."""
    n = len(f) >> 1
    return tuple(map(_from_bits, f[:n], f[n:]))


def _weight(f: Fingerprint) -> int:
    return sum(map(int.bit_count, f))


def _antichain(fps: Iterable[Fingerprint]) -> Fingerprints:
    """The minimal elements of `fps` under componentwise extension.

    The pool is scanned in order of total popcount, and a fingerprint is
    kept unless it extends one kept before it (every entry of the kept one
    is a submask of the candidate's).  That is exact: a generator that
    strictly extends another has strictly more cells and no fewer locations,
    so every fingerprint a candidate can extend comes earlier in the scan,
    and fingerprints of equal weight extend each other only when they are
    equal, which the set rules out.
    """
    pool = set(fps)
    if len(pool) < 2:
        return frozenset(pool)
    kept: list[Fingerprint] = []
    for cand in sorted(pool, key=_weight):
        for small in kept:
            if tuple(map(and_, small, cand)) == small:
                break
        else:
            kept.append(cand)
    return frozenset(kept)


def _comparable(f: Fingerprint, g: Fingerprint) -> bool:
    """Whether one of two fingerprints extends the other."""
    common = tuple(map(and_, f, g))
    return common == f or common == g


def _member(fps: Fingerprints, f: Fingerprint) -> bool:
    """Whether `f` extends some fingerprint of the antichain `fps`."""
    for g in fps:
        if tuple(map(and_, g, f)) == g:
            return True
    return False


@lru_cache(maxsize=1 << 16)
def _union(a: Fingerprints, b: Fingerprints) -> Fingerprints:
    if not b or a == b:
        return a
    if not a:
        return b
    return _antichain(a | b)


@lru_cache(maxsize=1 << 16)
def _meet(a: Fingerprints, b: Fingerprints) -> Fingerprints:
    """Intersection of closures.

    A tuple extends both some g in a and some f in b iff it extends their
    componentwise merge, so merging generator pairs is exact.
    """
    out = set()
    for f in a:
        n = len(f) >> 1
        for g in b:
            h = tuple(map(or_, f, g))
            if sum(map(int.bit_count, h[:n])) == sum(map(int.bit_count, h[n:])):
                out.add(h)
    return _antichain(out)


@lru_cache(maxsize=1 << 16)
def _star(a: Fingerprints, b: Fingerprints) -> Fingerprints:
    """Separating conjunction: componentwise disjoint composition.

    Composing with one generator f is an order embedding on the generators
    disjoint from it (f·g ⊑ f·g' iff g ⊑ g'), so when either side has one
    generator the result is already an antichain.
    """
    out = set()
    for f in a:
        n = len(f) >> 1
        f_locs = f[n:]
        for g in b:
            if not any(map(and_, f_locs, g[n:])):
                out.add(tuple(map(or_, f, g)))
    return frozenset(out) if len(a) == 1 or len(b) == 1 else _antichain(out)


def _delta(n: int, p: Fingerprints) -> Fingerprints:
    """Diagonal embedding of a unary antichain, itself an antichain."""
    return frozenset((bits,) * n + (locmask,) * n for bits, locmask in p)


def _minimize(tuples: Iterable[HeapTuple]) -> frozenset[HeapTuple]:
    """The minimal elements of `tuples` under componentwise extension."""
    by_fp = {_fingerprint(t): t for t in tuples}
    return frozenset(by_fp[f] for f in _antichain(by_fp))


class GenRel:
    """An upward-closed heap relation given by a finite generator antichain."""

    __slots__ = ("_arity", "_fps", "_generators")

    def __init__(self, arity: int, generators: Iterable[HeapTuple] = ()):
        if arity < 1:
            raise ValueError("arity must be positive")
        gens = tuple(generators)
        for g in gens:
            if len(g) != arity:
                raise ValueError(f"generator {g} does not have arity {arity}")
        gens = _minimize(gens)
        _set_slots(self, arity, frozenset(map(_fingerprint, gens)), gens)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GenRel instances are immutable")

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def fingerprints(self) -> Fingerprints:
        return self._fps

    @property
    def generators(self) -> frozenset[HeapTuple]:
        if self._generators is None:
            object.__setattr__(self, "_generators", frozenset(map(_heap_tuple, self._fps)))
        return self._generators

    def sorted_generators(self) -> list[HeapTuple]:
        return sorted(self.generators, key=tuple_sort_key)

    def is_empty(self) -> bool:
        return not self._fps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenRel):
            return NotImplemented
        return self._arity == other._arity and self._fps == other._fps

    def __hash__(self) -> int:
        return hash((self._arity, self._fps))

    def __repr__(self) -> str:
        return f"GenRel({self._arity}, {format_relation(self)})"


def _set_slots(
    r: GenRel, arity: int, fps: Fingerprints, gens: frozenset[HeapTuple] | None
) -> None:
    object.__setattr__(r, "_arity", arity)
    object.__setattr__(r, "_fps", fps)
    object.__setattr__(r, "_generators", gens)


def _from_fingerprints(arity: int, fps: Fingerprints) -> GenRel:
    """The relation of an antichain of arity-`arity` fingerprints.  Its
    generators are materialized when first read."""
    r = object.__new__(GenRel)
    _set_slots(r, arity, fps, None)
    return r


@lru_cache(maxsize=1 << 16)
def _box(arity: int, fps: Fingerprints) -> GenRel:
    """`_from_fingerprints` of a kernel result, cached, so a meaning evaluated
    again reads its generators only once."""
    return _from_fingerprints(arity, fps)


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
    return _member(r._fps, _fingerprint(t))


def included(r: GenRel, s: GenRel) -> bool:
    """Exact inclusion of closures: every generator of r is a member of s."""
    _check_arity(r, s)
    return all(_member(s._fps, f) for f in r._fps)


def equivalent(r: GenRel, s: GenRel) -> bool:
    return included(r, s) and included(s, r)


@lru_cache(maxsize=1 << 16)
def union(r: GenRel, s: GenRel) -> GenRel:
    _check_arity(r, s)
    return _box(r.arity, _union(r._fps, s._fps))


@lru_cache(maxsize=1 << 16)
def meet(r: GenRel, s: GenRel) -> GenRel:
    """Intersection of closures (see `_meet`)."""
    _check_arity(r, s)
    return _box(r.arity, _meet(r._fps, s._fps))


@lru_cache(maxsize=1 << 16)
def star(r: GenRel, s: GenRel) -> GenRel:
    """Separating conjunction: componentwise disjoint composition."""
    _check_arity(r, s)
    return _box(r.arity, _star(r._fps, s._fps))


@lru_cache(maxsize=1 << 16)
def delta(n: int, p: GenRel) -> GenRel:
    """Diagonal embedding of a unary predicate as an n-ary relation."""
    if p.arity != 1:
        raise ValueError("delta expects a unary relation")
    return _box(n, _delta(n, p._fps))


def parse_relation(text: str, arity: int | None = None) -> GenRel:
    """Parse a relation literal; the grammar is in the module docstring."""
    reader = _LiteralReader(text)
    tokens = reader.tokens
    keyword = tokens[0].upper()
    if keyword in ("TOP(", "EMPTY("):
        if tokens[2:4] != [")", ""] or not tokens[1].lstrip("-").isdigit():
            raise ValueError(f"malformed relation literal {text!r}")
        n = int(tokens[1])
        fps = [(0,) * (2 * n)] if keyword == "TOP(" else []
    else:
        fps = reader.sequence("{", reader.tuple_masks, "}")
        reader.take("the end")
        if not fps and arity is None:
            raise ValueError("empty generator literal needs an explicit arity; use EMPTY(n)")
        arities = {len(f) >> 1 for f in fps} or {arity}
        if len(arities) > 1:
            raise ValueError(f"mixed tuple arities in {text!r}")
        (n,) = arities
    if arity is not None and n != arity:
        raise ValueError(f"{text!r} has arity {n}, expected {arity}")
    if n < 1:
        raise ValueError("arity must be positive")
    return _from_fingerprints(n, _antichain(fps))


def format_relation(r: GenRel) -> str:
    if r.is_empty():
        return f"EMPTY({r.arity})"
    if r == top(r.arity):
        return f"TOP({r.arity})"
    gens = ", ".join(
        "(" + ",".join(str(h) for h in g) + ")" for g in r.sorted_generators()
    )
    return "{ " + gens + " }"
