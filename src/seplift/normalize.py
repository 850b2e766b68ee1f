"""Rewriting to simple assertions and implication reduction.

A *simple* assertion is a disjunction of conjunctions of clauses, where each
clause is a variable-free assertion starred with a multiset of assertion
variables.  ``to_simple`` rewrites an arbitrary assertion into that shape
using only equivalences that hold at every arity: distribution of ``*`` over
``\\/`` and over ``EX``, and the distributive lattice laws for ``/\\`` and
``\\/``.  When no such rewrite sequence reaches the shape (e.g. assertion
variables trapped under ``/\\`` inside a ``*``, or under ``ALL``), it returns
None rather than apply anything semantically dubious.

``reduce_implication`` turns an implication between simple assertions into a
finite family of canonical implications (one conjunction of clauses on the
left, one disjunction of clauses on the right) whose joint validity is
equivalent to the original at arities 1 and 2: the right-hand side is put in
conjunctive normal form, the family is the product of left disjuncts and
right CNF clauses, and right-hand clauses mentioning variables absent from
the left are dropped (an empty remainder means the right-hand side is false).

``to_simple`` walks the assertion once, and reads each ``*`` chain (the
parser's left spine of ``Star`` nodes) in one loop rather than one call per
``*``.  The factors before the chain's first assertion variable form a
variable-free subtree, its prefix.  After it, a variable adds its name to
the clause of every disjunct, a variable-free atom adds itself as a base,
and only other operands (a parenthesised ``\\/``, a ``/\\``, a quantifier)
are rewritten on their own and multiplied in.  A subtree without assertion
variables, such as the prefix, comes back whole, and the nearest node above
it that holds a variable takes it apart only as far as the rewrite needs:
``\\/`` splits, ``false`` has no disjunct, ``true`` is the empty clause, and
anything else (a prefix of two or more factors too) is one base.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .syntax import (
    And,
    Assertion,
    AVar,
    BoolAtom,
    Exists,
    FalseLit,
    Forall,
    NonEmptyHeap,
    Or,
    PointsTo,
    PointsToAny,
    Star,
    TrueLit,
    pretty,
    star_all,
)

__all__ = [
    "Clause",
    "SimpleAssertion",
    "ImplicationForm",
    "to_simple",
    "why_not_simple",
    "family_size",
    "reduce_implication",
    "clause_assertion",
    "simple_assertion",
    "implication_assertions",
    "format_implication",
]

# Size bounds: past MAX_CLAUSES disjuncts `to_simple` gives up (returns
# None), and past MAX_FAMILY members `reduce_implication` raises.  `chk`
# rejects past either, and names the bound.
MAX_CLAUSES = 10_000
MAX_FAMILY = 10_000


# Variable-free atoms; a `*` chain takes each of the first four as one base.
_BASE_ATOMS = (PointsTo, PointsToAny, NonEmptyHeap, BoolAtom)
_VARIABLE_FREE = (*_BASE_ATOMS, TrueLit, FalseLit)


def _holds_avar(a: Assertion) -> bool:
    """Whether `a` mentions an assertion variable; the walk stops at the
    first one it meets."""
    stack = [a]
    while stack:
        a = stack.pop()
        if isinstance(a, _VARIABLE_FREE):
            continue
        if isinstance(a, AVar):
            return True
        if isinstance(a, (Star, And, Or)):
            stack += (a.left, a.right)
        elif isinstance(a, (Forall, Exists)):
            stack.append(a.body)
        else:
            raise TypeError(f"not an assertion: {a!r}")
    return False


@dataclass(frozen=True, slots=True)
class Clause:
    """A variable-free base assertion starred with assertion variables."""

    base: Assertion
    avars: tuple[str, ...]  # sorted multiset

    def __post_init__(self):
        if _holds_avar(self.base):
            raise ValueError("clause base must not contain assertion variables")
        object.__setattr__(self, "avars", tuple(sorted(self.avars)))


@dataclass(frozen=True, slots=True)
class SimpleAssertion:
    """Disjunction of conjunctions of clauses."""

    disjuncts: tuple[tuple[Clause, ...], ...]


@dataclass(frozen=True, slots=True)
class ImplicationForm:
    """Canonical implication: conjunction of clauses |= disjunction of clauses.

    An empty disjunct tuple denotes a false right-hand side.  Only variables
    occurring on the left may occur on the right.
    """

    conjuncts: tuple[Clause, ...]
    disjuncts: tuple[Clause, ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise ValueError("an implication needs at least one conjunct")
        lhs_vars = set()
        for c in self.conjuncts:
            lhs_vars.update(c.avars)
        for d in self.disjuncts:
            if not lhs_vars.issuperset(d.avars):
                extra = set(d.avars) - lhs_vars
                raise ValueError(
                    f"right-hand side variables {sorted(extra)} missing on the left"
                )

    @property
    def variables(self) -> tuple[str, ...]:
        seen = set()
        for c in self.conjuncts:
            seen.update(c.avars)
        return tuple(sorted(seen))


# --- rewriting to simple form ----------------------------------------------

# During normalization a clause is a (base factors, avars) pair; the base
# factors are folded into a single starred assertion at the end, and `Clause`
# sorts the avars.
_Builder = tuple[tuple[Assertion, ...], tuple[str, ...]]


class _Blowup(Exception):
    pass


# What `_norm` returns for a subtree that holds no assertion variable.
_FREE = object()


def to_simple(phi: Assertion) -> SimpleAssertion | None:
    try:
        return _simple(phi)
    except _Blowup:
        return None


def why_not_simple(phi: Assertion) -> str:
    """Why `to_simple(phi)` is None: the clause bound, or no simple form."""
    try:
        _simple(phi)
    except _Blowup:
        return f"exceeds the {MAX_CLAUSES:,}-clause bound on simple form"
    return "has no simple form"


def _simple(phi: Assertion) -> SimpleAssertion | None:
    """`to_simple`, raising `_Blowup` past MAX_CLAUSES."""
    dnf = _norm(phi)
    if dnf is _FREE:
        dnf = _free_dnf(phi)
    if dnf is None:
        return None
    return SimpleAssertion(tuple([
        tuple([Clause(star_all(list(bases)), avars) for bases, avars in conj])
        for conj in dnf
    ]))


def _free_dnf(a: Assertion) -> list[list[_Builder]]:
    """DNF of a variable-free `a`: ``\\/`` splits, so that a disjunctive
    operand of * gets distributed; ``false`` has no disjunct, ``true`` is the
    empty clause, and anything else is one base."""
    if isinstance(a, Or):
        left, right = _free_dnf(a.left), _free_dnf(a.right)
        _check_size(len(left) + len(right))
        return left + right
    if isinstance(a, FalseLit):
        return []
    if isinstance(a, TrueLit):
        return [[((), ())]]
    return [[((a,), ())]]


def _norm(a: Assertion) -> list[list[_Builder]] | object | None:
    """DNF of `a` as disjuncts -> conjuncts -> builder clauses, `_FREE` when
    `a` holds no assertion variable, or None when it has no simple form."""
    if isinstance(a, Star):
        return _chain(a)
    if isinstance(a, AVar):
        return [[((), (a.name,))]]
    if isinstance(a, _VARIABLE_FREE):
        return _FREE
    if isinstance(a, (Or, And)):
        left, right = _norm(a.left), _norm(a.right)
        if left is None or right is None:
            return None
        if left is _FREE and right is _FREE:
            return _FREE
        if left is _FREE:
            left = _free_dnf(a.left)
        if right is _FREE:
            right = _free_dnf(a.right)
        if isinstance(a, Or):
            _check_size(len(left) + len(right))
            return left + right
        _check_size(len(left) * len(right))
        return [lc + rc for lc in left for rc in right]
    if isinstance(a, Exists):
        body = _norm(a.body)
        if body is _FREE:
            return _FREE
        if body is None or len(body) != 1 or len(body[0]) != 1:
            # Pulling EX out of /\ or \/ is not among the permitted laws.
            return None
        bases, avars = body[0][0]
        # EX x. (base * vars) == (EX x. base) * vars: the variables cannot
        # depend on x, so the quantifier moves onto the base alone.
        return [[((Exists(a.var, star_all(list(bases))),), avars)]]
    if isinstance(a, Forall):
        # * does not distribute over ALL, so variables under ALL are stuck.
        return _FREE if _norm(a.body) is _FREE else None
    raise TypeError(f"not an assertion: {a!r}")


def _chain(a: Star) -> list[list[_Builder]] | object | None:
    """`_norm` of the `*` chain whose left spine of Star nodes starts at `a`.

    The loop keeps one `[bases, avars]` clause per disjunct, since * spreads
    over \\/ but not over /\\.  The factors before the first one that holds
    a variable form a variable-free prefix, which stays one base (a prefix
    of one factor splits as `_free_dnf` splits it).  After it, a variable
    adds its name to every clause and a base atom adds itself; any other
    factor is normalized alone and multiplied in.  Factors after the last
    disjunct is gone are still read, since one may have no simple form.
    """
    spine = []
    while isinstance(a, Star):
        spine.append(a)
        a = a.left
    spine.reverse()  # spine[i].right is the factor after the first i + 1
    clauses: list[list[list]] | None = None  # None while the prefix is free
    for i, factor in enumerate([a] + [node.right for node in spine]):
        if isinstance(factor, AVar):
            if clauses is None:
                clauses = _prefix_clauses(a, spine, i)
            for clause in clauses:
                clause[1].append(factor.name)
            continue
        if isinstance(factor, _BASE_ATOMS):
            if clauses is not None:
                for clause in clauses:
                    clause[0].append(factor)
            continue
        if isinstance(factor, TrueLit):
            continue  # the empty clause, a unit of *
        dnf = _norm(factor)
        if dnf is None:
            return None
        if dnf is _FREE:
            if clauses is None:
                continue
            dnf = _free_dnf(factor)
        elif clauses is None:
            if i == 0:
                # The first factor holds a variable, so it must give one
                # clause per disjunct before the second is starred on.
                if any(len(conj) != 1 for conj in dnf):
                    return None
                clauses = [[list(b), list(v)] for ((b, v),) in dnf]
                continue
            clauses = _prefix_clauses(a, spine, i)
        _check_size(len(clauses) * len(dnf))
        if not clauses:
            continue
        if any(len(conj) != 1 for conj in dnf):
            return None
        clauses = [[lb + list(rb), lv + list(rv)] for lb, lv in clauses for ((rb, rv),) in dnf]
    if clauses is None:
        return _FREE
    return [[(tuple(bases), tuple(avars))] for bases, avars in clauses]


def _prefix_clauses(first: Assertion, spine: list[Star], length: int) -> list[list[list]]:
    """The clauses of a chain's variable-free prefix of `length` factors."""
    if length == 0:
        return [[[], []]]
    if length == 1:
        return [[list(bases), []] for ((bases, _),) in _free_dnf(first)]
    return [[[spine[length - 2]], []]]


def _check_size(n: int) -> None:
    if n > MAX_CLAUSES:
        raise _Blowup


# --- implication reduction --------------------------------------------------


def family_size(lhs: SimpleAssertion, rhs: SimpleAssertion) -> int:
    """How many (left disjunct, right CNF clause) pairs `reduce_implication`
    reads, before duplicates go; it raises past MAX_FAMILY."""
    count = max(len(lhs.disjuncts), 1)
    for disjunct in rhs.disjuncts:
        count *= max(len(disjunct), 1)
    return count


def reduce_implication(
    lhs: SimpleAssertion, rhs: SimpleAssertion
) -> list[ImplicationForm]:
    """Reduce a simple implication to its canonical family.

    The family has one member per (left disjunct, right CNF clause) pair; the
    original implication holds at arity 1 or 2 exactly when every member does.
    """
    if family_size(lhs, rhs) > MAX_FAMILY:
        raise ValueError("implication reduction exceeds the family size bound")
    if not lhs.disjuncts:
        # A false left-hand side: one vacuous member keeps the family honest.
        lhs = SimpleAssertion(((Clause(FalseLit(), ()),),))

    if rhs.disjuncts:
        cnf_clauses = [tuple(choice) for choice in product(*rhs.disjuncts)]
    else:
        cnf_clauses = [()]

    family: list[ImplicationForm] = []
    for conjuncts in lhs.disjuncts:
        lhs_vars = set()
        for c in conjuncts:
            lhs_vars.update(c.avars)
        for clause in cnf_clauses:
            kept = tuple([d for d in clause if lhs_vars.issuperset(d.avars)])
            family.append(ImplicationForm(conjuncts, kept))
    # Equal members keep the first; a lone member needs no hashing.
    return family if len(family) == 1 else list(dict.fromkeys(family))


# --- conversions back to assertions ----------------------------------------


def clause_assertion(c: Clause) -> Assertion:
    parts: list[Assertion] = [] if isinstance(c.base, TrueLit) else [c.base]
    parts.extend(AVar(v) for v in c.avars)
    return star_all(parts)


def simple_assertion(s: SimpleAssertion) -> Assertion:
    if not s.disjuncts:
        return FalseLit()
    disjuncts = []
    for conj in s.disjuncts:
        node = clause_assertion(conj[0]) if conj else TrueLit()
        for c in conj[1:]:
            node = And(node, clause_assertion(c))
        disjuncts.append(node)
    node = disjuncts[0]
    for d in disjuncts[1:]:
        node = Or(node, d)
    return node


def implication_assertions(form: ImplicationForm) -> tuple[Assertion, Assertion]:
    lhs = clause_assertion(form.conjuncts[0])
    for c in form.conjuncts[1:]:
        lhs = And(lhs, clause_assertion(c))
    if form.disjuncts:
        rhs: Assertion = clause_assertion(form.disjuncts[0])
        for d in form.disjuncts[1:]:
            rhs = Or(rhs, clause_assertion(d))
    else:
        rhs = FalseLit()
    return lhs, rhs


def format_implication(form: ImplicationForm) -> str:
    lhs, rhs = implication_assertions(form)
    return f"{pretty(lhs)} |= {pretty(rhs)}"
