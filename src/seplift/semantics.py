"""Relational interpretation of assertions and bounded environment search.

``interpret`` maps an assertion to a finitely generated n-ary relation, given
an integer environment for normal variables and a relation environment for
assertion variables.  Primitive predicates enter through the diagonal
embedding of their standard unary meaning; the connectives map to the
relation algebra; quantifiers are finite joins/meets over a configurable
value domain.  Results are exact for quantifier-free assertions and
domain-relative otherwise, which every report states.

There is one evaluator.  An assertion is compiled in one walk: primitives
are evaluated, quantifiers expanded over the value domain, and every subtree
without assertion variables folded to its relation, since such a meaning does
not depend on the environment.  What is left is a function of the variables'
relations, the spine from the root to the variables, built from direct calls
to the relation kernel's `_star`, `_meet` and `_union`.  The spine computes
on fingerprint sets, the kernel's representation (see ``relations``), not on
`GenRel`s: ``interpret`` compiles, applies once and boxes only its result,
and ``find_counter_env`` evaluates every environment on the fingerprint sets
its candidate space keeps, so relations are boxed and heap tuples
materialized only for the refutation it returns.  No verdict follows the
iteration order of a fingerprint set, which depends on the order in which the
process first met each cell: the candidates are visited in a fixed order, a
witness is the least escapee in `tuple_sort_key` order, and a symmetry is
kept when it fixes every primitive meaning, whichever is tested first.

``find_counter_env`` searches the space of assertion-variable environments
within a budget for a refutation of an implication at a given arity.  The
meaning of an assertion is fixed up to renaming (the parametricity behind the
relational reading): renaming heap locations by a permutation that fixes the
meaning of every primitive, or permuting the n tuple coordinates, commutes
with interpretation, so the meaning under a renamed environment is the
renamed meaning.  A refutation's whole orbit under these symmetries thus
refutes, and the search
visits only the lexicographically least member of each orbit; the first
refutation in its fixed visiting order is such a member, so the answer is the
one the full enumeration gives.  Each side is compiled once per search and
applied to each environment visited; the right side is skipped when the left
relation is empty, which is exact because a refutation needs a left generator
outside the right relation.

The search also gives each variable at most its left occurrence bound of
generators: 1 per occurrence on the left, summed over `*` and `/\\`, the
maximum over `\\/`, an `EX` body once and an `ALL` body once per value (the
shrinking half of a small-model bound, after Calcagno, Yang and O'Hearn,
FSTTCS 2001).  A refutation keeps refuting when each variable keeps only the
generators its witness's left generator uses, which are at most that many; so
a refutation over the bound shrinks to one with a smaller total.  The search
visits by total, so its first refutation lies within the bound, and the capped
visiting order is a subsequence of the full one that still holds it.

``pc_check`` decides the semantic condition that makes an implication valid
for arity-independent reasons: every family of subheaps of a common heap that
lands in the left conjunct bases must already be covered by a disjunct whose
variable counts do not exceed the conjunct's, or by a variable-free disjunct
containing the whole heap.  It works on generators, with the budget's
locations and values as its only bound (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .heap import Heap
from .layout import compute_layout
from .normalize import ImplicationForm
from .relations import (
    Fingerprints,
    GenRel,
    HeapTuple,
    _box,
    _comparable,
    _fingerprint,
    _heap_tuple,
    _meet,
    _member,
    _star,
    _union,
    delta,
    empty,
    included,
    meet,
    member,
    top,
    tuple_extends,
    tuple_sort_key,
    union,
)
from .syntax import (
    And,
    AssertEnv,
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
    UnboundVariable,
    assertion_vars,
    eval_bool,
    eval_expr,
)

__all__ = [
    "ValueDomain",
    "SearchBudget",
    "DEFAULT_BUDGET",
    "interpret",
    "env_valid",
    "CounterexampleEnv",
    "find_counter_env",
    "candidate_relations",
    "bounded_heaps",
    "PCVerdict",
    "pc_check",
]


@dataclass(frozen=True)
class ValueDomain:
    """Finite integer domain for quantifiers and wildcard cell values.

    `locations` bounds the cells considered by the nonempty-heap atom, whose
    exact meaning ranges over all positive locations.
    """

    values: tuple[int, ...]
    locations: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("value domain must be nonempty")
        if not self.locations or any(loc <= 0 for loc in self.locations):
            raise ValueError("locations must be a nonempty set of positive ints")
        object.__setattr__(self, "values", tuple(sorted(set(self.values))))
        object.__setattr__(self, "locations", tuple(sorted(set(self.locations))))


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for environment and heap enumeration.

    max_loc: locations range over 1..max_loc; values: cell values; max
    generators per candidate relation; max cells per generator heap.
    `max_generators` is the outer cap: `find_counter_env` also caps each
    variable at its left occurrence bound, which loses no refutation.
    """

    max_loc: int = 3
    values: tuple[int, ...] = (0,)
    max_generators: int = 2
    max_heap_size: int = 1

    def __post_init__(self):
        if min(self.max_loc, self.max_generators, self.max_heap_size) < 1:
            raise ValueError("budget fields must be positive")
        if not self.values:
            raise ValueError("budget needs a nonempty value set")
        object.__setattr__(self, "values", tuple(sorted(set(self.values))))

    def domain(self) -> ValueDomain:
        return ValueDomain(self.values, tuple(range(1, self.max_loc + 1)))

    def admits(self, h: Heap) -> bool:
        """Whether h's locations lie in 1..max_loc and its values in `values`."""
        return all(
            1 <= loc <= self.max_loc and val in self.values for loc, val in h.cells
        )

    def describe(self) -> str:
        """The bound as text, e.g. 'locs<=3, vals=[0], gens<=2, heap size<=1'."""
        return (
            f"locs<={self.max_loc}, vals={list(self.values)}, "
            f"gens<={self.max_generators}, heap size<={self.max_heap_size}"
        )


DEFAULT_BUDGET = SearchBudget()


# --- interpretation ---------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _prim_unary(prim: Assertion, bindings: frozenset, dom: ValueDomain) -> GenRel:
    """Standard meaning of a primitive predicate as a unary relation.

    Cached across calls: searches and proof checks meet the same primitives
    again and again, and rebuilding their heaps and relations costs more than
    the lookup.
    """
    eta = dict(bindings)
    if isinstance(prim, PointsTo):
        loc = eval_expr(prim.addr, eta)
        if loc <= 0:
            return empty(1)
        return GenRel(1, [(Heap({loc: eval_expr(prim.value, eta)}),)])
    if isinstance(prim, PointsToAny):
        loc = eval_expr(prim.addr, eta)
        if loc <= 0:
            return empty(1)
        return GenRel(1, [(Heap({loc: v}),) for v in dom.values])
    if isinstance(prim, NonEmptyHeap):
        return GenRel(
            1, [(Heap({m: v}),) for m in dom.locations for v in dom.values]
        )
    if isinstance(prim, BoolAtom):
        return top(1) if eval_bool(prim, eta) else empty(1)
    raise TypeError(f"not a primitive predicate: {prim!r}")


def _require_positive_arity(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"arity must be a positive integer, got {n}")


def interpret(
    phi: Assertion,
    eta: Mapping[str, int] | None,
    rho: AssertEnv | None,
    n: int,
    dom: ValueDomain,
) -> GenRel:
    """The n-ary meaning of `phi` under environments `eta` and `rho`."""
    _require_positive_arity(n)
    if rho is not None and rho.arity != n:
        raise ValueError(f"environment arity {rho.arity} does not match n={n}")
    return _evaluate(phi, eta or {}, rho, n, dom)


def _evaluate(
    phi: Assertion,
    eta: Mapping[str, int],
    rho: AssertEnv | None,
    n: int,
    dom: ValueDomain,
) -> GenRel:
    """Compile `phi` with rho's variables as its inputs and apply it once."""
    bound = rho.items() if rho is not None else []
    index = {name: i for i, (name, _) in enumerate(bound)}
    compiled = _compile(phi, eta, n, dom, index, set())
    if not isinstance(compiled, frozenset):
        compiled = compiled([rel.fingerprints for _, rel in bound])
    return _box(n, compiled)


_PRIMITIVES = (PointsTo, PointsToAny, NonEmptyHeap, BoolAtom)
_CONNECTIVES = {Star: _star, And: _meet, Or: _union}

# A compiled assertion, over fingerprint sets (the `relations` kernel): its
# meaning when it has no assertion variables, else a function from the
# variables' meanings, listed by position, to it.
Compiled = Fingerprints | Callable[[Sequence[Fingerprints]], Fingerprints]


def _compile(
    phi: Assertion,
    eta: Mapping[str, int],
    n: int,
    dom: ValueDomain,
    index: Mapping[str, int],
    prims: set[GenRel],
) -> Compiled:
    """Compile `phi` at arity n; `index` gives each assertion variable's
    position in the list of fingerprint sets the result is applied to.

    Walks `phi` once, left to right, so errors are raised in evaluation
    order: UnboundVariable for a normal variable missing from `eta` or an
    assertion variable missing from `index`.  Each primitive is evaluated
    once, and its unary meaning is added to `prims`; quantifiers are expanded
    over `dom.values`; a connective whose operands are both constants is
    folded to a constant.  What is left is the spine from the root to the
    variables, direct calls of the kernel's `_star`, `_meet` and `_union`.
    """
    if isinstance(phi, _PRIMITIVES):
        meaning = _prim_unary(phi, frozenset(eta.items()), dom)
        prims.add(meaning)
        return delta(n, meaning).fingerprints
    if isinstance(phi, AVar):
        if phi.name not in index:
            raise UnboundVariable(f"assertion variable {phi.name!r} is unbound")
        return itemgetter(index[phi.name])
    if isinstance(phi, TrueLit):
        return top(n).fingerprints
    if isinstance(phi, FalseLit):
        return empty(n).fingerprints
    if isinstance(phi, (Star, And, Or)):
        return _combine(
            _CONNECTIVES[type(phi)],
            _compile(phi.left, eta, n, dom, index, prims),
            _compile(phi.right, eta, n, dom, index, prims),
            n,
        )
    if isinstance(phi, (Exists, Forall)):
        op = _union if isinstance(phi, Exists) else _meet
        parts = [
            _compile(phi.body, {**eta, phi.var: v}, n, dom, index, prims)
            for v in dom.values
        ]
        constants = [p for p in parts if isinstance(p, frozenset)]
        result = reduce(op, constants) if constants else None
        for part in parts:
            if not isinstance(part, frozenset):
                result = part if result is None else _combine(op, result, part, n)
        return result
    raise TypeError(f"not an assertion: {phi!r}")


def _combine(
    op: Callable[[Fingerprints, Fingerprints], Fingerprints],
    left: Compiled,
    right: Compiled,
    n: int,
) -> Compiled:
    """The compiled `op(left, right)` for op one of `_star`, `_meet` and
    `_union`, at arity n.

    All three are commutative, so a constant operand is moved to the left.
    The empty and the full relation are each the identity or absorbing for
    every op, as relations are upward closed (`star(top(n), r)` is r).
    """
    if isinstance(right, frozenset):
        if isinstance(left, frozenset):
            return op(left, right)
        left, right = right, left
    if not isinstance(left, frozenset):
        if op is _union:
            return lambda rels: op(left(rels), right(rels))

        def absorb(rels):
            # empty is absorbing for star and meet: right need not be applied
            first = left(rels)
            return op(first, right(rels)) if first else first

        return absorb
    if not left:
        return right if op is _union else left
    if left == top(n).fingerprints:
        return left if op is _union else right
    return lambda rels: op(left, right(rels))


def env_valid(
    lhs: Assertion,
    rhs: Assertion,
    eta: Mapping[str, int] | None,
    rho: AssertEnv | None,
    n: int,
    dom: ValueDomain,
) -> bool:
    """Whether lhs entails rhs at arity n under the given fixed environments."""
    return included(interpret(lhs, eta, rho, n, dom), interpret(rhs, eta, rho, n, dom))


# --- bounded enumeration ----------------------------------------------------


def bounded_heaps(
    max_loc: int, values: Iterable[int], max_cells: int | None = None
) -> list[Heap]:
    """All heaps over locations 1..max_loc with the given values, sorted.

    `max_cells` restricts the domain size; None means up to max_loc cells.
    """
    values = tuple(sorted(set(values)))
    locs = range(1, max_loc + 1)
    limit = max_loc if max_cells is None else min(max_cells, max_loc)
    out: list[Heap] = []
    for size in range(limit + 1):
        for chosen in combinations(locs, size):
            for vals in product(values, repeat=size):
                out.append(Heap(dict(zip(chosen, vals))))
    out.sort(key=Heap.sort_key)
    return out


def candidate_relations(n: int, budget: SearchBudget) -> list[list[GenRel]]:
    """Candidate relations within budget, grouped by generator count.

    Entry k lists the relations with exactly k generators.  Only antichains
    are listed: a generator set with a redundant tuple denotes the same
    relation as its minimization, so nothing is lost.
    """
    return [[_box(n, rel) for rel in group] for group in _candidate_space(n, budget).by_size]


def _size_vectors(
    num_vars: int,
    max_size: int,
    lows: Sequence[int] | None = None,
    highs: Sequence[int] | None = None,
) -> Iterable[tuple[int, ...]]:
    """The vectors of `num_vars` entries, entry k in `lows[k]`..`highs[k]`
    (0 and max_size when None; max_size also caps every `highs[k]`), by total
    and then lexicographically, generated one at a time: a search that stops
    early pays only for the vectors it visits, and no vector outside the
    bounds is ever built.  `find_counter_env` (generator counts) and
    `lifting._template_instances` (template indices) use it."""
    lows = tuple(lows or (0,) * num_vars)
    highs = tuple(min(high, max_size) for high in (highs or (max_size,) * num_vars))
    if any(low > high for low, high in zip(lows, highs)):
        return
    floors = [sum(lows[k:]) for k in range(num_vars + 1)]
    ceilings = [sum(highs[k:]) for k in range(num_vars + 1)]

    def with_sum(k: int, total: int) -> Iterable[tuple[int, ...]]:
        if k == num_vars:
            yield ()
            return
        low = max(lows[k], total - ceilings[k + 1])
        for first in range(low, min(highs[k], total - floors[k + 1]) + 1):
            for rest in with_sum(k + 1, total - first):
                yield (first, *rest)

    for total in range(floors[0], ceilings[0] + 1):
        yield from with_sum(0, total)


def _left_bound(phi: Assertion, name: str, value_count: int) -> int:
    """How many generators of `name` one generator of phi's meaning uses:
    1 per occurrence, summed over * and /\\, the maximum over \\/, an EX body
    once, and an ALL body once per quantifier value (`value_count` of them).

    A generator of `star` or `meet` combines one generator of each operand,
    one of `union` is a generator of one operand, and the quantifiers expand
    to a `union` or a `meet` over the values.
    """
    if isinstance(phi, AVar):
        return int(phi.name == name)
    if isinstance(phi, (Star, And, Or)):
        sides = [_left_bound(side, name, value_count) for side in (phi.left, phi.right)]
        return max(sides) if isinstance(phi, Or) else sum(sides)
    if isinstance(phi, Exists):
        return _left_bound(phi.body, name, value_count)
    if isinstance(phi, Forall):
        return value_count * _left_bound(phi.body, name, value_count)
    return 0


@dataclass(frozen=True)
class CounterexampleEnv:
    """A refuting environment plus a tuple in the left side but not the right."""

    rho: AssertEnv
    witness: HeapTuple


class _CandidateSpace:
    """The candidate relations of one (n, budget) and their symmetries.

    `tuples` lists the bounded n-tuples of heaps in `tuple_sort_key` order.
    `by_size[k]` lists the generator antichains of size k over them, in
    `combinations` order of their indices, as fingerprint sets: the search
    evaluates on them and boxes only the ones it returns.  `location_perms`
    lists the permutations of the locations 1..max_loc.  `tables(sigma)`
    gives one index table per permutation of the n coordinates, for the
    location permutation `sigma`: table[k][i] is the position in by_size[k]
    of the renamed by_size[k][i], found by its fingerprint set.  The
    identity is left out.  A permutation's tables are built the first time
    a search keeps it, and an entry the first time the search reads it.
    """

    def __init__(self, n: int, budget: SearchBudget):
        self.n = n
        heaps = bounded_heaps(budget.max_loc, budget.values, budget.max_heap_size)
        tuples = sorted(product(heaps, repeat=n), key=tuple_sort_key)
        self.tuples = tuples
        fps = [_fingerprint(t) for t in tuples]
        combos = [[()]] + [
            [
                combo
                for combo in combinations(range(len(tuples)), size)
                if not any(_comparable(fps[a], fps[b]) for a, b in combinations(combo, 2))
            ]
            for size in range(1, budget.max_generators + 1)
        ]
        self.by_size = [
            [frozenset(fps[i] for i in combo) for combo in group] for group in combos
        ]
        self._positions = [{rel: i for i, rel in enumerate(group)} for group in self.by_size]
        locs = range(1, budget.max_loc + 1)
        self.location_perms = tuple(
            dict(zip(locs, images)) for images in permutations(locs)
        )
        self._tables: dict[tuple[tuple[int, int], ...], tuple] = {}

    def tables(self, sigma: dict[int, int]) -> tuple:
        key = tuple(sigma.items())
        if key not in self._tables:
            self._tables[key] = self._build_tables(sigma)
        return self._tables[key]

    def _build_tables(self, sigma: dict[int, int]) -> tuple:
        tuples = self.tuples
        heaps = {h for t in tuples for h in t}
        renamed = {h: Heap({sigma[loc]: v for loc, v in h.cells}) for h in heaps}
        identity = all(loc == image for loc, image in sigma.items())
        tables = []
        for coords in permutations(range(self.n)):
            if identity and coords == tuple(range(self.n)):
                continue
            image = {
                _fingerprint(t): _fingerprint(tuple(renamed[t[c]] for c in coords))
                for t in tuples
            }.__getitem__
            tables.append(tuple(
                _RenamedPositions(group, pos, image)
                for group, pos in zip(self.by_size, self._positions)
            ))
        return tuple(tables)


class _RenamedPositions(dict):
    """One row of a symmetry table: entry i is the position in `group` of
    `group[i]` with every generator renamed by `image`, computed on first
    read.  A search that stops early reads few of them."""

    def __init__(self, group: list[Fingerprints], pos: dict, image: Callable):
        super().__init__()
        self.group, self.pos, self.image = group, pos, image

    def __missing__(self, i: int) -> int:
        self[i] = found = self.pos[frozenset(map(self.image, self.group[i]))]
        return found


@lru_cache(maxsize=8)
def _candidate_space(n: int, budget: SearchBudget) -> _CandidateSpace:
    return _CandidateSpace(n, budget)


def _fixes(sigma: dict[int, int], cells: set[tuple[tuple[int, int], ...]]) -> bool:
    """Whether renaming locations by `sigma` maps a unary meaning, given by
    the cell tuples of its generators, to itself."""
    return cells == {
        tuple(sorted((sigma.get(loc, loc), v) for loc, v in c)) for c in cells
    }


def _symmetry_tables(space: _CandidateSpace, meanings: Iterable[GenRel]) -> list:
    """The index tables of the symmetries that fix every unary `meanings`."""
    cell_sets = [{g[0].cells for g in m.generators} for m in meanings]
    return [
        table
        for sigma in space.location_perms
        if all(_fixes(sigma, cells) for cells in cell_sets)
        for table in space.tables(sigma)
    ]


def _orbit_least(
    sizes: tuple[int, ...], counts: list[int], tables: list
) -> Iterable[tuple[int, ...]]:
    """The tuples of product(*map(range, counts)), in order, that no table
    maps to a lexicographically smaller tuple.

    `active` holds the tables that fix the prefix built so far; a table that
    maps the next index lower rules out every extension of the prefix, one
    that maps it higher can no longer make the tuple smaller.  The walk is
    depth-first over prefixes, with its own stack.
    """
    last = len(sizes) - 1
    if last < 0:
        yield ()
        return
    prefix = [0] * len(sizes)
    active = [tables] + [[]] * last  # active[d]: the tables fixing prefix[:d]
    depth, i = 0, 0
    while True:
        if i == counts[depth]:
            if depth == 0:
                return
            depth -= 1
            i = prefix[depth] + 1
            continue
        size = sizes[depth]
        fixing = []
        for table in active[depth]:
            image = table[size][i]
            if image < i:
                break
            if image == i:
                fixing.append(table)
        else:
            prefix[depth] = i
            if depth < last:
                active[depth + 1] = fixing
                depth, i = depth + 1, 0
                continue
            yield tuple(prefix)
        i += 1


def find_counter_env(
    lhs: Assertion,
    rhs: Assertion,
    eta: Mapping[str, int] | None,
    n: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> CounterexampleEnv | None:
    """Search assertion-variable environments for a refutation at arity n.

    Enumerates candidate relations per variable (generator antichains within
    the budget) in increasing total generator count, deterministically;
    returns the first refutation found, or None when the budget space is
    exhausted.  None is not a validity proof: it only rules out refutations
    within the budget and value domain.  There is one loop for every
    implication: with no assertion variables its only size vector is the
    empty one, and it visits the one empty environment.

    Environments are visited once per symmetry class.  The symmetries are
    the pairs of a permutation of the locations 1..max_loc that maps the
    unary meaning of every primitive of lhs and rhs to itself and any
    permutation of the n coordinates.  Each maps every candidate list to
    itself and commutes with interpretation, so an environment refutes iff
    its renamings do.  An environment is skipped when a symmetry maps its
    tuple of candidate indices to a lexicographically smaller one; the first
    refutation in visiting order is the least of its class, so the returned
    environment and witness are those of the full enumeration, and None
    still means the whole budget space holds no refutation.

    lhs and rhs are each compiled once, with their variable-free subtrees
    folded to relations, and applied to every environment visited.  The
    witness is a generator of the left relation outside the right one, so an
    environment whose left relation is empty cannot refute, and its right
    side is not evaluated.  For the same reason a variable gets at least one
    generator when its empty relation, the other variables' relations being
    full, empties the left side: the left side is monotone in every variable,
    so each environment skipped that way has an empty left side too.  When
    the left side is empty with every variable full, no environment refutes,
    and None is returned before any is visited.

    A variable also gets at most its left occurrence bound of generators
    (`_left_bound`; 0 for a variable only on the right), within
    `max_generators`.  A refutation (rho, h) shrinks: keeping only the
    generators of rho(a) that h's left generator uses keeps h on the left
    and, the right side being monotone, off the right.  If the first
    refutation in the full visiting order gave a variable more generators
    than its bound, its shrunk environment would refute with a smaller total,
    and the least member of that environment's class would have been visited
    first.  So the capped visiting order is a subsequence of the full one
    that still holds its first refutation, and the answer is unchanged.  An
    `AssertEnv` is built only for the refutation returned.
    """
    _require_positive_arity(n)
    variables = sorted(assertion_vars(lhs) | assertion_vars(rhs))
    dom = budget.domain()
    eta = eta or {}
    index = {name: i for i, name in enumerate(variables)}
    prims: set[GenRel] = set()
    lhs_of = _as_function(_compile(lhs, eta, n, dom, index, prims))
    rhs_of = _as_function(_compile(rhs, eta, n, dom, index, prims))
    full, none = top(n).fingerprints, empty(n).fingerprints
    if not lhs_of([full] * len(variables)):
        return None
    space = _candidate_space(n, budget)
    tables = _symmetry_tables(space, prims)
    # Antichain sizes are downward closed, so the nonempty groups come first.
    by_size = [group for group in space.by_size if group]
    lows = [
        int(not lhs_of([none if j == k else full for j in range(len(variables))]))
        for k in range(len(variables))
    ]
    highs = [_left_bound(lhs, name, len(budget.values)) for name in variables]
    for sizes in _size_vectors(len(variables), len(by_size) - 1, lows, highs):
        pools = [by_size[s] for s in sizes]
        for indices in _orbit_least(sizes, [len(p) for p in pools], tables):
            rels = [pool[i] for pool, i in zip(pools, indices)]
            lhs_rel = lhs_of(rels)
            if not lhs_rel:
                continue
            witness = _first_escapee(lhs_rel, rhs_of(rels))
            if witness is not None:
                rho = AssertEnv(n, {name: _box(n, rel) for name, rel in zip(variables, rels)})
                return CounterexampleEnv(rho, witness)
    return None


def _as_function(compiled: Compiled) -> Callable[[Sequence[Fingerprints]], Fingerprints]:
    if isinstance(compiled, frozenset):
        return lambda rels: compiled
    return compiled


def _first_escapee(lhs: Fingerprints, rhs: Fingerprints) -> HeapTuple | None:
    """The least generator of `lhs`, in `tuple_sort_key` order, outside the
    closure of `rhs`; only the generators outside it are materialized."""
    escapees = [_heap_tuple(f) for f in lhs if not _member(rhs, f)]
    return min(escapees, key=tuple_sort_key) if escapees else None


def env_candidate_count(num_vars: int, n: int, budget: SearchBudget) -> int:
    """Size of the environment space find_counter_env covers.

    This counts the whole budget space, every environment with at most
    `max_generators` generators per variable.  The search visits fewer: it
    rules out a refutation in the environments it skips, through symmetry
    and the left occurrence bound.
    """
    by_size = _candidate_space(n, budget).by_size
    per_var = sum(len(group) for group in by_size)
    return per_var**num_vars


# --- parametricity condition -------------------------------------------------


@dataclass(frozen=True)
class PCWitness:
    heap: Heap
    parts: tuple[Heap, ...]  # one subheap per conjunct


@dataclass(frozen=True)
class PCVerdict:
    holds: bool
    witness: PCWitness | None = None
    combinations_checked: int = 0  # candidate families: generators of the meet

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        if self.holds:
            return (
                "holds (bounded): no violating subheap family among "
                f"{self.combinations_checked} candidate families"
            )
        w = self.witness
        parts = ", ".join(str(h) for h in w.parts)
        return f"fails: heap {w.heap} with conjunct subheaps ({parts})"


def pc_check(
    form: ImplicationForm,
    eta: Mapping[str, int] | None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> PCVerdict:
    """Check the arity-independent validity condition on heaps whose cells
    have locations in 1..max_loc and values in `budget.values`.

    A family (one subheap of a heap h per conjunct, in the conjunct's base)
    violates when no part lies in a disjunct its conjunct dominates (a solid
    edge) and h lies in no variable-free disjunct.  `uncovered[i]` is
    generated by the in-bound generators of conjunct i's base that no
    dominated disjunct contains; the candidate families are the generators
    of their `meet`, and a violation is one outside every variable-free
    disjunct.  That is exact because every relation here is upward closed:
    in a violating family each part can be replaced by a generator below
    it, which stays in bound and outside the dominated disjuncts, and h by
    the merge of those generators, which stays outside the variable-free
    disjuncts.  So the least violating heap in `tuple_sort_key` order (the
    order of `bounded_heaps`) is a candidate, and the least part below it per
    conjunct is a generator of `uncovered[i]`; Fails yields those.
    """
    dom = budget.domain()
    eta = eta or {}
    layout = compute_layout(form)
    disj_rels = [_evaluate(d.base, eta, None, 1, dom) for d in form.disjuncts]
    uncovered = []
    for i, clause in enumerate(form.conjuncts):
        dominated = [r for j, r in enumerate(disj_rels) if layout.edge(i, j).solid]
        base = _evaluate(clause.base, eta, None, 1, dom)
        uncovered.append(GenRel(1, [
            g
            for g in base.generators
            if budget.admits(g[0]) and not any(member(d, g) for d in dominated)
        ]))
    families = reduce(meet, uncovered)
    free = reduce(union, [disj_rels[j] for j in layout.empty_disjuncts], empty(1))
    least = _first_escapee(families.fingerprints, free.fingerprints)
    if least is None:
        return PCVerdict(True, None, len(families.generators))
    parts = [
        min((g for g in rel.generators if tuple_extends(g, least)), key=tuple_sort_key)
        for rel in uncovered
    ]
    witness = PCWitness(least[0], tuple(g[0] for g in parts))
    return PCVerdict(False, witness, len(families.generators))
