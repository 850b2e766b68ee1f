"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import operator
from itertools import product
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

from seplift.heap import Heap
from seplift.hoare import IfCmd, LetRead, Skip, Write, seq
from seplift.relations import GenRel, delta, empty, meet, star, top, union
from seplift.scenarios import Scenario, parse_scenario
from seplift.syntax import (
    Add,
    AVar,
    And,
    BoolAtom,
    Exists,
    FalseLit,
    Forall,
    IntLit,
    Neg,
    NonEmptyHeap,
    Or,
    PointsTo,
    PointsToAny,
    Star,
    SubExpr,
    TrueLit,
    UnboundVariable,
    VarRef,
)

# No per-example deadline: example times vary with the load on the host, and
# a slow example is not a failure.  Tests set only max_examples.
settings.register_profile("seplift", deadline=None)
settings.load_profile("seplift")

AVARS = frozenset({"a", "b"})

# Sides past the size bounds of the consequence gate: six conjuncts of five
# disjuncts have 5**6 = 15,625 disjuncts in DNF (past the 10,000-clause
# bound), and nine disjuncts of three conjuncts make 3**9 = 19,683 family
# members (past the 10,000-member bound).
SIX_WIDE = " /\\ ".join(["(a \\/ b \\/ 1|->_ \\/ 2|->_ \\/ -)"] * 6)
NINE_DEEP = " \\/ ".join(["(a /\\ b /\\ 1|->_)"] * 9)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def load_scenario(name: str) -> Scenario:
    """Parse a file from the repository's scenarios/ directory."""
    return parse_scenario((SCENARIO_DIR / name).read_text(encoding="utf-8"))


small_heaps = st.dictionaries(
    st.integers(1, 3), st.integers(0, 1), max_size=2
).map(Heap)


def heap_tuples(n: int):
    return st.tuples(*([small_heaps] * n))


def gen_rels(n: int, max_generators: int = 3):
    return st.frozensets(heap_tuples(n), max_size=max_generators).map(
        lambda gens: GenRel(n, gens)
    )


# Loop-free commands without calls.  ``y`` is bound in COMMAND_ETA and
# rebound by every let-read, so addresses and values may come from the heap;
# guards compare normal variables with constants.  A heap value of 0 used as
# an address always faults.
COMMAND_ETA = {"x": 1, "y": 1}

_cmd_addrs = st.one_of(st.integers(1, 2).map(IntLit), st.just(VarRef("y")))
_cmd_values = st.one_of(
    st.integers(0, 2).map(IntLit),
    st.just(VarRef("y")),
    st.just(Add(VarRef("y"), IntLit(1))),
)

commands = st.recursive(
    st.one_of(
        st.just(Skip()),
        st.tuples(_cmd_addrs, _cmd_values).map(lambda t: Write(*t)),
    ),
    lambda child: st.one_of(
        st.tuples(child, child).map(seq),
        st.tuples(_cmd_addrs, child).map(lambda t: LetRead("y", *t)),
        st.tuples(
            st.sampled_from(["=", "<"]),
            st.sampled_from(["x", "y"]).map(VarRef),
            st.integers(0, 2).map(IntLit),
            child,
            child,
        ).map(lambda t: IfCmd(BoolAtom(*t[:3]), t[3], t[4])),
    ),
    max_leaves=5,
)

_expr_leaves = st.one_of(
    st.integers(0, 3).map(IntLit),
    st.sampled_from(["x", "y"]).map(VarRef),
)

exprs = st.recursive(
    _expr_leaves,
    lambda child: st.one_of(
        st.tuples(child, child).map(lambda t: Add(*t)),
        st.tuples(child, child).map(lambda t: SubExpr(*t)),
        child.map(Neg),
    ),
    max_leaves=4,
)

_atoms = st.one_of(
    st.just(TrueLit()),
    st.just(FalseLit()),
    st.just(NonEmptyHeap()),
    st.sampled_from(sorted(AVARS)).map(AVar),
    st.tuples(exprs, exprs).map(lambda t: PointsTo(*t)),
    exprs.map(PointsToAny),
    st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), exprs, exprs).map(
        lambda t: BoolAtom(*t)
    ),
)

assertions = st.recursive(
    _atoms,
    lambda child: st.one_of(
        st.tuples(child, child).map(lambda t: Star(*t)),
        st.tuples(child, child).map(lambda t: And(*t)),
        st.tuples(child, child).map(lambda t: Or(*t)),
        st.tuples(st.sampled_from(["x", "y"]), child).map(lambda t: Forall(*t)),
        st.tuples(st.sampled_from(["x", "y"]), child).map(lambda t: Exists(*t)),
    ),
    max_leaves=8,
)


# Independent reference semantics for bounded relation checks: explicit tuple
# sets over a finite heap universe, with heap extension spelled out on cells.


def naive_extends(small: Heap, big: Heap) -> bool:
    return all(big.get(loc) == val for loc, val in small.cells)


def universe_heaps(max_loc: int, values: tuple[int, ...]) -> list[Heap]:
    locs = list(range(1, max_loc + 1))
    out = []
    for picks in product([None, *values], repeat=len(locs)):
        cells = {loc: v for loc, v in zip(locs, picks) if v is not None}
        out.append(Heap(cells))
    return out


def naive_closure(rel: GenRel, heaps: list[Heap]) -> set[tuple[Heap, ...]]:
    return {
        t
        for t in product(heaps, repeat=rel.arity)
        if any(
            all(naive_extends(g_i, t_i) for g_i, t_i in zip(g, t))
            for g in rel.generators
        )
    }


def heap_splits(h: Heap) -> list[tuple[Heap, Heap]]:
    cells = h.cells
    out = []
    for mask in range(1 << len(cells)):
        left = {c[0]: c[1] for i, c in enumerate(cells) if mask >> i & 1}
        right = {c[0]: c[1] for i, c in enumerate(cells) if not mask >> i & 1}
        out.append((Heap(left), Heap(right)))
    return out


# Reference interpreter: the plain recursive walk, re-evaluating every subtree
# under every environment.  `semantics.interpret` compiles instead and must
# give the same relations and raise UnboundVariable on the same inputs.

_NAIVE_PRIMITIVES = (PointsTo, PointsToAny, NonEmptyHeap, BoolAtom)

_NAIVE_COMPARISONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def naive_expr(e, eta: dict) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, VarRef):
        if e.name not in eta:
            raise UnboundVariable(f"normal variable {e.name!r} is unbound")
        return eta[e.name]
    if isinstance(e, Add):
        return naive_expr(e.left, eta) + naive_expr(e.right, eta)
    if isinstance(e, SubExpr):
        return naive_expr(e.left, eta) - naive_expr(e.right, eta)
    if isinstance(e, Neg):
        return -naive_expr(e.operand, eta)
    raise TypeError(f"not an expression: {e!r}")


def naive_primitive(prim, eta: dict, dom) -> GenRel:
    """The unary meaning of a primitive predicate.  A cell at a non-positive
    address denotes nothing, and its value is then never evaluated."""
    if isinstance(prim, BoolAtom):
        compare = _NAIVE_COMPARISONS[prim.op]
        holds = compare(naive_expr(prim.left, eta), naive_expr(prim.right, eta))
        return top(1) if holds else empty(1)
    if isinstance(prim, NonEmptyHeap):
        cells = [(loc, v) for loc in dom.locations for v in dom.values]
    else:
        loc = naive_expr(prim.addr, eta)
        if loc <= 0:
            return empty(1)
        if isinstance(prim, PointsToAny):
            cells = [(loc, v) for v in dom.values]
        else:
            cells = [(loc, naive_expr(prim.value, eta))]
    return GenRel(1, [(Heap({loc: v}),) for loc, v in cells])


def _naive_bind(eta_key, var, value):
    return tuple(sorted((dict(eta_key) | {var: value}).items()))


def naive_interpret(phi, eta_key, rho, n, dom) -> GenRel:
    """The n-ary meaning of `phi`; `eta_key` is a sorted tuple of bindings."""
    if isinstance(phi, _NAIVE_PRIMITIVES):
        return delta(n, naive_primitive(phi, dict(eta_key), dom))
    if isinstance(phi, AVar):
        if rho is None or phi.name not in rho:
            raise UnboundVariable(f"assertion variable {phi.name!r} is unbound")
        return rho[phi.name]
    if isinstance(phi, TrueLit):
        return top(n)
    if isinstance(phi, FalseLit):
        return empty(n)
    if isinstance(phi, Star):
        return star(
            naive_interpret(phi.left, eta_key, rho, n, dom),
            naive_interpret(phi.right, eta_key, rho, n, dom),
        )
    if isinstance(phi, And):
        return meet(
            naive_interpret(phi.left, eta_key, rho, n, dom),
            naive_interpret(phi.right, eta_key, rho, n, dom),
        )
    if isinstance(phi, Or):
        return union(
            naive_interpret(phi.left, eta_key, rho, n, dom),
            naive_interpret(phi.right, eta_key, rho, n, dom),
        )
    if isinstance(phi, Exists):
        result = empty(n)
        for v in dom.values:
            eta_v = _naive_bind(eta_key, phi.var, v)
            result = union(result, naive_interpret(phi.body, eta_v, rho, n, dom))
        return result
    if isinstance(phi, Forall):
        result = top(n)
        for v in dom.values:
            eta_v = _naive_bind(eta_key, phi.var, v)
            result = meet(result, naive_interpret(phi.body, eta_v, rho, n, dom))
        return result
    raise TypeError(f"not an assertion: {phi!r}")
