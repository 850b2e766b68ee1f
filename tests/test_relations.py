from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    gen_rels,
    heap_splits,
    heap_tuples,
    naive_closure,
    naive_extends,
    universe_heaps,
)
from seplift.heap import EMPTY_HEAP, Heap, cells, compose, heap, merge
from seplift.relations import (
    GenRel,
    _box,
    _minimize,
    delta,
    empty,
    equivalent,
    format_relation,
    included,
    meet,
    member,
    parse_relation,
    star,
    top,
    tuple_sort_key,
    union,
)


def points_to_any_unary(loc, values=(0,)):
    return GenRel(1, [(Heap({loc: v}),) for v in values])


def test_member_examples():
    r = GenRel(2, [(heap((1, 0)), heap((1, 0)))])
    assert member(r, (heap((1, 0), (2, 1)), heap((1, 0))))
    assert not member(empty(2), (EMPTY_HEAP, EMPTY_HEAP))
    # the pair of one-cell heaps lies in the binary meaning of "cell 1 present"
    assert member(delta(2, points_to_any_unary(1)), (cells(1), cells(1)))


def test_member_arity_mismatch():
    with pytest.raises(ValueError):
        member(top(2), (EMPTY_HEAP,))


def test_included_examples():
    r = GenRel(2, [(cells(1), cells(2))])
    assert included(r, top(2))
    assert included(empty(2), r)
    # {([1],[])} is not included in the diagonal nonempty-heap relation
    nonempty2 = delta(
        2, GenRel(1, [(Heap({m: 0}),) for m in (1, 2, 3)])
    )
    assert not included(GenRel(2, [(cells(1), EMPTY_HEAP)]), nonempty2)


def test_union_examples():
    r = GenRel(2, [(cells(1), EMPTY_HEAP)])
    assert union(r, empty(2)) == r
    assert union(r, top(2)) == top(2)
    bridge_a = union(
        GenRel(2, [(cells(1), EMPTY_HEAP)]), GenRel(2, [(cells(2), cells(2))])
    )
    assert len(bridge_a.generators) == 2


def test_meet_examples():
    left = GenRel(2, [(heap((1, 0)), EMPTY_HEAP)])
    right = GenRel(2, [(EMPTY_HEAP, heap((1, 0)))])
    assert meet(left, right) == GenRel(2, [(heap((1, 0)), heap((1, 0)))])
    assert meet(GenRel(1, [(heap((1, 0)),)]), GenRel(1, [(heap((1, 1)),)])) == empty(1)


def test_star_examples():
    a = GenRel(2, [(cells(1), EMPTY_HEAP)])
    b = GenRel(2, [(EMPTY_HEAP, cells(1))])
    assert member(star(a, b), (cells(1), cells(1)))
    # starring the diagonal cell-1 relation against a half that also owns
    # cell 1 collides away every generator
    assert star(delta(2, points_to_any_unary(1)), a) == empty(2)
    r = GenRel(2, [(cells(1), cells(2))])
    assert star(r, top(2)) == r


def test_fan_meet_contains_pair():
    a = GenRel(2, [(cells(1), EMPTY_HEAP)])
    b = GenRel(2, [(EMPTY_HEAP, cells(1))])
    lhs = meet(delta(2, points_to_any_unary(1)), star(a, b))
    assert member(lhs, (cells(1), cells(1)))


def test_delta_examples():
    assert delta(3, top(1)) == top(3)
    assert delta(3, empty(1)) == empty(3)
    assert delta(2, GenRel(1, [(heap((1, 0)),)])) == GenRel(
        2, [(heap((1, 0)), heap((1, 0)))]
    )


def test_minimization_canonicalizes():
    redundant = GenRel(1, [(cells(1),), (cells(1, 2),)])
    assert redundant == GenRel(1, [(cells(1),)])


def test_parse_relation_keyword_forms_check_arity():
    assert parse_relation("TOP(2)", arity=2) == top(2)
    assert parse_relation("EMPTY(1)", arity=1) == empty(1)
    for literal in ("TOP(1)", "EMPTY(1)", "{ ([1|->0]) }"):
        with pytest.raises(ValueError, match="has arity 1, expected 2"):
            parse_relation(literal, arity=2)


@pytest.mark.parametrize(
    "literal, message",
    [
        ("{ ([1|->0]), ([1|->0], []) }", "mixed tuple arities"),
        ("TOP(x)", "malformed relation literal 'TOP\\(x\\)'"),
        ("EMPTY()", "malformed relation literal"),
    ],
)
def test_parse_relation_names_what_is_malformed(literal, message):
    with pytest.raises(ValueError, match=message):
        parse_relation(literal)


@settings(max_examples=40)
@given(gen_rels(2), gen_rels(2))
def test_lattice_commutativity(r, s):
    assert union(r, s) == union(s, r)
    assert meet(r, s) == meet(s, r)
    assert star(r, s) == star(s, r)


@settings(max_examples=25)
@given(gen_rels(2), gen_rels(2), gen_rels(2))
def test_lattice_associativity(r, s, t):
    assert union(union(r, s), t) == union(r, union(s, t))
    assert meet(meet(r, s), t) == meet(r, meet(s, t))
    assert star(star(r, s), t) == star(r, star(s, t))


@settings(max_examples=40)
@given(gen_rels(2))
def test_lattice_idempotence_and_units(r):
    assert union(r, r) == r
    assert meet(r, r) == r
    assert star(r, top(2)) == r


@settings(max_examples=25)
@given(gen_rels(2), gen_rels(2), gen_rels(2))
def test_meet_distributes_over_union(r, s, t):
    assert equivalent(
        meet(r, union(s, t)), union(meet(r, s), meet(r, t))
    )


# Exactness against the spelled-out reference semantics on a finite universe.
# The universe must cover every heap the generator strategy can produce, or
# the closure comparison would silently ignore out-of-universe generators.

_UNIVERSE = universe_heaps(3, (0, 1))


@settings(max_examples=30)
@given(gen_rels(2, 2), gen_rels(2, 2))
def test_exactness_membership_and_inclusion(r, s):
    closure_r = naive_closure(r, _UNIVERSE)
    closure_s = naive_closure(s, _UNIVERSE)
    for t in product(_UNIVERSE, repeat=2):
        assert member(r, t) == (t in closure_r)
    assert included(r, s) == (closure_r <= closure_s)


@settings(max_examples=30)
@given(gen_rels(2, 2), gen_rels(2, 2))
def test_exactness_meet_union(r, s):
    closure_r = naive_closure(r, _UNIVERSE)
    closure_s = naive_closure(s, _UNIVERSE)
    assert naive_closure(meet(r, s), _UNIVERSE) == closure_r & closure_s
    assert naive_closure(union(r, s), _UNIVERSE) == closure_r | closure_s


@settings(max_examples=20)
@given(gen_rels(2, 2), gen_rels(2, 2))
def test_exactness_star(r, s):
    closure_r = naive_closure(r, _UNIVERSE)
    closure_s = naive_closure(s, _UNIVERSE)
    star_rel = star(r, s)
    for t in product(_UNIVERSE, repeat=2):
        expected = any(
            (u1, u2) in closure_r and (v1, v2) in closure_s
            for u1, v1 in heap_splits(t[0])
            for u2, v2 in heap_splits(t[1])
        )
        assert member(star_rel, t) == expected


def naive_minimize(tuples):
    """Minimal elements under naive extension, scanned in tuple_sort_key order."""
    pool = sorted(set(tuples), key=tuple_sort_key)
    return frozenset(
        t
        for i, t in enumerate(pool)
        if not any(all(map(naive_extends, s, t)) for s in pool[:i])
    )


@given(st.lists(heap_tuples(2), max_size=8))
@example([(cells(1, 2), EMPTY_HEAP), (cells(1), EMPTY_HEAP), (cells(2), EMPTY_HEAP)])
@example([(cells(1), cells(2)), (cells(1), EMPTY_HEAP), (EMPTY_HEAP, cells(2))])
def test_minimize_matches_a_naive_minimal_elements_filter(tuples):
    assert _minimize(tuples) == naive_minimize(tuples)


def _pairwise(op, r, s):
    """Heap-level: `op` on each coordinate of every generator pair, where
    defined in every coordinate, then the minimal elements."""
    out = []
    for g in r.generators:
        for f in s.generators:
            parts = tuple(map(op, g, f))
            if all(h is not None for h in parts):
                out.append(parts)
    return naive_minimize(out)


def _naive_member(tuples, t):
    return any(all(map(naive_extends, g, t)) for g in tuples)


def _same_relation_text(boxed, n, tuples):
    """`boxed`, built from fingerprints, reads like the relation of `tuples`."""
    built = GenRel(n, tuples)
    assert boxed == built
    assert boxed.generators == built.generators == tuples
    assert [[h.cells for h in g] for g in boxed.sorted_generators()] == [
        [h.cells for h in g] for g in built.sorted_generators()
    ]
    assert format_relation(boxed) == format_relation(built)


_same_arity_pairs = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), gen_rels(n), gen_rels(n), heap_tuples(n))
)


@settings(max_examples=60)
@given(_same_arity_pairs, gen_rels(1))
# pairwise results that are not antichains: [1]·[2] below [2]·[1,3] for star,
# [1]∨[1,2] below [3]∨[1,2] for meet
@example(
    (1, GenRel(1, [(cells(1),), (cells(2),)]), GenRel(1, [(cells(2),), (cells(1, 3),)]), (cells(1),)),
    GenRel(1, [(cells(1),), (cells(2),)]),
)
@example(
    (2, GenRel(2, [(cells(1), EMPTY_HEAP), (cells(3), EMPTY_HEAP)]),
     GenRel(2, [(cells(1, 2), cells(1))]), (cells(1, 2), cells(1, 2))),
    GenRel(1, [(heap((1, 1)),)]),
)
def test_fingerprint_kernel_matches_heap_level_definitions(case, unary):
    n, r, s, t = case
    expected = {
        star: _pairwise(compose, r, s),
        meet: _pairwise(merge, r, s),
        union: naive_minimize(r.generators | s.generators),
    }
    for op, tuples in expected.items():
        _same_relation_text(op(r, s), n, tuples)
    _same_relation_text(delta(n, unary), n, naive_minimize((g[0],) * n for g in unary.generators))
    assert member(r, t) == _naive_member(r.generators, t)
    assert included(r, s) == all(_naive_member(s.generators, g) for g in r.generators)
    # a box that has not materialized its generators yet
    _same_relation_text(_box.__wrapped__(n, r.fingerprints), n, r.generators)


def test_relation_literals():
    r = parse_relation("{ ([1|->0],[]) , ([2|->0],[2|->0]) }")
    assert r == GenRel(2, [(cells(1), EMPTY_HEAP), (cells(2), cells(2))])
    assert parse_relation("TOP(3)") == top(3)
    assert parse_relation("EMPTY(2)") == empty(2)
    assert parse_relation(format_relation(r)) == r
    with pytest.raises(ValueError):
        parse_relation("{ ([1],[]) , ([1]) }")
    with pytest.raises(ValueError):
        parse_relation("nonsense")


def test_top_and_empty_are_shared_per_arity():
    assert top(2) is top(2)
    assert empty(3) is empty(3)
    assert top(1) != top(2) and top(1) != empty(1)
