"""find_counter_env against the plain enumeration it replaced.

The search skips environments that a location or coordinate permutation maps
to an earlier one, compiles each side once, skips the right side when the
left relation is empty, gives each variable at most its left occurrence bound
of generators and returns at once when the left side is always empty.
`naive_find_counter_env` is the loop without any of that: it tries every
environment of every size group in order, as an `AssertEnv`, through
`naive_interpret` and a sorted scan for the escapee.
Both must return the same environment and witness, or both None.

The naive loop takes its candidates from `candidate_relations`, so that list
is checked on its own against `naive_candidate_relations`, the antichain
filter over sorted generator tuples it replaced.
"""

import random
import time
from itertools import combinations, islice, product
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import AVARS, SCENARIO_DIR, naive_interpret
from seplift.catalog import CURATED_SUITE
from seplift.heap import EMPTY_HEAP
from seplift.normalize import implication_assertions
from seplift.relations import GenRel, member, tuple_extends, tuple_sort_key
from seplift.semantics import (
    CounterexampleEnv,
    SearchBudget,
    _candidate_space,
    _compile,
    _left_bound,
    _orbit_least,
    _size_vectors,
    _symmetry_tables,
    bounded_heaps,
    candidate_relations,
    env_candidate_count,
    find_counter_env,
)
from seplift.syntax import AssertEnv, assertion_vars, parse, parse_assertion_file


def naive_candidate_relations(n, budget):
    heaps = bounded_heaps(budget.max_loc, budget.values, budget.max_heap_size)
    tuples = [t for t in product(heaps, repeat=n)]
    tuples.sort(key=tuple_sort_key)
    by_size = [[GenRel(n, [])]]
    for size in range(1, budget.max_generators + 1):
        group = []
        for combo in combinations(tuples, size):
            if size > 1 and any(
                tuple_extends(a, b) or tuple_extends(b, a)
                for a, b in combinations(combo, 2)
            ):
                continue
            group.append(GenRel(n, combo))
        by_size.append(group)
    return by_size


# (arity, budget): the default at arities 1-3, witness_search's unary
# evidence budget, and heaps of two cells or three generators; at most 64
# bounded tuples each.
CANDIDATE_BUDGETS = [
    (1, SearchBudget()),
    (2, SearchBudget()),
    (3, SearchBudget()),
    (1, SearchBudget(4, (0,), 3, 1)),
    (1, SearchBudget(2, (0, 1), 2, 2)),
    (2, SearchBudget(2, (0, 1), 2, 1)),
    (2, SearchBudget(2, (0,), 3, 2)),
]


@pytest.mark.parametrize("n, budget", CANDIDATE_BUDGETS)
def test_candidate_relations_match_the_antichain_filter(n, budget):
    got = candidate_relations(n, budget)
    assert got == naive_candidate_relations(n, budget)
    assert len(got[1]) == len(_candidate_space(n, budget).tuples) <= 64


def naive_first_escapee(lhs_rel, rhs_rel):
    for gen in lhs_rel.sorted_generators():
        if not member(rhs_rel, gen):
            return gen
    return None


def naive_find_counter_env(lhs, rhs, eta, n, budget=SearchBudget()):
    variables = sorted(assertion_vars(lhs) | assertion_vars(rhs))
    dom = budget.domain()
    eta_key = tuple(sorted(eta.items()))
    by_size = candidate_relations(n, budget)
    for sizes in _size_vectors(len(variables), len(by_size) - 1):
        for combo in product(*(by_size[s] for s in sizes)):
            rho = AssertEnv(n, dict(zip(variables, combo)))
            witness = naive_first_escapee(
                naive_interpret(lhs, eta_key, rho, n, dom),
                naive_interpret(rhs, eta_key, rho, n, dom),
            )
            if witness is not None:
                return CounterexampleEnv(rho, witness)
    return None


def assert_same_search(lhs, rhs, eta, n, budget=SearchBudget()):
    got = find_counter_env(lhs, rhs, eta, n, budget)
    want = naive_find_counter_env(lhs, rhs, eta, n, budget)
    assert got == want, (lhs, rhs, eta, n, budget)
    return got


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("entry", CURATED_SUITE, ids=lambda e: e.name)
def test_curated_entries_match_naive_search(entry, n):
    lhs, rhs = implication_assertions(entry.form)
    assert_same_search(lhs, rhs, {}, n)


# No assertion variables: the search visits the one empty environment.
VARIABLE_FREE = ["true |= false", "1|->_ |= -", "- * - |= 1|->_"]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("text", VARIABLE_FREE)
def test_variable_free_implications_match_naive_search(text, n):
    lhs, rhs = (parse(side, AVARS) for side in text.split("|="))
    got = assert_same_search(lhs, rhs, {}, n)
    assert (got is None) == (text == "1|->_ |= -")


@pytest.mark.parametrize(
    "name, arities",
    [("bridge", (1, 2)), ("fan", (1, 2)), ("good", (1, 2)), ("scaled", (1, 2, 3))],
)
def test_scenario_implications_match_naive_search(name, arities):
    doc = parse_assertion_file((SCENARIO_DIR / f"{name}.imp").read_text())
    lhs, rhs = doc.implications[0]
    for n in arities:
        assert_same_search(lhs, rhs, doc.eta, n)


# The first refutation of most pairs below, at some budget, is an environment
# that a location permutation moving a pinned location maps to an earlier,
# non-refuting one, so a search that trusts such a permutation answers
# otherwise.  Locations are pinned by literals, by computed addresses
# (`x |-> _` and `x+1 |-> _` under x=1) and under a quantifier; `-` and the
# comparisons pin nothing.  With every location pinned, as by `EX x. x |-> _`
# over values 0..3, only coordinate permutations are left.
PINNED = [
    ("a /\\ - |= a * - \\/ 1|->_", {}, (0,)),
    ("a /\\ 2|->_ |= a * 2|->_", {}, (0,)),
    ("a * b /\\ 3|->_ |= a * 3|->_ \\/ b * 3|->_", {}, (0,)),
    ("2|->_ /\\ a * b |= 2|->_ * a \\/ 2|->_ * b", {}, (0,)),
    ("a /\\ x+1 |-> _ |= a * (x+1 |-> _)", {"x": 1}, (0,)),
    ("a /\\ - /\\ x = 1 |= a * - \\/ x |-> _", {"x": 1}, (0,)),
    ("a /\\ (EX x. x|->_ /\\ x = 2) |= a * (EX x. x|->_ /\\ x = 2)", {}, (0, 1, 2, 3)),
    ("a /\\ (EX x. x |-> _) |= a * (EX x. x |-> _)", {}, (0, 1, 2, 3)),
]


@pytest.mark.parametrize("text, eta, values", PINNED, ids=[p[0] for p in PINNED])
def test_pinned_cases_match_naive_search(text, eta, values):
    lhs, rhs = (parse(side, AVARS) for side in text.split("|="))
    for max_loc, n in product((1, 2, 3), (1, 2)):
        assert_same_search(lhs, rhs, eta, n, SearchBudget(max_loc, values))


_ATOMS = [
    "a", "b", "a", "b", "true", "-", "1|->_", "2|->_", "3|->0",
    "x|->_", "x+1|->_", "x = 1", "x < 2", "(EX y. y|->_)",
]


def _random_assertion(rng: random.Random, leaves: int) -> str:
    if leaves == 1:
        return rng.choice(_ATOMS)
    left = rng.randint(1, leaves - 1)
    op = rng.choice(["*", "/\\", "\\/"])
    return (
        f"({_random_assertion(rng, left)} {op} "
        f"{_random_assertion(rng, leaves - left)})"
    )


def test_seeded_formulas_match_naive_search():
    rng = random.Random(20261018)
    for _ in range(40):
        lhs = parse(_random_assertion(rng, rng.randint(1, 4)), AVARS)
        rhs = parse(_random_assertion(rng, rng.randint(1, 4)), AVARS)
        eta = {"x": rng.choice([1, 2])}
        n = rng.choice([1, 1, 2])
        max_loc = rng.randint(1, 3) if n == 1 else rng.randint(1, 2)
        assert_same_search(lhs, rhs, eta, n, SearchBudget(max_loc))


def _primitive_meanings(sides, eta, n, dom):
    """The unary meanings of the primitives in `sides`, as compiling collects them."""
    meanings = set()
    index = {"a": 0}
    for phi in sides:
        _compile(phi, eta, n, dom, index, meanings)
    return meanings


@pytest.mark.parametrize("n", [1, 2, 3])
def test_formula_naming_every_location_keeps_only_coordinate_symmetries(n):
    budget = SearchBudget(max_loc=3)
    space = _candidate_space(n, budget)
    dom = budget.domain()
    named = (parse("1|->_ * 2|->_ /\\ a", AVARS), parse("a * (x |-> _)", AVARS))
    free = (parse("- /\\ a", AVARS), parse("a * true", AVARS))
    named_meanings = _primitive_meanings(named, {"x": 3}, n, dom)
    free_meanings = _primitive_meanings(free, {}, n, dom)
    assert len(_symmetry_tables(space, named_meanings)) == factorial(n) - 1
    assert len(_symmetry_tables(space, free_meanings)) == factorial(n) * 6 - 1


def test_candidate_space_cache_is_bounded_and_reused():
    assert 0 < _candidate_space.cache_info().maxsize <= 8
    budget = SearchBudget(max_loc=2, values=(7,))
    lhs, rhs = parse("a", AVARS), parse("a * a", AVARS)
    before = _candidate_space.cache_info()
    find_counter_env(lhs, rhs, {}, 2, budget)
    find_counter_env(rhs, lhs, {}, 2, budget)
    after = _candidate_space.cache_info()
    assert after.misses == before.misses + 1
    assert after.hits == before.hits + 1


def test_tables_are_built_only_for_kept_location_permutations():
    # a budget no other test uses, so the cached space starts without tables
    budget = SearchBudget(max_loc=3, values=(5,), max_generators=1)
    identity = {1: 1, 2: 2, 3: 3}
    assert env_candidate_count(2, 2, budget) > 0
    space = _candidate_space(2, budget)
    assert space._tables == {}
    lhs = parse("1|->_ * 2|->_ * 3|->_ /\\ a", AVARS)
    find_counter_env(lhs, parse("a * true", AVARS), {}, 2, budget)
    assert list(space._tables) == [tuple(identity.items())]
    assert len(space.tables(identity)) == factorial(2) - 1


@pytest.mark.parametrize("v, k", [(0, 2), (1, 2), (3, 2), (4, 4), (2, 0)])
def test_size_vectors_by_total_then_lexicographically(v, k):
    expected = sorted(product(range(k + 1), repeat=v), key=lambda x: (sum(x), x))
    assert list(_size_vectors(v, k)) == expected


def test_size_vectors_are_lazy():
    # 3**40 vectors in all; the first three come without building the rest
    start = time.perf_counter()
    first = list(islice(_size_vectors(40, 2), 3))
    assert time.perf_counter() - start < 1.0
    assert first == [(0,) * 40, (0,) * 39 + (1,), (0,) * 38 + (1, 0)]


@pytest.mark.parametrize("v, k, lows", [(3, 2, (1, 0, 1)), (2, 2, (2, 2)), (3, 1, (0, 0, 0))])
def test_size_vectors_with_lows_keep_the_order(v, k, lows):
    expected = sorted(
        (x for x in product(range(k + 1), repeat=v) if all(s >= low for s, low in zip(x, lows))),
        key=lambda x: (sum(x), x),
    )
    assert list(_size_vectors(v, k, lows)) == expected


@settings(max_examples=200)
@given(
    st.integers(0, 3).flatmap(
        lambda v: st.tuples(
            st.just(v),
            st.integers(0, 3),
            st.lists(st.integers(0, 4), min_size=v, max_size=v),
            st.lists(st.integers(0, 4), min_size=v, max_size=v),
        )
    )
)
@example((3, 2, [1, 0, 0], [0, 2, 2]))  # lows[0] > highs[0]: no vectors
@example((2, 2, [0, 0], [5, 1]))  # max_size caps a high entry
@example((2, 3, [3, 3], [3, 3]))
def test_size_vectors_within_lows_and_highs_keep_the_order(case):
    v, k, lows, highs = case
    expected = sorted(
        (
            x
            for x in product(range(k + 1), repeat=v)
            if all(low <= s <= high for s, low, high in zip(x, lows, highs))
        ),
        key=lambda x: (sum(x), x),
    )
    assert list(_size_vectors(v, k, lows, highs)) == expected


_orbit_cases = st.integers(0, 3).flatmap(
    lambda v: st.tuples(
        st.lists(st.integers(0, 2), min_size=v, max_size=v).map(tuple),
        st.lists(st.integers(0, 4), min_size=v, max_size=v),
        st.lists(
            st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=3, max_size=3),
            max_size=3,
        ),
    )
)


@settings(max_examples=200)
@given(_orbit_cases)
def test_orbit_least_keeps_the_tuples_no_table_maps_lower(case):
    sizes, counts, tables = case
    expected = [
        x
        for x in product(*map(range, counts))
        if not any(tuple(t[s][i] for s, i in zip(sizes, x)) < x for t in tables)
    ]
    assert list(_orbit_least(sizes, counts, tables)) == expected


# (assertion, bound of `a` with one quantifier value, bound with two)
LEFT_BOUNDS = [
    ("a", 1, 1),
    ("b", 0, 0),
    ("true * 1|->_", 0, 0),
    ("a * a /\\ a", 3, 3),
    ("a \\/ a * a", 2, 2),
    ("(a * b) \\/ (b * b)", 1, 1),
    ("EX y. a * a", 2, 2),
    ("ALL y. a * y|->_", 1, 2),
    ("ALL y. (a \\/ a * a) /\\ a", 3, 6),  # the body runs to the end
    ("EX y. ALL z. a * b", 1, 2),
]


@pytest.mark.parametrize("text, one, two", LEFT_BOUNDS, ids=[b[0] for b in LEFT_BOUNDS])
def test_left_bound_sums_conjuncts_and_takes_the_maximum_over_disjuncts(text, one, two):
    phi = parse(text, AVARS)
    assert (_left_bound(phi, "a", 1), _left_bound(phi, "a", 2)) == (one, two)


# Implications whose first refutation needs as many generators of `a` as its
# left occurrence bound: two, from one occurrence under ALL over two values.
AT_THE_BOUND = [
    ("ALL y. (y+1|->_ * a) |= a * a * -", n, SearchBudget(2, (0, 1), gens))
    for n in (1, 2)
    for gens in (2, 3)
]


@pytest.mark.parametrize("text, n, budget", AT_THE_BOUND)
def test_first_refutation_may_need_the_whole_occurrence_bound(text, n, budget):
    lhs, rhs = (parse(side, AVARS) for side in text.split("|="))
    found = assert_same_search(lhs, rhs, {}, n, budget)
    assert len(found.rho["a"].generators) == _left_bound(lhs, "a", 2) == 2


_LEFT_ATOMS = ["b", "true", "-", "1|->_", "2|->0", "y+1|->_", "y = 0"]
_RIGHT_ATOMS = ["a", "b", "c", "a * a", "true", "-", "1|->_", "2|->_", "y+1|->_", "false"]


def _combine_leaves(rng: random.Random, leaves: list) -> str:
    """The leaves joined by random connectives, some under a quantifier over y."""
    if len(leaves) == 1:
        text = leaves[0]
    else:
        cut = rng.randint(1, len(leaves) - 1)
        op = rng.choice(["*", "/\\", "\\/"])
        text = f"({_combine_leaves(rng, leaves[:cut])} {op} {_combine_leaves(rng, leaves[cut:])})"
    quantifier = rng.choice(["", "", "", "EX y. ", "ALL y. "])
    return f"({quantifier}{text})" if quantifier else text


def test_seeded_capped_search_matches_naive_search():
    # `a` occurs 0-3 times on the left; `c`, and `b` when the left side has
    # none, occur only on the right
    rng = random.Random(20261019)
    names = frozenset({"a", "b", "c"})
    for _ in range(60):
        leaves = ["a"] * rng.randint(0, 3) + rng.sample(_LEFT_ATOMS, rng.randint(1, 2))
        rng.shuffle(leaves)
        lhs = parse(_combine_leaves(rng, leaves), names)
        rhs = parse(_combine_leaves(rng, rng.sample(_RIGHT_ATOMS, rng.randint(1, 3))), names)
        n = rng.choice([1, 2])
        values = rng.choice([(0,), (0, 1)])
        budget = SearchBudget(rng.randint(1, 3) if n == 1 else 1, values)
        assert_same_search(lhs, rhs, {"y": 1}, n, budget)


@pytest.mark.parametrize("count", [2, 3, 4])
@pytest.mark.parametrize("rhs", ["false", "v0 * 1|->_"])
def test_always_empty_left_side_matches_naive_search(count, rhs):
    names = [f"v{k}" for k in range(count)]
    lhs = parse("1|->0 * 1|->0 * " + " * ".join(names), names)
    assert assert_same_search(lhs, parse(rhs, names), {}, 1) is None


def test_always_empty_left_side_of_twelve_variables_returns_at_once():
    # the left side is empty with every variable full, so no environment can
    # make it nonempty: None comes before any environment is visited
    names = [f"v{k}" for k in range(12)]
    lhs = parse("1|->0 * 1|->0 * " + " * ".join(names), names)
    start = time.perf_counter()
    assert find_counter_env(lhs, parse("false"), {}, 1) is None
    assert time.perf_counter() - start < 1.0


def test_star_chain_of_sixteen_variables_is_refuted_at_once():
    # every variable of a star chain needs a generator: an empty one empties
    # the left side, so the vectors that give one none are never visited
    names = [f"v{k}" for k in range(16)]
    start = time.perf_counter()
    found = find_counter_env(parse(" * ".join(names), names), parse("false"), {}, 1)
    assert time.perf_counter() - start < 1.0
    assert found.witness == (EMPTY_HEAP,)


def test_sixteen_variables_are_refuted_at_the_second_environment():
    names = [f"v{k}" for k in range(16)]
    lhs = parse(" \\/ ".join(names), names)
    found = find_counter_env(lhs, parse("false"), {}, 1)
    assert found.witness == (EMPTY_HEAP,)


# A variable under a quantifier, and variables only on the right side.
QUANTIFIED = [
    "EX y. a * y|->_ |= a * -",
    "a * (EX y. y|->_) |= EX y. a * (y|->0)",
    "ALL y. (a \\/ y|->_) |= a \\/ 1|->_",
    "(ALL y. a * (y = y)) /\\ - |= a * -",
    "a |= a * b",
    "1|->_ /\\ a |= b \\/ a * 1|->_",
]


@pytest.mark.parametrize("values", [(0,), (0, 1)])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("text", QUANTIFIED)
def test_quantified_and_right_only_variables_match_naive_search(text, n, values):
    lhs, rhs = (parse(side, AVARS) for side in text.split("|="))
    assert_same_search(lhs, rhs, {}, n, SearchBudget(values=values))
