from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import small_heaps
from seplift.heap import (
    EMPTY_HEAP,
    Heap,
    cells,
    compose,
    extends,
    format_heap,
    heap,
    merge,
    parse_heap,
    segregating_sets,
)


def test_compose_examples():
    assert compose(heap((1, 0)), heap((2, 5))) == heap((1, 0), (2, 5))
    assert compose(heap((1, 0)), heap((1, 0))) is None
    h = heap((3, 7))
    assert compose(EMPTY_HEAP, h) == h
    assert compose(h, EMPTY_HEAP) == h


def test_merge_examples():
    assert merge(heap((1, 0)), heap((1, 0))) == heap((1, 0))
    assert merge(heap((1, 0)), heap((1, 1))) is None
    assert merge(heap((1, 0)), heap((2, 3))) == heap((1, 0), (2, 3))


def test_extends_examples():
    assert extends(EMPTY_HEAP, heap((5, 5)))
    assert extends(heap((1, 0)), heap((1, 0), (2, 1)))
    assert not extends(heap((1, 0)), heap((1, 1)))


def test_positive_locations_required():
    with pytest.raises(ValueError):
        Heap({0: 1})
    with pytest.raises(ValueError):
        Heap({-3: 1})


@given(small_heaps, small_heaps)
def test_compose_commutative(f, g):
    assert compose(f, g) == compose(g, f)


@given(small_heaps, small_heaps, small_heaps)
def test_compose_associative(f, g, h):
    def c3(x, y, z):
        xy = compose(x, y)
        return None if xy is None else compose(xy, z)

    def c3r(x, y, z):
        yz = compose(y, z)
        return None if yz is None else compose(x, yz)

    assert c3(f, g, h) == c3r(f, g, h)


@given(small_heaps)
def test_compose_unit(f):
    assert compose(f, EMPTY_HEAP) == f


@given(small_heaps, small_heaps)
def test_merge_commutative(f, g):
    assert merge(f, g) == merge(g, f)


@given(small_heaps)
def test_merge_idempotent(f):
    assert merge(f, f) == f


@given(small_heaps, small_heaps, small_heaps)
def test_merge_associative(f, g, h):
    def m3(x, y, z):
        xy = merge(x, y)
        return None if xy is None else merge(xy, z)

    def m3r(x, y, z):
        yz = merge(y, z)
        return None if yz is None else merge(x, yz)

    assert m3(f, g, h) == m3r(f, g, h)


@given(small_heaps, small_heaps)
def test_extends_iff_merge_absorbs(f, g):
    assert extends(f, g) == (merge(f, g) == g)


@given(small_heaps, small_heaps)
def test_extends_iff_compose_witness(f, g):
    witnessed = any(
        compose(f, h) == g
        for h in [Heap(dict(pairs)) for pairs in _subsets(g.cells)]
    )
    assert extends(f, g) == witnessed


# compose and merge build their results from the operands' fingerprints; the
# oracle rebuilds each result from its cells through the public constructor.
@given(small_heaps, small_heaps)
@example(heap((1, 0), (2, 0)), heap((1, 0), (3, 1)))
@example(heap((1, 0)), heap((2, 1), (3, 0)))
def test_compose_and_merge_match_a_heap_rebuilt_from_cells(f, g):
    rebuilt = Heap(dict(f.cells) | dict(g.cells))
    for result in (compose(f, g), merge(f, g)):
        if result is None:
            continue
        assert result.cells == rebuilt.cells
        assert result._bits == rebuilt._bits
        assert result._locmask == rebuilt._locmask
        assert hash(result) == hash(rebuilt) == hash(rebuilt.cells)


# update replaces one cell of the sorted tuple and swaps its bit in the cell
# fingerprint; the oracle rebuilds the heap from its cells.
@given(small_heaps, st.integers(0, 4), st.integers(-1, 2))
@example(heap((1, 0), (2, 0)), 2, 1)
@example(heap((1, 0), (2, 0), (3, 1)), 2, 5)
@example(heap((1, 0)), 1, 0)
@example(EMPTY_HEAP, 1, 0)
def test_update_matches_a_heap_rebuilt_from_cells(h, loc, val):
    before = h.cells
    if loc not in dict(h.cells):
        with pytest.raises(KeyError):
            h.update(loc, val)
        return
    updated = h.update(loc, val)
    rebuilt = Heap({**dict(h.cells), loc: val})
    assert updated.cells == rebuilt.cells
    assert updated == rebuilt
    assert hash(updated) == hash(rebuilt) == hash(rebuilt.cells)
    assert updated._bits == rebuilt._bits
    assert updated._locmask == rebuilt._locmask == h._locmask
    assert h.cells == before


@given(small_heaps, small_heaps)
@example(heap((1, 0)), heap((1, 0)))
@example(heap((1, 0)), heap((1, 1)))
def test_heap_equality_is_cell_tuple_equality(f, g):
    assert (f == g) == (f.cells == g.cells)
    # a heap built by compose or merge compares like one built from its cells
    for h in (compose(f, g), merge(f, g)):
        if h is not None:
            assert (h == f) == (h.cells == f.cells)


def _subsets(items):
    out = [()]
    for r in range(1, len(items) + 1):
        out.extend(combinations(items, r))
    return out


def _check_segregation(matrix):
    rows = len(matrix)
    cols = len(matrix[0])
    universes = [frozenset().union(*row) for row in matrix]
    assert all(u == universes[0] for u in universes)
    for row in matrix:
        for j1, j2 in combinations(range(cols), 2):
            assert not (row[j1] & row[j2])
    for i1, i2 in combinations(range(rows), 2):
        for j1 in range(cols):
            for j2 in range(cols):
                assert matrix[i1][j1] & matrix[i2][j2]
    assert all(cell for row in matrix for cell in row)


def test_segregating_trivial_cases():
    single = segregating_sets(1, 1)
    assert len(single) == 1 and len(single[0]) == 1
    assert len(single[0][0]) == 1

    row = segregating_sets(1, 3)
    universe = frozenset().union(*row[0])
    assert sum(len(c) for c in row[0]) == len(universe) == 3


def test_segregating_two_by_two():
    matrix = segregating_sets(2, 2)
    _check_segregation(matrix)
    universe = frozenset().union(*matrix[0])
    assert len(universe) == 4
    assert all(len(cell) == 2 for row in matrix for cell in row)


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
@pytest.mark.parametrize("cols", [1, 2, 3, 4])
def test_segregating_exhaustive(rows, cols):
    _check_segregation(segregating_sets(rows, cols))


def test_segregating_offset():
    matrix = segregating_sets(2, 3, offset=17)
    assert min(min(cell) for row in matrix for cell in row) > 17
    _check_segregation(matrix)


def test_heap_literals():
    assert parse_heap("[1|->0, 2|->5]") == heap((1, 0), (2, 5))
    assert parse_heap("[1:0,2:5]") == heap((1, 0), (2, 5))
    assert parse_heap("[]") == EMPTY_HEAP
    assert parse_heap("[3]") == heap((3, 0))
    assert parse_heap("[1, 2]") == cells(1, 2)
    assert parse_heap("[2:-4]") == heap((2, -4))
    with pytest.raises(ValueError):
        parse_heap("1|->0")
    with pytest.raises(ValueError):
        parse_heap("[1:0, 1:1]")


@given(small_heaps)
def test_heap_format_round_trip(h):
    assert parse_heap(format_heap(h)) == h
