"""Finite heaps with a partial commutative monoid structure.

A heap is a finite partial map from positive integer locations to integer
values.  Heaps compose (``·``) when their domains are disjoint and merge when
they agree on shared locations.  Composition induces the extension order
``f ⊑ g``.

Internally every heap carries two bitmask fingerprints (one bit per distinct
(location, value) cell seen so far in the process, one per distinct location),
which turn compose/merge/extension checks into integer operations.  The bit
registry is append-only, so fingerprints computed earlier stay valid.

The fingerprints also build the results of ``compose`` and ``merge``: the
cells of the result are the union of its operands' cells, so its fingerprints
are the OR of theirs, and its cell tuple is the sorted concatenation of theirs
(deduplicated for ``merge``).  No registry lookup is needed.  For the same
reason heap equality compares fingerprints alone: each registry bit names
exactly one (location, value) cell, so two heaps have equal cell fingerprints
iff they have equal cell sets.  The hash stays ``hash(cells)``, which does not
depend on the order in which the process first met each cell.
"""

from __future__ import annotations

import re
import threading
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Heap",
    "EMPTY_HEAP",
    "heap",
    "cells",
    "compose",
    "disjoint",
    "merge",
    "extends",
    "segregating_sets",
    "parse_heap",
    "format_heap",
]

_registry_lock = threading.Lock()
_CELL_BITS: dict[tuple[int, int], int] = {}
_LOC_BITS: dict[int, int] = {}


def _cell_bit(loc: int, val: int) -> int:
    bit = _CELL_BITS.get((loc, val))
    if bit is None:
        with _registry_lock:
            bit = _CELL_BITS.setdefault((loc, val), 1 << len(_CELL_BITS))
    return bit


def _loc_bit(loc: int) -> int:
    bit = _LOC_BITS.get(loc)
    if bit is None:
        with _registry_lock:
            bit = _LOC_BITS.setdefault(loc, 1 << len(_LOC_BITS))
    return bit


class Heap:
    """An immutable finite partial map from positive locations to values."""

    __slots__ = ("_cells", "_bits", "_locmask", "_hash")

    def __init__(self, mapping: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dict(mapping)
        cells_tuple = tuple(sorted(items.items()))
        bits = 0
        locmask = 0
        for loc, val in cells_tuple:
            if loc <= 0:
                raise ValueError(f"heap locations must be positive, got {loc}")
            bits |= _cell_bit(loc, val)
            locmask |= _loc_bit(loc)
        _set_slots(self, cells_tuple, bits, locmask)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Heap instances are immutable")

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        return self._cells

    def get(self, loc: int) -> int | None:
        for cell_loc, val in self._cells:
            if cell_loc == loc:
                return val
        return None

    def update(self, loc: int, val: int) -> "Heap":
        """Heap with `loc` remapped to `val`; `loc` must already be present."""
        if self.get(loc) is None:
            raise KeyError(loc)
        return Heap({**dict(self._cells), loc: val})

    def __contains__(self, loc: int) -> bool:
        return bool(self._locmask & _LOC_BITS.get(loc, 0)) and self.get(loc) is not None

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Heap):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return (len(self._cells), self._cells)

    def __repr__(self) -> str:
        return f"Heap({format_heap(self)!r})"

    def __str__(self) -> str:
        return format_heap(self)


def _set_slots(h: Heap, cells_tuple: tuple[tuple[int, int], ...], bits: int, locmask: int) -> None:
    object.__setattr__(h, "_cells", cells_tuple)
    object.__setattr__(h, "_bits", bits)
    object.__setattr__(h, "_locmask", locmask)
    object.__setattr__(h, "_hash", hash(cells_tuple))


def _from_parts(cells_tuple: tuple[tuple[int, int], ...], bits: int, locmask: int) -> Heap:
    """A heap from a sorted cell tuple and its already computed fingerprints."""
    h = object.__new__(Heap)
    _set_slots(h, cells_tuple, bits, locmask)
    return h


EMPTY_HEAP = Heap()


def heap(*pairs: tuple[int, int]) -> Heap:
    """Build a heap from (location, value) pairs: ``heap((1, 0), (2, 5))``."""
    return Heap(pairs)


def cells(*locs: int) -> Heap:
    """The heap storing 0 at each given location (``cells(1, 2)`` is [1,2])."""
    return Heap({loc: 0 for loc in locs})


def disjoint(f: Heap, g: Heap) -> bool:
    """Whether the domains of f and g are disjoint, i.e. f·g is defined."""
    return not f._locmask & g._locmask


def compose(f: Heap, g: Heap) -> Heap | None:
    """Disjoint union of two heaps; None when the domains overlap."""
    if not disjoint(f, g):
        return None
    if not f._cells:
        return g
    if not g._cells:
        return f
    return _from_parts(
        tuple(sorted(f._cells + g._cells)), f._bits | g._bits, f._locmask | g._locmask
    )


def merge(f: Heap, g: Heap) -> Heap | None:
    """Union of consistent heaps; None when a shared location disagrees.

    Two heaps are consistent exactly when the combined cell set has one value
    per location, i.e. the distinct-cell count equals the distinct-location
    count.
    """
    bits = f._bits | g._bits
    locmask = f._locmask | g._locmask
    if bits.bit_count() != locmask.bit_count():
        return None
    if bits == f._bits:
        return f
    if bits == g._bits:
        return g
    return _from_parts(tuple(sorted(set(f._cells + g._cells))), bits, locmask)


def extends(f: Heap, g: Heap) -> bool:
    """Whether g extends f, i.e. g = f·h for some h."""
    return f._bits & g._bits == f._bits


def segregating_sets(
    rows: int, cols: int, offset: int = 0
) -> list[list[frozenset[int]]]:
    """A rows x cols matrix of location sets with the segregation properties.

    (1) the union of each row is the same universe, (2) cells within a row are
    pairwise disjoint, and (3) any two cells from different rows intersect.

    Construction: the universe is the set of all choice tuples
    t : {0..rows-1} -> {0..cols-1}, encoded injectively as positive integers
    above `offset`; cell (i, j) collects the codes of the tuples with t[i] = j.
    Every row partitions the universe by its own coordinate, and two cells from
    different rows share the tuple that picks both coordinates at once.
    """
    if rows < 1 or cols < 1:
        raise ValueError("segregating_sets requires rows >= 1 and cols >= 1")
    matrix = [[set() for _ in range(cols)] for _ in range(rows)]
    for code in range(cols**rows):
        loc = offset + code + 1
        rest = code
        for i in range(rows):
            matrix[i][rest % cols].add(loc)
            rest //= cols
    return [[frozenset(cell) for cell in row] for row in matrix]


_HEAP_CELL_RE = re.compile(
    r"\s*(\d+)\s*(?:(?:\|->|↦|:)\s*(-?\d+))?\s*$",
)


def parse_heap(text: str) -> Heap:
    """Parse a heap literal: "[1|->0, 2:5]", "[]", or "[1,2]" (cells storing 0)."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"heap literal must be bracketed: {text!r}")
    body = stripped[1:-1].strip()
    if not body:
        return EMPTY_HEAP
    mapping: dict[int, int] = {}
    for part in body.split(","):
        m = _HEAP_CELL_RE.match(part)
        if not m:
            raise ValueError(f"bad heap cell {part!r} in {text!r}")
        loc = int(m.group(1))
        val = int(m.group(2)) if m.group(2) is not None else 0
        if loc in mapping:
            raise ValueError(f"duplicate location {loc} in {text!r}")
        mapping[loc] = val
    return Heap(mapping)


def format_heap(h: Heap) -> str:
    if not h.cells:
        return "[]"
    return "[" + ", ".join(f"{loc}|->{val}" for loc, val in h.cells) + "]"
