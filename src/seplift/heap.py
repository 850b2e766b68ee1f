"""Finite heaps with a partial commutative monoid structure.

A heap is a finite partial map from positive integer locations to integer
values.  Heaps compose (``·``) when their domains are disjoint and merge when
they agree on shared locations.  Composition induces the extension order
``f ⊑ g``.

Internally every heap carries two bitmask fingerprints (one bit per distinct
(location, value) cell seen so far in the process, one per distinct location),
which turn compose/merge/extension checks into integer operations.  The bit
registry is append-only, so fingerprints computed earlier stay valid.  Beside
the cell registry runs the bit→cell list `_CELLS`: entry i is the cell whose
bit is ``1 << i``.  `_bit` appends to it under the registry lock before it
publishes the bit, so every bit a fingerprint can hold is already in the list,
and `_from_bits` materializes the heap of a cell fingerprint from it alone.

The fingerprints also build the results of ``compose`` and ``merge``: the
cells of the result are the union of its operands' cells, so its fingerprints
are the OR of theirs, and its cell tuple is the sorted concatenation of theirs
(deduplicated for ``merge``).  No registry lookup is needed.  For the same
reason heap equality compares fingerprints alone: each registry bit names
exactly one (location, value) cell, so two heaps have equal cell fingerprints
iff they have equal cell sets.  The hash stays ``hash(cells)``, which does not
depend on the order in which the process first met each cell.  The relation
algebra (``relations``) computes on fingerprints alone and materializes heaps
only when a relation's generators are read.

``update``, the heap write of the command semantics, replaces the one cell in
the sorted cell tuple.  Its cell fingerprint is ``bits & ~old_bit | new_bit``
and its location fingerprint is unchanged, so only the new cell may need a
registry entry.
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
_CELLS: list[tuple[int, int]] = []  # _CELLS[i] is the cell whose bit is 1 << i
_LOC_BITS: dict[int, int] = {}


def _bit(registry: dict, key, keys: list | None = None) -> int:
    """The bit of `key` in an append-only registry, assigned on first sight.

    `keys`, when given, is the registry's bit→key list; the key is appended
    to it before the bit is published, so a reader that finds the bit in the
    registry without the lock also finds its key in the list.
    """
    bit = registry.get(key)
    if bit is None:
        with _registry_lock:
            bit = registry.get(key)
            if bit is None:
                bit = 1 << len(registry)
                if keys is not None:
                    keys.append(key)
                registry[key] = bit
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
            bits |= _bit(_CELL_BITS, (loc, val), _CELLS)
            locmask |= _bit(_LOC_BITS, loc)
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
        """Heap with `loc` remapped to `val`; `loc` must already be present.

        The one cell is replaced in the sorted cell tuple and its bit swapped
        in the cell fingerprint; the location fingerprint stays.
        """
        cells_tuple = self._cells
        for i, (cell_loc, old) in enumerate(cells_tuple):
            if cell_loc == loc:
                cell = (cell_loc, val)
                bits = self._bits & ~_CELL_BITS[cell_loc, old] | _bit(_CELL_BITS, cell, _CELLS)
                return _from_parts(
                    cells_tuple[:i] + (cell,) + cells_tuple[i + 1 :], bits, self._locmask
                )
        raise KeyError(loc)

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


def _from_bits(bits: int, locmask: int) -> Heap:
    """The heap whose cell fingerprint is `bits` and location one `locmask`,
    its cells read off the bit→cell list."""
    found = []
    rest = bits
    while rest:
        low = rest & -rest
        found.append(_CELLS[low.bit_length() - 1])
        rest ^= low
    found.sort()
    return _from_parts(tuple(found), bits, locmask)


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


# The one token pattern of heap and relation literals (the grammar is in the
# `relations` docstring): a keyword with its parenthesis, a cell (which may be
# a bare integer), any other single character, or "" at the end of the text.
_LITERAL_TOKEN_RE = re.compile(r"\s*((?i:top|empty)\(|-?[0-9]+(?:\s*(?:\|->|:)\s*-?[0-9]+)?|\S|\Z)")


class _LiteralReader:
    """Recursive descent over the tokens of a heap or relation literal."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        self.tokens = _LITERAL_TOKEN_RE.findall(text)

    def take(self, *expected: str) -> str:
        """The next token, one of `expected`, where "the end" stands for ""."""
        tok = self.tokens[self.pos]
        if (tok or "the end") not in expected:
            offset = [m.start(1) for m in _LITERAL_TOKEN_RE.finditer(self.text)][self.pos]
            wanted = " or ".join(e if " " in e else repr(e) for e in expected)
            raise ValueError(f"expected {wanted} at offset {offset} in {self.text!r}")
        self.pos += 1
        return tok

    def sequence(self, open_: str, item, close: str, empty_ok: bool = True) -> list:
        """``open_ [item (',' item)*] close``, the item required unless `empty_ok`."""
        self.take(open_)
        items = [] if empty_ok and self.tokens[self.pos] == close else [item()]
        while self.take(",", close) == ",":
            items.append(item())
        return items

    def cell(self) -> tuple[int, int]:
        """A cell token, which ends in a digit: `loc`, `loc|->int` or `loc:int`."""
        tok = self.tokens[self.pos]
        tok = self.take(tok if "0" <= tok[-1:] <= "9" else "a cell")
        loc, _, val = tok.replace("|->", ":").partition(":")
        return int(loc), int(val or 0)

    def heap_masks(self) -> tuple[list[tuple[int, int]], int, int]:
        """A heap literal read to its sorted cells and its cell and location
        fingerprints, with the checks and messages of `Heap`."""
        cells = self.sequence("[", self.cell, "]")
        if len(dict(cells)) < len(cells):
            raise ValueError(f"duplicate location in {self.text!r}")
        cells.sort()
        if cells and cells[0][0] <= 0:
            raise ValueError(f"heap locations must be positive, got {cells[0][0]}")
        bits = locmask = 0
        for cell in cells:
            bits |= _bit(_CELL_BITS, cell, _CELLS)
            locmask |= _bit(_LOC_BITS, cell[0])
        return cells, bits, locmask

    def heap(self) -> Heap:
        cells, bits, locmask = self.heap_masks()
        return _from_parts(tuple(cells), bits, locmask)

    def tuple_masks(self) -> tuple[int, ...]:
        """A tuple literal read to its cell masks, then its location masks: a
        generator's fingerprint in ``relations``, with no `Heap` built."""
        heaps = self.sequence("(", self.heap_masks, ")", empty_ok=False)
        return (*(bits for _, bits, _ in heaps), *(locmask for _, _, locmask in heaps))


def parse_heap(text: str) -> Heap:
    """Parse a heap literal: "[1|->0, 2:5]", "[]", or "[1,2]" (cells storing 0)."""
    reader = _LiteralReader(text)
    h = reader.heap()
    reader.take("the end")
    return h


def format_heap(h: Heap) -> str:
    if not h.cells:
        return "[]"
    return "[" + ", ".join(f"{loc}|->{val}" for loc, val in h.cells) + "]"
