"""The token reader of heap and relation literals against the readers it replaced.

`old_parse_relation` and `old_parse_heap` are the former readers, kept
verbatim: a character loop and a bracket-depth splitter for relations, a
per-cell regex for heaps.  Whenever the token reader accepts a string, the
old reader must return the same relation for it, and both must accept every
literal the grammar in the `relations` docstring generates.  The token reader
is stricter: `REJECTED_FORMS` lists what only the old reader accepted.

`heap_path_relation` is the token reader as it was before relation literals
were read straight to fingerprints: it builds a `Heap` per heap literal and a
`GenRel` from the heap tuples.  The two must agree on every text, on the
relation and on the error message alike.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR
from seplift.heap import EMPTY_HEAP, Heap, _LiteralReader, parse_heap
from seplift.relations import (
    GenRel,
    HeapTuple,
    empty,
    format_relation,
    parse_relation,
    top,
)
from seplift.scenarios import parse_scenario

# --- the former readers, verbatim ----------------------------------------------

_HEAP_CELL_RE = re.compile(
    r"\s*(\d+)\s*(?:(?:\|->|↦|:)\s*(-?\d+))?\s*$",
)


def old_parse_heap(text: str) -> Heap:
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


_KEYWORD_FORMS = ("TOP", "EMPTY")


def old_parse_relation(text: str, arity: int | None = None) -> GenRel:
    """Parse a relation literal.

    Accepted forms: "TOP(n)", "EMPTY(n)", or a generator-set literal such as
    "{ ([1|->0],[]) , ([2|->0],[2|->0]) }" denoting the upward closure of the
    listed tuples.
    """
    stripped = text.strip()
    for keyword in _KEYWORD_FORMS:
        if stripped.upper().startswith(keyword + "("):
            inner = stripped[len(keyword) + 1 :].strip()
            if not inner.endswith(")"):
                raise ValueError(f"malformed relation literal {text!r}")
            try:
                n = int(inner[:-1])
            except ValueError:
                raise ValueError(f"malformed relation literal {text!r}") from None
            if arity is not None and n != arity:
                raise ValueError(f"{text!r} has arity {n}, expected {arity}")
            return top(n) if keyword == "TOP" else empty(n)
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise ValueError(f"relation literal must be braced or TOP/EMPTY: {text!r}")
    body = stripped[1:-1].strip()
    tuples: list[HeapTuple] = []
    pos = 0
    while pos < len(body):
        if body[pos].isspace() or body[pos] == ",":
            pos += 1
            continue
        if body[pos] != "(":
            raise ValueError(f"expected '(' at offset {pos} in {text!r}")
        depth_end = body.find(")", pos)
        if depth_end < 0:
            raise ValueError(f"unclosed tuple in {text!r}")
        chunk = body[pos + 1 : depth_end]
        heaps = _split_heap_list(chunk)
        tuples.append(tuple(old_parse_heap(h) for h in heaps))
        pos = depth_end + 1
    if not tuples and arity is None:
        raise ValueError(
            "empty generator literal needs an explicit arity; use EMPTY(n)"
        )
    arities = {len(t) for t in tuples} or {arity}
    if len(arities) > 1:
        raise ValueError(f"mixed tuple arities in {text!r}")
    (n,) = arities
    if arity is not None and n != arity:
        raise ValueError(f"{text!r} has arity {n}, expected {arity}")
    return GenRel(n, tuples)


def _split_heap_list(chunk: str) -> list[str]:
    parts = []
    depth = 0
    current = ""
    for ch in chunk:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current)
    return [p.strip() for p in parts if p.strip()]


# --- the token reader through heaps, before it read fingerprints ----------------


def heap_path_relation(text: str, arity: int | None = None) -> GenRel:
    reader = _LiteralReader(text)

    def heap() -> Heap:
        cells = reader.sequence("[", reader.cell, "]")
        if len(dict(cells)) < len(cells):
            raise ValueError(f"duplicate location in {text!r}")
        return Heap(cells)

    tokens = reader.tokens
    keyword = tokens[0].upper()
    if keyword in ("TOP(", "EMPTY("):
        if tokens[2:4] != [")", ""] or not tokens[1].lstrip("-").isdigit():
            raise ValueError(f"malformed relation literal {text!r}")
        n = int(tokens[1])
        tuples = [(EMPTY_HEAP,) * n] if keyword == "TOP(" else []
    else:
        tuples = reader.sequence(
            "{", lambda: tuple(reader.sequence("(", heap, ")", empty_ok=False)), "}"
        )
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


# --- literals the grammar generates ---------------------------------------------

_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
_HEAP_DICTS = st.dictionaries(st.integers(1, 12), st.integers(-3, 3), max_size=3)


@st.composite
def _cell_tokens(draw, loc: int, val: int) -> list[str]:
    spellings = [[str(loc), "|->", str(val)], [str(loc), ":", str(val)]]
    return draw(st.sampled_from(spellings + [[str(loc)]] * (val == 0)))


@st.composite
def _heap_tokens(draw, cells: dict[int, int]) -> list[str]:
    tokens = ["["]
    for k, (loc, val) in enumerate(cells.items()):
        tokens += [","] * (k > 0) + draw(_cell_tokens(loc, val))
    return tokens + ["]"]


@st.composite
def grammar_literals(draw):
    """(tokens, arity argument, relation) of a literal the grammar generates.

    Every generated literal is well formed: its heaps repeat no location, its
    tuples share one arity, and an empty set comes with its arity.
    """
    n = draw(st.integers(1, 3))
    form = draw(st.sampled_from(["TOP", "EMPTY", "set", "set"]))
    if form != "set":
        keyword = draw(st.sampled_from([form, form.lower(), form.capitalize()]))
        relation = top(n) if form == "TOP" else empty(n)
        return [keyword + "(", str(n), ")"], draw(st.sampled_from([None, n])), relation
    gens = draw(st.lists(st.tuples(*[_HEAP_DICTS] * n), max_size=3))
    tokens = ["{"]
    for k, gen in enumerate(gens):
        tokens += [","] * (k > 0) + ["("]
        for i, cells in enumerate(gen):
            tokens += [","] * (i > 0) + draw(_heap_tokens(cells))
        tokens.append(")")
    arity = draw(st.sampled_from([None, n])) if gens else n
    relation = GenRel(n, [tuple(Heap(cells) for cells in gen) for gen in gens])
    return tokens + ["}"], arity, relation


def _readout(r: GenRel) -> tuple:
    """A relation with everything a caller can read off it."""
    return r, hash(r), r.generators, r.sorted_generators(), format_relation(r)


def _spaced(draw, tokens: list[str]) -> str:
    return "".join(draw(_SPACE) + tok for tok in tokens) + draw(_SPACE)


def _reading(reader, text: str, arity):
    try:
        return reader(text, arity)
    except ValueError:
        return None


@settings(max_examples=300)
@given(st.data())
def test_both_readers_accept_every_grammar_literal(data):
    tokens, arity, relation = data.draw(grammar_literals())
    text = _spaced(data.draw, tokens)
    # read to fingerprints, it reads off like `GenRel(n, tuples)` of heaps
    assert _readout(parse_relation(text, arity)) == _readout(relation)
    assert old_parse_relation(text, arity) == relation


_TOKEN_SOUP = st.lists(
    st.sampled_from(
        ["{", "}", "(", ")", "[", "]", ",", ":", "|->", "1", "2", "0", "-1",
         "TOP(", "empty(", " ", "x", "↦", "-", "+", ">"]
    ),
    max_size=16,
).map("".join)


@st.composite
def _edited_literals(draw) -> tuple[str, int | None]:
    """A grammar literal after one edit of its tokens, and an arity argument.

    The edit keeps the tokens, deletes, doubles or replaces one, swaps two
    neighbours, or puts a space inside one, such as 'TOP (' or '| ->'.
    """
    tokens, arity, _ = draw(grammar_literals())
    k = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["keep", "delete", "double", "replace", "swap", "split"]))
    if edit == "delete":
        tokens = tokens[:k] + tokens[k + 1 :]
    elif edit == "double":
        tokens = tokens[: k + 1] + tokens[k:]
    elif edit == "replace":
        tokens = tokens[:k] + [draw(_TOKEN_SOUP)] + tokens[k + 1 :]
    elif edit == "swap" and k + 1 < len(tokens):
        tokens = tokens[:k] + [tokens[k + 1], tokens[k]] + tokens[k + 2 :]
    elif edit == "split":
        cut = draw(st.integers(0, len(tokens[k])))
        tokens = tokens[:k] + [tokens[k][:cut] + " " + tokens[k][cut:]] + tokens[k + 1 :]
    return _spaced(draw, tokens), draw(st.sampled_from([arity, arity, None, 1, 2]))


@settings(max_examples=600)
@given(st.one_of(st.tuples(_TOKEN_SOUP, st.sampled_from([None, 1, 2])), _edited_literals()))
@example(("{ ([1],[]) , ([2],[2]) }", None))
@example((" top( 2 ) ", 2))
@example(("TOP (2)", None))
@example(("{ ([1:0]) }", 2))
@example(("{ ([1:0, 1:1]) }", None))
@example(("{ ([1:+1],[]) }", None))
def test_old_reader_agrees_whenever_the_token_reader_accepts(case):
    text, arity = case
    new = _reading(parse_relation, text, arity)
    if new is not None:
        assert old_parse_relation(text, arity) == new


def _outcome(reader, text: str, arity):
    """What a reader makes of a text: its error message or its relation's readout."""
    try:
        return _readout(reader(text, arity))
    except ValueError as err:
        return str(err)


# Relation literals with locations from -2 to 3, repeated or not, and tuples
# of mixed arities: the checks of a `Heap` and of `parse_relation` meet here.
_ANY_CELLS = st.lists(st.tuples(st.integers(-2, 3), st.integers(-1, 1)), max_size=3)
_ANY_LITERALS = st.lists(st.lists(_ANY_CELLS, min_size=1, max_size=3), max_size=3).map(
    lambda tuples: "{ " + ", ".join(
        "(" + ",".join("[" + ", ".join(f"{l}|->{v}" for l, v in cells) + "]" for cells in t) + ")"
        for t in tuples
    ) + " }"
)


@settings(max_examples=600)
@given(
    st.one_of(
        st.tuples(_ANY_LITERALS, st.sampled_from([None, 1, 2, 3])),
        st.tuples(_TOKEN_SOUP, st.sampled_from([None, 0, 1, 2])),
        _edited_literals(),
    )
)
@example(("{ ([1:0, 1:1],[]) }", None))
@example(("{ ([0:1],[]) }", 2))
@example(("{ ([2, -1, 0]) }", None))
@example(("{ ([1],[]), ([1]) }", None))
@example(("{ ([1],[]), ([0:1]) }", None))
@example(("{ ([1],[1],[1]) }", 2))
@example(("TOP(0)", None))
@example(("TOP(-1)", 2))
@example(("EMPTY(0)", 0))
@example(("{ }", 0))
def test_fingerprint_reader_agrees_with_the_heap_path_on_every_text(case):
    text, arity = case
    assert _outcome(parse_relation, text, arity) == _outcome(heap_path_relation, text, arity)


@pytest.mark.parametrize(
    "literal, message",
    [
        ("{ ([1:0, 1:1],[]) }", "duplicate location in '{ ([1:0, 1:1],[]) }'"),
        ("{ ([1],[]), ([0:1],[]) }", "heap locations must be positive, got 0"),
        ("{ ([2, -1, -2],[]) }", "heap locations must be positive, got -2"),
        ("{ ([1],[]), ([1]) }", "mixed tuple arities in '{ ([1],[]), ([1]) }'"),
    ],
)
def test_literal_errors_keep_their_messages(literal, message):
    with pytest.raises(ValueError) as err:
        parse_relation(literal)
    assert str(err.value) == message


_ROUND_TRIP_HEAPS = st.dictionaries(st.integers(1, 4), st.integers(-2, 2), max_size=2).map(Heap)


@settings(max_examples=200)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.frozensets(st.tuples(*[_ROUND_TRIP_HEAPS] * n), max_size=3).map(
            lambda gens: GenRel(n, gens)
        )
    )
)
def test_format_relation_round_trips_at_arities_1_to_3(r):
    assert parse_relation(format_relation(r), r.arity) == r
    assert parse_relation(format_relation(r)) == r


# Forms the old scanner let through and the grammar rejects.
REJECTED_FORMS = [
    ("{ ([1],[]) ([2],[]) }", "no comma between tuples"),
    ("{ ([1],[])([2],[]) }", "no comma between tuples"),
    ("{ ,, ([1],[]) ,, }", "stray commas around tuples"),
    ("{ ([1],[]), }", "a trailing comma after the last tuple"),
    ("{ (,[1],[]) }", "a stray comma before the first heap"),
    ("{ ([1],,[]) }", "a doubled comma between heaps"),
    ("{ ([1],[],) }", "a trailing comma after the last heap"),
    ("{ ([1↦0],[]) }", "the ↦ spelling of a cell"),
]


@pytest.mark.parametrize("literal, form", REJECTED_FORMS)
def test_grammar_rejects_what_the_scanner_let_through(literal, form):
    assert old_parse_relation(literal).arity == 2
    with pytest.raises(ValueError, match="expected .* at offset"):
        parse_relation(literal)


def test_errors_name_the_offset_in_the_whole_text():
    with pytest.raises(ValueError, match="expected ',' or '}' at offset 10 in"):
        parse_relation("{ ([1],[])x }")
    with pytest.raises(ValueError, match="expected '\\[' at offset 0 in '1|->0'"):
        parse_heap("1|->0")
    with pytest.raises(ValueError, match="expected the end at offset 4"):
        parse_heap("[1] [2]")


def test_every_scenario_coupling_reads_as_before():
    literals = 0
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        text = path.read_text(encoding="utf-8")
        coupling = parse_scenario(text).coupling
        section = None
        for line in text.splitlines():
            line = line.split("#", 1)[0].rstrip()
            if line and not line[0].isspace():
                section = line.partition(":")[0]
            elif section == "coupling" and line.strip():
                name, _, literal = line.strip().partition(":")
                assert coupling[name] == old_parse_relation(literal.strip(), 2)
                literals += 1
    assert literals == 6
