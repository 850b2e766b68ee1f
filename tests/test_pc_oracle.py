"""`pc_check` against the heap enumeration it replaced.

`naive_pc_check` walks every heap over the bound, every subheap per
conjunct and every product of parts, and returns the first violating family
in that order.  `pc_check` decides the same condition on generators; the two
must agree on the verdict and on the witness.
"""

import inspect
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from seplift.catalog import CURATED_SUITE
from seplift.heap import Heap
from seplift.layout import compute_layout
from seplift.lifting import _template_instances, witness_search
from seplift.normalize import Clause, ImplicationForm
from seplift.relations import member
from seplift.semantics import (
    DEFAULT_BUDGET,
    PCVerdict,
    PCWitness,
    SearchBudget,
    _evaluate,
    bounded_heaps,
    pc_check,
)
from seplift.syntax import parse


def _subheaps(h: Heap) -> list[Heap]:
    cells = h.cells
    out = []
    for size in range(len(cells) + 1):
        for chosen in combinations(cells, size):
            out.append(Heap(dict(chosen)))
    out.sort(key=Heap.sort_key)
    return out


def naive_pc_check(form, eta, budget=DEFAULT_BUDGET, dom=None) -> PCVerdict:
    dom = dom or budget.domain()
    layout = compute_layout(form)
    conj_rels = [_evaluate(c.base, eta, None, 1, dom) for c in form.conjuncts]
    disj_rels = [_evaluate(d.base, eta, None, 1, dom) for d in form.disjuncts]
    dominated = [
        [
            j
            for j in range(layout.disjunct_count)
            if layout.edge(i, j).solid
        ]
        for i in range(layout.conjunct_count)
    ]
    empty_disjuncts = list(layout.empty_disjuncts)

    checked = 0
    for h in bounded_heaps(budget.max_loc, dom.values):
        part_choices = []
        for rel in conj_rels:
            parts = [sub for sub in _subheaps(h) if member(rel, (sub,))]
            if not parts:
                break
            part_choices.append(parts)
        else:
            whole_covered = any(
                member(disj_rels[j], (h,)) for j in empty_disjuncts
            )
            for parts in product(*part_choices):
                checked += 1
                if whole_covered:
                    continue
                if any(
                    member(disj_rels[j], (parts[i],))
                    for i in range(len(parts))
                    for j in dominated[i]
                ):
                    continue
                return PCVerdict(False, PCWitness(h, parts), checked)
    return PCVerdict(True, None, checked)


def _agree(form, budget):
    fast, naive = pc_check(form, {}, budget), naive_pc_check(form, {}, budget)
    assert (fast.holds, fast.witness) == (naive.holds, naive.witness), (form, budget)


# Bases mix in-bound and out-of-bound locations (up to 4) and values
# (-1..3), quantifiers, disjunction and false.
_LOCS = st.integers(1, 4)
_VALS = st.integers(-1, 3)
_ATOMS = st.one_of(
    st.builds("{}|->{}".format, _LOCS, _VALS),
    st.builds("{}|->_".format, _LOCS),
    st.sampled_from(["-", "true", "false"]),
    st.builds("EX x. x|->{}".format, _VALS),
    st.builds("EX x. {}|->x".format, _LOCS),
    st.builds("ALL x. ({}|->_ \\/ x = {})".format, _LOCS, _VALS),
)
_BASES = st.recursive(
    _ATOMS,
    lambda inner: st.builds(
        "({}) {} ({})".format, inner, st.sampled_from(["*", "/\\", "\\/"]), inner
    ),
    max_leaves=3,
)
_CLAUSES = st.builds(
    lambda text, a, b: Clause(parse(text), ("a",) * a + ("b",) * b),
    _BASES,
    st.integers(0, 2),
    st.integers(0, 2),
)


@st.composite
def _forms(draw):
    conjuncts = draw(st.lists(_CLAUSES, min_size=1, max_size=3))
    lhs_vars = {v for c in conjuncts for v in c.avars}
    disjuncts = draw(
        st.lists(
            _CLAUSES.filter(lambda d: set(d.avars) <= lhs_vars), max_size=3
        )
    )
    return ImplicationForm(tuple(conjuncts), tuple(disjuncts))


_BUDGETS = st.builds(
    SearchBudget,
    max_loc=st.integers(1, 3),
    values=st.lists(st.integers(-1, 3), min_size=1, max_size=3, unique=True).map(
        tuple
    ),
)


@settings(max_examples=300)
@given(_forms(), _BUDGETS)
def test_pc_check_matches_the_heap_enumeration(form, budget):
    _agree(form, budget)


def test_pc_check_matches_the_heap_enumeration_on_the_curated_suite():
    for entry in CURATED_SUITE:
        for budget in (DEFAULT_BUDGET, SearchBudget(2, (0, 1)), SearchBudget(4)):
            _agree(entry.form, budget)


def test_pc_check_matches_the_heap_enumeration_on_template_instances():
    budget = inspect.signature(witness_search).parameters["budget"].default
    layouts = [e.form for e in CURATED_SUITE if e.expected == "no_guarantee"]
    assert len(layouts) == 5
    for form in layouts:
        for instance in _template_instances(compute_layout(form)):
            _agree(instance, budget)
