"""Lifting criteria, the composite lift verdict, CHK, and witness search.

Three syntactic criteria on the layout graph each guarantee that a unary
eta-valid implication stays valid under the binary (indeed any-arity)
relational interpretation:

* shadow: every dashed edge carries a label that never labels a solid edge,
  and every disjunct mentions such a variable;
* balloon: some variable subset B has at most one occurrence per conjunct,
  exactly one occurrence in every non-empty disjunct, and a member on every
  dashed edge.  Given the second condition, the third says only that the
  member of B in disjunct j is absent from conjunct i on each dashed edge
  (i, j), a test on each variable alone; so B is an exact cover of the
  non-empty disjuncts by the variables that pass it, and the criterion is
  decided exactly at every size;
* lonely: a single conjunct whose counts dominate every disjunct.

The criteria are jointly complete for layouts: when all three fail, some
choice of variable-free bases with the same layout is unary valid but not
binary valid.  ``witness_search`` looks for such an instance among template
bases, skipping those that ``pc_check`` accepts (they are valid at every
arity), and packages a re-checkable binary refutation together with bounded
evidence of unary validity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from .layout import LayoutGraph, compute_layout
from .normalize import (
    MAX_FAMILY,
    Clause,
    ImplicationForm,
    family_size,
    format_implication,
    implication_assertions,
    reduce_implication,
    to_simple,
    why_not_simple,
)
from .relations import HeapTuple, format_relation, member
from .semantics import (
    DEFAULT_BUDGET,
    SearchBudget,
    _size_vectors,
    env_candidate_count,
    find_counter_env,
    interpret,
    pc_check,
)
from .syntax import (
    AssertEnv,
    Assertion,
    IntLit,
    NonEmptyHeap,
    PointsToAny,
    Star,
    TrueLit,
)

__all__ = [
    "shadow_criterion",
    "balloon_criterion",
    "lonely_criterion",
    "LiftVerdict",
    "lift_check",
    "ChkReport",
    "chk",
    "CounterexamplePackage",
    "witness_search",
    "verify_package",
    "NO_GUARANTEE_NOTE",
]

NO_GUARANTEE_NOTE = (
    "NoGuarantee is a statement about the variable layout: some choice of "
    "variable-free parts with this layout is unary valid but not binary "
    "valid.  The given implication itself may still lift."
)


def shadow_criterion(g: LayoutGraph) -> bool:
    """Let `solid_labels` be the union of the labels on solid edges.  The
    criterion holds when every dashed edge has a label outside `solid_labels`
    and every disjunct has a variable with a positive count outside it."""
    solid_labels = {v for row in g.edges for e in row if e.solid for v in e.labels}
    return all(
        not solid_labels.issuperset(e.labels)
        for row in g.edges
        for e in row
        if not e.solid
    ) and all(
        any(count and v not in solid_labels for v, count in zip(g.variables, row))
        for row in g.omega
    )


def _mask(flags) -> int:
    return sum(1 << k for k, flag in enumerate(flags) if flag)


def balloon_criterion(g: LayoutGraph) -> frozenset[str] | None:
    """The smallest, then lexicographically first, balloon subset B, if any.

    Once B hits each non-empty disjunct j exactly once, a dashed edge (i, j)
    asks only that B's member in j be absent from conjunct i.  So a variable
    can join B only if its counts are 0 or 1 and every conjunct-disjunct pair
    that both contain it is a solid edge, and a smallest B holds no variable
    that is in no disjunct.  B is then an exact cover of the non-empty
    disjuncts by such variables that hits each conjunct at most once.

    A member's conjuncts contain every disjunct it hits, so any other
    variable there shares a conjunct with it.  Hence all covers split the
    disjuncts alike and have one size, and variables that hit the same
    disjuncts are in the same conjuncts, so the first of them stands for
    all.  The first cover found in variable order, with forward checking, is
    the answer, exact at every size.
    """
    full = _mask(map(any, g.omega))
    first: dict[int, tuple[int, int]] = {}  # disjuncts -> (variable, conjuncts)
    for v in range(len(g.variables)):
        ins = [row[v] for row in g.pi]
        outs = [row[v] for row in g.omega]
        if max(ins + outs) == 1 and any(outs) and all(
            g.edge(i, j).solid for i in range(len(ins)) for j in range(len(outs))
            if ins[i] and outs[j]
        ):
            first.setdefault(_mask(outs), (v, _mask(ins)))

    def cover(candidates: list, covered: int, used: int) -> tuple[int, ...] | None:
        # the first candidates, in order, that finish the cover
        if covered == full:
            return ()
        options = [c for c in candidates if not c[1] & covered and not c[2] & used]
        reach = covered
        for _, outs, _ in options:
            reach |= outs
        if reach != full:
            return None
        for k, (v, outs, ins) in enumerate(options):
            rest = cover(options[k + 1 :], covered | outs, used | ins)
            if rest is not None:
                return (v, *rest)
        return None

    found = cover([(v, outs, ins) for outs, (v, ins) in first.items()], 0, 0)
    return None if found is None else frozenset(g.variables[v] for v in found)


def lonely_criterion(g: LayoutGraph) -> bool:
    return g.conjunct_count == 1 and all(
        g.edge(0, j).solid for j in range(g.disjunct_count)
    )


@dataclass(frozen=True, slots=True)
class LiftVerdict:
    result: str  # "lifts" | "no_guarantee"
    criterion: str | None = None
    balloon_subset: frozenset[str] | None = None

    def __bool__(self) -> bool:
        return self.result == "lifts"

    def describe(self) -> str:
        if self.result == "lifts":
            if self.criterion == "balloon":
                subset = "{" + ",".join(sorted(self.balloon_subset)) + "}"
                return f"LIFTS (Balloon {subset})"
            return f"LIFTS ({self.criterion.capitalize()})"
        return "NO GUARANTEE"


_SHADOW = LiftVerdict("lifts", "shadow")
_LONELY = LiftVerdict("lifts", "lonely")
_NO_GUARANTEE = LiftVerdict("no_guarantee")


def _layout_verdict(g: LayoutGraph) -> LiftVerdict:
    """Check the criteria in the fixed order shadow, balloon, lonely."""
    if shadow_criterion(g):
        return _SHADOW
    subset = balloon_criterion(g)
    if subset is not None:
        return LiftVerdict("lifts", "balloon", subset)
    if lonely_criterion(g):
        return _LONELY
    return _NO_GUARANTEE


def lift_check(form: ImplicationForm) -> LiftVerdict:
    """The lift verdict of the form's layout."""
    return _layout_verdict(compute_layout(form))


# --- CHK ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChkReport:
    ok: bool
    reason: str
    members: tuple[tuple[ImplicationForm, LiftVerdict], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def chk(phi: Assertion, psi: Assertion) -> ChkReport:
    """Two-phase implication gate.

    Phase one rewrites both sides to simple form; phase two reduces the
    implication to its canonical family and requires every member's layout to
    satisfy a lifting criterion.  A side past the clause bound, or a family
    past the member bound, is a rejection whose reason names the bound.
    """
    simple_lhs = to_simple(phi)
    if simple_lhs is None:
        return ChkReport(False, f"left-hand side {why_not_simple(phi)}")
    simple_rhs = to_simple(psi)
    if simple_rhs is None:
        return ChkReport(False, f"right-hand side {why_not_simple(psi)}")
    if family_size(simple_lhs, simple_rhs) > MAX_FAMILY:
        return ChkReport(False, f"the family exceeds the {MAX_FAMILY:,}-member bound")
    members = []
    all_ok = True
    for form in reduce_implication(simple_lhs, simple_rhs):
        verdict = lift_check(form)
        members.append((form, verdict))
        if not verdict:
            all_ok = False
    reason = "all family members lift" if all_ok else "a family member fails the criteria"
    return ChkReport(all_ok, reason, tuple(members))


# --- counterexample packages -------------------------------------------------


@dataclass(frozen=True)
class CounterexamplePackage:
    """A layout refutation: an instance, a binary environment, and a witness.

    The package claims: the instance is unary valid (supported by a bounded
    search that found no unary refutation) while `witness` lies in the binary
    interpretation of its left side but not its right side under `binary_rho`.
    Both halves re-check via the interpreter; see `verify_package`.
    """

    form: ImplicationForm
    eta: Mapping[str, int]
    binary_rho: AssertEnv
    witness: HeapTuple
    unary_budget: SearchBudget
    unary_space: int  # environments exhausted by the unary search

    def describe(self) -> str:
        rho_text = ", ".join(
            f"{name} -> {format_relation(rel)}" for name, rel in self.binary_rho.items()
        )
        witness_text = "(" + ", ".join(str(h) for h in self.witness) + ")"
        return (
            f"instance: {format_implication(self.form)}\n"
            f"binary environment: {rho_text}\n"
            f"witness pair: {witness_text}\n"
            f"unary evidence: no refutation among {self.unary_space} environments "
            f"({self.unary_budget.describe()})"
        )


def verify_package(pkg: CounterexamplePackage) -> bool:
    """Re-check a package's claims against the interpreter."""
    lhs, rhs = implication_assertions(pkg.form)
    dom = pkg.unary_budget.domain()
    lhs_rel = interpret(lhs, pkg.eta, pkg.binary_rho, 2, dom)
    rhs_rel = interpret(rhs, pkg.eta, pkg.binary_rho, 2, dom)
    if not member(lhs_rel, pkg.witness) or member(rhs_rel, pkg.witness):
        return False
    return find_counter_env(lhs, rhs, pkg.eta, 1, pkg.unary_budget) is None


def _unary_evidence_budget(budget: SearchBudget) -> SearchBudget:
    # The unary no-refutation evidence is only bounded, so search it over a
    # strictly larger space than the binary refutation needs; this rejects
    # instances whose unary validity is an artifact of the small bound.
    return replace(
        budget, max_loc=budget.max_loc + 1, max_generators=budget.max_generators + 1
    )


_BASE_TEMPLATES: tuple[Assertion, ...] = (
    TrueLit(),
    NonEmptyHeap(),
    PointsToAny(IntLit(1)),
    Star(NonEmptyHeap(), NonEmptyHeap()),
)


def _template_instances(g: LayoutGraph) -> Iterator[ImplicationForm]:
    """Each template choice of bases, one index per clause, in `_size_vectors` order.

    The 4**slots choices are generated one at a time, never all held at once.
    """
    avars = [
        tuple(var for var, count in zip(g.variables, row) for _ in range(count))
        for row in g.pi + g.omega
    ]
    for assignment in _size_vectors(len(avars), len(_BASE_TEMPLATES) - 1):
        clauses = tuple(
            Clause(_BASE_TEMPLATES[t], vs) for t, vs in zip(assignment, avars)
        )
        yield ImplicationForm(clauses[: g.conjunct_count], clauses[g.conjunct_count :])


def witness_search(
    form: ImplicationForm, budget: SearchBudget = DEFAULT_BUDGET
) -> CounterexamplePackage | None:
    """Search for a unary-valid, binary-invalid instance of a layout.

    Returns None immediately when the layout satisfies a lifting criterion
    (soundness forbids a witness).  Otherwise instantiates the variable-free
    parts from a small template family.  Instances that `pc_check` accepts
    are skipped: they meet the arity-independent validity condition, so no
    arity refutes them.  The rest are kept when they survive a bounded unary
    validity search and refuted with the binary environment search.
    """
    g = compute_layout(form)
    if _layout_verdict(g):
        return None

    unary_budget = _unary_evidence_budget(budget)
    for instance in _template_instances(g):
        if pc_check(instance, {}, budget):
            continue
        lhs, rhs = implication_assertions(instance)
        if find_counter_env(lhs, rhs, {}, 1, unary_budget) is not None:
            continue  # not (boundedly) unary valid; useless as a witness
        refutation = find_counter_env(lhs, rhs, {}, 2, budget)
        if refutation is not None:
            return CounterexamplePackage(
                instance,
                {},
                refutation.rho,
                refutation.witness,
                unary_budget,
                env_candidate_count(len(form.variables), 1, unary_budget),
            )
    return None
