"""Lifting criteria, the composite lift verdict, CHK, and witness search.

Three syntactic criteria on the layout graph each guarantee that a unary
eta-valid implication stays valid under the binary (indeed any-arity)
relational interpretation:

* shadow: every dashed edge carries a label that never labels a solid edge,
  and every disjunct mentions such a variable;
* balloon: some variable subset B has at most one occurrence per conjunct,
  exactly one occurrence in every non-empty disjunct, and a member on every
  dashed edge;
* lonely: a single conjunct whose counts dominate every disjunct.

The criteria are jointly complete for layouts: when all three fail, some
choice of variable-free bases with the same layout is unary valid but not
binary valid.  ``witness_search`` looks for such an instance among template
bases, skipping those that ``pc_check`` accepts (they are valid at every
arity), and packages a re-checkable binary refutation together with bounded
evidence of unary validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Mapping

from .layout import LayoutGraph, compute_layout
from .normalize import (
    Clause,
    ImplicationForm,
    format_implication,
    implication_assertions,
    reduce_implication,
    to_simple,
)
from .relations import HeapTuple, member
from .semantics import (
    DEFAULT_BUDGET,
    SearchBudget,
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
    "BalloonResult",
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


def _stable_vars(g: LayoutGraph) -> list[int]:
    """Indices of variables whose count never changes across a solid edge."""
    stable = []
    for v in range(len(g.variables)):
        if all(
            g.pi[i][v] == g.omega[j][v]
            for i in range(g.conjunct_count)
            for j in range(g.disjunct_count)
            if g.edge(i, j).solid
        ):
            stable.append(v)
    return stable


def shadow_criterion(g: LayoutGraph) -> tuple[bool, tuple[str, ...]]:
    """Both shadow conditions, with diagnostics naming the first failure."""
    stable = set(_stable_vars(g))
    for i in range(g.conjunct_count):
        for j in range(g.disjunct_count):
            edge = g.edge(i, j)
            if edge.solid:
                continue
            if not any(
                v in stable and g.pi[i][v] < g.omega[j][v]
                for v in range(len(g.variables))
            ):
                return False, (
                    f"dashed edge ({i + 1},{j + 1}) has no label off all solid edges",
                )
    for j in range(g.disjunct_count):
        if not any(v in stable and g.omega[j][v] > 0 for v in range(len(g.variables))):
            return False, (
                f"disjunct {j + 1} has no occurrence of a variable off all solid edges",
            )
    return True, ()


@dataclass(frozen=True)
class BalloonResult:
    subset: frozenset[str] | None
    undecided: bool
    diagnostics: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.subset is not None


_BALLOON_EXHAUSTIVE_LIMIT = 16


def balloon_criterion(g: LayoutGraph) -> BalloonResult:
    """First variable subset B satisfying the balloon conditions, if any.

    Subsets are tried in increasing size, then lexicographically, so the
    reported B is deterministic.  Beyond 16 variables the subset space is not
    searched and the result is explicitly undecided rather than a guess.
    """
    variables = g.variables
    if len(variables) > _BALLOON_EXHAUSTIVE_LIMIT:
        return BalloonResult(
            None, True, (f"undecided: {len(variables)} variables exceed subset budget",)
        )
    indices = range(len(variables))
    dashed = [
        (i, j)
        for i in range(g.conjunct_count)
        for j in range(g.disjunct_count)
        if not g.edge(i, j).solid
    ]
    last_reason = "no subset satisfies all three conditions"
    for size in range(len(variables) + 1):
        for subset in combinations(indices, size):
            chosen = set(subset)
            if any(sum(g.pi[i][v] for v in chosen) > 1 for i in range(g.conjunct_count)):
                continue
            if any(
                any(g.omega[j])
                and sum(g.omega[j][v] for v in chosen) != 1
                for j in range(g.disjunct_count)
            ):
                continue
            if any(
                not any(g.pi[i][v] < g.omega[j][v] for v in chosen)
                for i, j in dashed
            ):
                continue
            return BalloonResult(
                frozenset(variables[v] for v in subset), False, ()
            )
    return BalloonResult(None, False, (last_reason,))


def lonely_criterion(g: LayoutGraph) -> bool:
    return g.conjunct_count == 1 and all(
        g.edge(0, j).solid for j in range(g.disjunct_count)
    )


@dataclass(frozen=True)
class LiftVerdict:
    result: str  # "lifts" | "no_guarantee" | "undecided"
    criterion: str | None = None
    balloon_subset: frozenset[str] | None = None
    diagnostics: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.result == "lifts"

    def describe(self) -> str:
        if self.result == "lifts":
            if self.criterion == "balloon":
                subset = "{" + ",".join(sorted(self.balloon_subset)) + "}"
                return f"LIFTS (Balloon {subset})"
            return f"LIFTS ({self.criterion.capitalize()})"
        if self.result == "undecided":
            return "UNDECIDED: " + "; ".join(self.diagnostics)
        return "NO GUARANTEE"


def lift_check(form: ImplicationForm) -> LiftVerdict:
    """Check the criteria in the fixed order shadow, balloon, lonely."""
    g = compute_layout(form)
    shadow_ok, shadow_diag = shadow_criterion(g)
    if shadow_ok:
        return LiftVerdict("lifts", "shadow")
    balloon = balloon_criterion(g)
    if balloon:
        return LiftVerdict("lifts", "balloon", balloon.subset)
    if lonely_criterion(g):
        return LiftVerdict("lifts", "lonely")
    if balloon.undecided:
        # A subset may still exist beyond the search budget, so the layout
        # cannot honestly be called unliftable.
        return LiftVerdict("undecided", None, None, balloon.diagnostics)
    diagnostics = shadow_diag + balloon.diagnostics + (NO_GUARANTEE_NOTE,)
    return LiftVerdict("no_guarantee", None, None, diagnostics)


# --- CHK ---------------------------------------------------------------------


@dataclass(frozen=True)
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
    satisfy a lifting criterion.
    """
    simple_lhs = to_simple(phi)
    if simple_lhs is None:
        return ChkReport(False, "left-hand side has no simple form")
    simple_rhs = to_simple(psi)
    if simple_rhs is None:
        return ChkReport(False, "right-hand side has no simple form")
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
        rho_text = ", ".join(f"{name} -> {rel}" for name, rel in self.binary_rho.items())
        witness_text = "(" + ", ".join(str(h) for h in self.witness) + ")"
        return (
            f"instance: {format_implication(self.form)}\n"
            f"binary environment: {rho_text}\n"
            f"witness pair: {witness_text}\n"
            f"unary evidence: no refutation among {self.unary_space} environments "
            f"(locs<={self.unary_budget.max_loc}, vals={list(self.unary_budget.values)}, "
            f"gens<={self.unary_budget.max_generators})"
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


def _vars_from_counts(
    variables: tuple[str, ...], counts: tuple[int, ...]
) -> tuple[str, ...]:
    out: list[str] = []
    for var, count in zip(variables, counts):
        out.extend([var] * count)
    return tuple(out)


def _unary_evidence_budget(budget: SearchBudget) -> SearchBudget:
    # The unary no-refutation evidence is only bounded, so search it over a
    # strictly larger space than the binary refutation needs; this rejects
    # instances whose unary validity is an artifact of the small bound.
    return SearchBudget(
        max_loc=budget.max_loc + 1,
        values=budget.values,
        max_generators=budget.max_generators + 1,
        max_heap_size=budget.max_heap_size,
    )


_BASE_TEMPLATES: tuple[Assertion, ...] = (
    TrueLit(),
    NonEmptyHeap(),
    PointsToAny(IntLit(1)),
    Star(NonEmptyHeap(), NonEmptyHeap()),
    Star(PointsToAny(IntLit(1)), PointsToAny(IntLit(2))),
)


def _template_instances(g: LayoutGraph) -> Iterator[ImplicationForm]:
    """Each template choice of bases for the layout, in search order."""
    slots = g.conjunct_count + g.disjunct_count
    assignments = sorted(
        product(range(len(_BASE_TEMPLATES)), repeat=slots),
        key=lambda a: (sum(a), a),
    )
    for assignment in assignments:
        yield ImplicationForm(
            tuple(
                Clause(_BASE_TEMPLATES[t], _vars_from_counts(g.variables, row))
                for t, row in zip(assignment, g.pi)
            ),
            tuple(
                Clause(_BASE_TEMPLATES[t], _vars_from_counts(g.variables, row))
                for t, row in zip(assignment[g.conjunct_count :], g.omega)
            ),
        )


def witness_search(
    subject: ImplicationForm | LayoutGraph,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> CounterexamplePackage | None:
    """Search for a unary-valid, binary-invalid instance of a layout.

    Returns None immediately when the layout satisfies a lifting criterion
    (soundness forbids a witness).  Otherwise instantiates the variable-free
    parts from a small template family.  Instances that `pc_check` accepts
    are skipped: they meet the arity-independent validity condition, so no
    arity refutes them.  The rest are kept when they survive a bounded unary
    validity search and refuted with the binary environment search.
    """
    g = subject if isinstance(subject, LayoutGraph) else compute_layout(subject)
    shadow_ok, _ = shadow_criterion(g)
    if shadow_ok or balloon_criterion(g) or lonely_criterion(g):
        return None

    unary_budget = _unary_evidence_budget(budget)
    for form in _template_instances(g):
        if pc_check(form, {}, budget):
            continue
        lhs, rhs = implication_assertions(form)
        if find_counter_env(lhs, rhs, {}, 1, unary_budget) is not None:
            continue  # not (boundedly) unary valid; useless as a witness
        refutation = find_counter_env(lhs, rhs, {}, 2, budget)
        if refutation is not None:
            return CounterexamplePackage(
                form,
                {},
                refutation.rho,
                refutation.witness,
                unary_budget,
                env_candidate_count(len(form.variables), 1, unary_budget),
            )
    return None
