"""Loop-free commands, their semantics, the proof checker, and 2-validity.

Commands call module operations, write heap cells, read-bind cells, sequence,
and branch on heap-independent booleans.  ``skip`` is included as a command
because module implementations need a no-op.  Execution is a total function
into heaps extended with an error outcome ``ERR`` for absent-cell accesses.

Proofs are explicit derivations over the usual rules (module-call and
heap-write axioms, frame, existential, sequencing, conditional), which hold
in the relational reading as they stand, plus a rule of consequence, the only
one checked semantically: each implication must pass ``chk`` (so it lifts to
the relational reading) and a bounded environment search must find no unary
counterexample.  A side that is the same assertion on both ends, φ ⊨ φ, holds
at every arity and is not gated.  So ``check_proof`` answers Accepted
relative to the search bound, never unconditionally.  A sequence is one node
holding a tuple, of commands (``SeqCmd``, built by ``seq``) or of steps
(``SeqRule``), and the checker visits each node of a derivation once, so a
straight-line proof is checked in time linear in its length.

``two_validity_test`` checks the binary reading of triples: one client, two
module implementations built by ``build_modules``, assertion variables
interpreted by coupling relations.  It runs each precondition generator pair
once, with no frame, and the answer is exact up to the value domain.
Commands are local actions in the sense of Calcagno, O'Hearn and Yang,
"Local Action and Abstract Separation Logic" (LICS 2007): they never
allocate or free, an access to an absent cell faults, and a branch reads
only normal variables.  So a run on ``g·f`` faults only if the run on ``g``
does (safety monotonicity), and otherwise gives the run on ``g`` composed
with ``f`` (the frame property).  A post generator that the output
``out·f`` extends and that is disjoint from ``f`` lies inside ``out``, so a
violation exists under some frame exactly when one exists under the empty
frame.  Inputs whose cell values leave the budget are skipped; outputs are
judged against the full interpretation domain, so couplings should be
encoded over a domain closed under one operation step.  An error outcome on
either side is a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

from .heap import Heap
from .lifting import chk
from .relations import member
from .semantics import (
    DEFAULT_BUDGET,
    SearchBudget,
    ValueDomain,
    find_counter_env,
    interpret,
)
from .syntax import (
    And,
    AssertEnv,
    Assertion,
    BoolAtom,
    Exists,
    Expr,
    PointsTo,
    PointsToAny,
    Star,
    UnboundVariable,
    eval_bool,
    eval_expr,
    free_expr_vars,
    free_vars,
    pretty,
)

__all__ = [
    "Command",
    "Skip",
    "Call",
    "Write",
    "LetRead",
    "SeqCmd",
    "seq",
    "IfCmd",
    "ERR",
    "exec_command",
    "build_modules",
    "CommandOp",
    "command_vars",
    "Triple",
    "Derivation",
    "CallAxiom",
    "WriteAxiom",
    "SkipAxiom",
    "FrameRule",
    "ExistsRule",
    "SeqRule",
    "IfRule",
    "Consequence",
    "conclusion",
    "ProofVerdict",
    "check_proof",
    "Violation",
    "ValidityVerdict",
    "two_validity_test",
]


# --- commands ----------------------------------------------------------------


class Command:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Skip(Command):
    pass


@dataclass(frozen=True, slots=True)
class Call(Command):
    name: str


@dataclass(frozen=True, slots=True)
class Write(Command):
    addr: Expr
    value: Expr


@dataclass(frozen=True, slots=True)
class LetRead(Command):
    var: str
    addr: Expr
    body: Command


@dataclass(frozen=True, slots=True)
class SeqCmd(Command):
    """Two or more commands run in order; build it with ``seq``."""

    parts: tuple[Command, ...]


def seq(commands: Iterable[Command]) -> Command:
    """The sequence of ``commands``, nested sequences spliced in, so that ``;``
    is associative; a single command stands for itself."""
    parts: list[Command] = []
    for c in commands:
        parts.extend(c.parts if isinstance(c, SeqCmd) else (c,))
    if not parts:
        raise ValueError("a sequence needs at least one command")
    return parts[0] if len(parts) == 1 else SeqCmd(tuple(parts))


@dataclass(frozen=True, slots=True)
class IfCmd(Command):
    cond: BoolAtom
    then_branch: Command
    else_branch: Command


class _ErrType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "ERR"


ERR = _ErrType()

ModuleImpl = Mapping[str, Callable[[Heap], "Heap | _ErrType"]]


def exec_command(
    c: Command,
    eta: Mapping[str, int] | None,
    modules: ModuleImpl,
    h: Heap,
) -> "Heap | _ErrType":
    """Run a command; absent-cell reads and writes yield ERR."""
    eta = dict(eta or {})
    return _exec(c, eta, modules, h)


def _exec(c, eta, modules, h):
    if isinstance(c, Skip):
        return h
    if isinstance(c, Call):
        try:
            op = modules[c.name]
        except KeyError:
            raise KeyError(f"module operation {c.name!r} is not provided") from None
        return op(h)
    if isinstance(c, Write):
        loc = eval_expr(c.addr, eta)
        if loc not in h:
            return ERR
        return h.update(loc, eval_expr(c.value, eta))
    if isinstance(c, LetRead):
        loc = eval_expr(c.addr, eta)
        val = h.get(loc) if loc > 0 else None
        if val is None:
            return ERR
        return _exec(c.body, {**eta, c.var: val}, modules, h)
    if isinstance(c, SeqCmd):
        for part in c.parts:
            h = _exec(part, eta, modules, h)
            if h is ERR:
                return ERR
        return h
    if isinstance(c, IfCmd):
        branch = c.then_branch if eval_bool(c.cond, eta) else c.else_branch
        return _exec(branch, eta, modules, h)
    raise TypeError(f"not a command: {c!r}")


@dataclass(frozen=True, slots=True, eq=False)
class CommandOp:
    """A module operation: a command body run with no module context.

    Commands are local actions, and ``two_validity_test`` relies on that, so
    it accepts only operations of this type.
    """

    command: Command
    eta: Mapping[str, int] | None = None

    def __call__(self, h: Heap) -> "Heap | _ErrType":
        return exec_command(self.command, self.eta, {}, h)


def build_modules(
    commands: Mapping[str, Command], eta: Mapping[str, int] | None = None
) -> dict[str, CommandOp]:
    """Heap transformers from operation bodies, run with no module context."""
    return {name: CommandOp(cmd, eta) for name, cmd in commands.items()}


def command_vars(c: Command) -> frozenset[str]:
    """Free normal variables of a command; let-bound variables are not free."""
    if isinstance(c, Skip):
        return frozenset()
    if isinstance(c, Call):
        return frozenset()
    if isinstance(c, Write):
        return free_expr_vars(c.addr) | free_expr_vars(c.value)
    if isinstance(c, LetRead):
        return free_expr_vars(c.addr) | (command_vars(c.body) - {c.var})
    if isinstance(c, SeqCmd):
        return frozenset().union(*map(command_vars, c.parts))
    if isinstance(c, IfCmd):
        return (
            free_expr_vars(c.cond.left)
            | free_expr_vars(c.cond.right)
            | command_vars(c.then_branch)
            | command_vars(c.else_branch)
        )
    raise TypeError(f"not a command: {c!r}")


# --- triples and derivations --------------------------------------------------


@dataclass(frozen=True)
class Triple:
    pre: Assertion
    name: str
    post: Assertion

    def describe(self) -> str:
        return f"{{{pretty(self.pre)}}} {self.name} {{{pretty(self.post)}}}"


def make_context(triples: list[Triple]) -> tuple[Triple, ...]:
    names = [t.name for t in triples]
    if len(set(names)) != len(names):
        raise ValueError("module operation names in a context must be distinct")
    return tuple(triples)


class Derivation:
    __slots__ = ()


@dataclass(frozen=True)
class CallAxiom(Derivation):
    pre: Assertion
    name: str
    post: Assertion


@dataclass(frozen=True)
class WriteAxiom(Derivation):
    addr: Expr
    value: Expr


@dataclass(frozen=True)
class SkipAxiom(Derivation):
    assertion: Assertion


@dataclass(frozen=True)
class FrameRule(Derivation):
    body: Derivation
    frame: Assertion


@dataclass(frozen=True)
class ExistsRule(Derivation):
    body: Derivation
    var: str


@dataclass(frozen=True)
class SeqRule(Derivation):
    """Each step's postcondition is the next step's precondition."""

    steps: tuple[Derivation, ...]


@dataclass(frozen=True)
class IfRule(Derivation):
    cond: BoolAtom
    then_branch: Derivation
    else_branch: Derivation


@dataclass(frozen=True)
class Consequence(Derivation):
    """Strengthen the pre and weaken the post, both checked by chk."""

    pre: Assertion
    body: Derivation
    post: Assertion


def conclusion(d: Derivation) -> tuple[Assertion, Command, Assertion]:
    """The (pre, command, post) a derivation claims, ignoring side conditions."""
    return _fold(d, lambda node, below, path: _conclude(node, below))


# A node's path from the root, as a linked list: (label, parent) or None.
_Path = tuple[str, "_Path"] | None


def _path_text(path: _Path) -> str:
    labels = []
    while path is not None:
        label, path = path
        labels.append(label)
    return "".join(reversed(labels))


def _fold(d: Derivation, visit: Callable[[Derivation, list, _Path], tuple]) -> tuple:
    """``visit(node, below, path)`` at every node of ``d``, each node after
    its premises, depth-first and left to right; ``below`` lists the values
    of the node's premises in order, and the root's value is returned.

    The walk keeps its own stack, so a derivation may nest deeper than the
    recursion limit: an annotated run of assertion lines nests one
    ``Consequence`` per line.  Paths are linked lists, so a deep walk does
    not build one string per node.
    """
    values: list = []
    stack: list = [(d, ("root", None), None)]
    while stack:
        node, path, count = stack.pop()
        if count is None:
            premises = _premises(node)
            stack.append((node, path, len(premises)))
            for label, premise in reversed(premises):
                stack.append((premise, (label, path), None))
        else:
            below = values[len(values) - count:]
            del values[len(values) - count:]
            values.append(visit(node, below, path))
    return values[0]


def _premises(d: Derivation) -> list[tuple[str, Derivation]]:
    """Node ``d``'s premises in order, each with the suffix of its path."""
    if isinstance(d, SeqRule):
        return [(f".seq{k}", step) for k, step in enumerate(d.steps, 1)]
    if isinstance(d, IfRule):
        return [(".then", d.then_branch), (".else", d.else_branch)]
    if isinstance(d, FrameRule):
        return [(".frame", d.body)]
    if isinstance(d, ExistsRule):
        return [(".exists", d.body)]
    if isinstance(d, Consequence):
        return [(".body", d.body)]
    return []


def _conclude(d: Derivation, below) -> tuple[Assertion, Command, Assertion]:
    """The conclusion of node ``d``, given the conclusions of its premises."""
    if isinstance(d, CallAxiom):
        return d.pre, Call(d.name), d.post
    if isinstance(d, WriteAxiom):
        return PointsToAny(d.addr), Write(d.addr, d.value), PointsTo(d.addr, d.value)
    if isinstance(d, SkipAxiom):
        return d.assertion, Skip(), d.assertion
    if isinstance(d, FrameRule):
        ((pre, cmd, post),) = below
        return Star(pre, d.frame), cmd, Star(post, d.frame)
    if isinstance(d, ExistsRule):
        ((pre, cmd, post),) = below
        return Exists(d.var, pre), cmd, Exists(d.var, post)
    if isinstance(d, SeqRule):
        cmd = seq(c for _, c, _ in below)  # raises ValueError on no steps
        return below[0][0], cmd, below[-1][2]
    if isinstance(d, IfRule):
        (pre_then, cmd_then, post), (_, cmd_else, _) = below
        base_pre = pre_then.left if isinstance(pre_then, And) else pre_then
        return base_pre, IfCmd(d.cond, cmd_then, cmd_else), post
    if isinstance(d, Consequence):
        ((_, cmd, _),) = below
        return d.pre, cmd, d.post
    raise TypeError(f"not a derivation: {d!r}")


@dataclass(frozen=True)
class ProofVerdict:
    accepted: bool
    node: str | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted

    def describe(self) -> str:
        if self.accepted:
            return "Accepted (relative to the search bound)"
        return f"Rejected at {self.node}: {self.reason}"


class _Reject(Exception):
    def __init__(self, node: _Path, reason: str):
        super().__init__(reason)
        self.node = node
        self.reason = reason


def check_proof(
    gamma: tuple[Triple, ...],
    d: Derivation,
    budget: SearchBudget = DEFAULT_BUDGET,
    eta: Mapping[str, int] | None = None,
) -> ProofVerdict:
    """Verify every rule instance of a derivation.

    Structural rules are checked syntactically.  Consequence premises other
    than a reflexive φ |= φ are checked by chk plus a bounded unary
    environment search, so acceptance is always relative to that bound.
    Rejection pinpoints the first failing node in depth-first order, each
    node's premises before its own side conditions.
    """
    try:
        _fold(d, lambda node, below, path: _check(gamma, node, below, budget, eta, path))
    except _Reject as r:
        return ProofVerdict(False, _path_text(r.node), r.reason)
    return ProofVerdict(True)


def _check(gamma, d, below, budget, eta, path) -> tuple[Assertion, Command, Assertion]:
    """Check node ``d``'s side conditions, given its premises' conclusions
    ``below``; ``d``'s conclusion."""
    if isinstance(d, CallAxiom):
        if not any(
            t.name == d.name and t.pre == d.pre and t.post == d.post for t in gamma
        ):
            raise _Reject(path, f"no context triple matches {d.name}")
    elif isinstance(d, ExistsRule):
        if d.var in command_vars(below[0][1]):
            raise _Reject(path, f"{d.var} occurs free in the command")
    elif isinstance(d, SeqRule):
        for (_, _, post1), (pre2, _, _) in zip(below, below[1:]):
            if post1 != pre2:
                raise _Reject(
                    path,
                    f"sequencing mismatch: {pretty(post1)} vs {pretty(pre2)}",
                )
    elif isinstance(d, IfRule):
        (pre_t, _, post_t), (pre_e, _, post_e) = below
        if post_t != post_e:
            raise _Reject(path, "branch postconditions differ")
        if not (
            isinstance(pre_t, And)
            and isinstance(pre_e, And)
            and pre_t.left == pre_e.left
            and pre_t.right == d.cond
            and pre_e.right == d.cond.negated()
        ):
            raise _Reject(path, "branch preconditions do not split on the guard")
    elif isinstance(d, Consequence):
        ((pre_in, _, post_in),) = below
        _check_implication(d.pre, pre_in, budget, eta, (".pre", path))
        _check_implication(post_in, d.post, budget, eta, (".post", path))
    elif not isinstance(d, (WriteAxiom, SkipAxiom, FrameRule)):
        raise _Reject(path, f"unknown derivation node {type(d).__name__}")
    return _conclude(d, below)


def _check_implication(lhs, rhs, budget, eta, path):
    if lhs == rhs:
        # φ |= φ holds at every arity, so only its normal variables are checked.
        unbound = sorted(free_vars(lhs) - (eta or {}).keys())
        if unbound:
            raise UnboundVariable(f"normal variable {unbound[0]!r} is unbound")
        return
    report = chk(lhs, rhs)
    if not report:
        raise _Reject(
            path,
            f"chk failed for {pretty(lhs)} |= {pretty(rhs)}: {report.reason}",
        )
    counter = find_counter_env(lhs, rhs, eta, 1, budget)
    if counter is not None:
        raise _Reject(
            path,
            f"bounded unary search refuted {pretty(lhs)} |= {pretty(rhs)}",
        )


# --- 2-validity ----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    location: str  # a module operation name, or "client"
    inputs: tuple[Heap, Heap]
    outputs: tuple  # Heap or ERR on each side
    reason: str

    def describe(self) -> str:
        out1, out2 = self.outputs
        return (
            f"{self.location}: inputs ({self.inputs[0]}, {self.inputs[1]}) "
            f"produced ({out1}, {out2}): {self.reason}"
        )


@dataclass(frozen=True)
class ValidityVerdict:
    """The outcome of ``two_validity_test``.

    A pass is exact up to the value domain: frames need no search, because
    commands are local actions (see the module docstring), so the only bound
    is the set of values and locations the inputs range over and the
    relations are encoded in.  ``pairs_checked`` counts the precondition
    generator pairs run, up to and including a violating one.
    """

    ok: bool
    violation: Violation | None = None
    failed_triple: str | None = None  # which context triple broke, if any
    pairs_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"NoViolation (bounded; {self.pairs_checked} input pairs)"
        prefix = (
            f"context triple {self.failed_triple!r} does not preserve the coupling"
            if self.failed_triple
            else "client violation"
        )
        return f"{prefix}: {self.violation.describe()}"


def two_validity_test(
    gamma: tuple[Triple, ...],
    impls: tuple[ModuleImpl, ModuleImpl],
    rho: AssertEnv,
    eta: Mapping[str, int] | None,
    pre: Assertion,
    client: Command,
    post: Assertion,
    budget: SearchBudget = DEFAULT_BUDGET,
    dom: ValueDomain | None = None,
) -> ValidityVerdict:
    """Binary reading of triples against two module implementations.

    First every context triple is checked (the modules must preserve the
    couplings), then the client triple.  Inputs are the generator pairs of
    the precondition whose cells stay within the budget, each run once with
    no frame; a fault on either side, or outputs outside the postcondition,
    is a violation.  Because commands are local actions (Calcagno, O'Hearn
    and Yang, LICS 2007), a framed input pair violates the triple exactly
    when its unframed generator pair does, so the answer is exact up to the
    value domain.  That argument needs command-built operations: every
    operation must come from ``build_modules``, or ``TypeError`` is raised.
    """
    if rho.arity != 2:
        raise ValueError("two_validity_test needs a binary environment")
    impl1, impl2 = impls
    for impl in impls:
        for name, op in impl.items():
            if not isinstance(op, CommandOp):
                raise TypeError(
                    f"module operation {name!r} is not built by build_modules, "
                    "so it need not be a local action"
                )
    dom = dom or budget.domain()
    total = 0
    for triple in gamma:
        if triple.name not in impl1 or triple.name not in impl2:
            raise KeyError(f"both implementations must provide {triple.name!r}")
        run1, run2 = impl1[triple.name], impl2[triple.name]
        violation, checked = _check_binary_triple(
            triple.name, triple.pre, run1, run2, triple.post, rho, eta, budget, dom
        )
        total += checked
        if violation is not None:
            return ValidityVerdict(
                False, _note_values_outside(violation, dom), triple.name, total
            )
    run1 = lambda h: exec_command(client, eta, impl1, h)
    run2 = lambda h: exec_command(client, eta, impl2, h)
    violation, checked = _check_binary_triple(
        "client", pre, run1, run2, post, rho, eta, budget, dom
    )
    total += checked
    if violation is not None:
        return ValidityVerdict(False, _note_values_outside(violation, dom), None, total)
    return ValidityVerdict(True, None, None, total)


def _note_values_outside(violation: Violation, dom: ValueDomain) -> Violation:
    """Add to the reason any output value outside the value domain.

    Couplings and postconditions are only checked against what the domain
    encodes, so an output that leaves it can fail for that reason alone.
    """
    if any(out is ERR for out in violation.outputs):
        return violation
    outside = sorted(
        {v for out in violation.outputs for _, v in out.cells} - set(dom.values)
    )
    if not outside:
        return violation
    noun, verb = ("values", "lie") if len(outside) > 1 else ("value", "lies")
    values = ", ".join(map(str, outside))
    domain = ", ".join(map(str, dom.values))
    return replace(
        violation,
        reason=(
            f"{violation.reason}; output {noun} {values} {verb} outside the value "
            f"domain {{{domain}}}, so the violation may come from the bound"
        ),
    )


def _check_binary_triple(
    location, pre, run1, run2, post, rho, eta, budget, dom
):
    """Run each in-budget precondition generator pair once; the first
    violation and the number of pairs run."""
    pre_rel = interpret(pre, eta, rho, 2, dom)
    post_rel = interpret(post, eta, rho, 2, dom)
    checked = 0
    for g1, g2 in pre_rel.sorted_generators():
        if not (budget.admits(g1) and budget.admits(g2)):
            continue
        checked += 1
        out1, out2 = run1(g1), run2(g2)
        if out1 is ERR or out2 is ERR:
            reason = "execution faulted"
        elif not member(post_rel, (out1, out2)):
            reason = "outputs leave the postcondition"
        else:
            continue
        return Violation(location, (g1, g2), (out1, out2), reason), checked
    return None, checked
