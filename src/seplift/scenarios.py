"""Scenario files and packaged demonstration scenarios.

A scenario bundles an interface context, two module implementations, coupling
relations for the assertion variables, a client with pre/postconditions, and
an annotated client proof.  The file format is line-oriented::

    avars: a, b
    env: x=0                      # optional
    context:
      {1|->_} init {a}
      {a} inc {a}
    impl1:
      init: [1] := 0
      inc: let y=[1] in [1] := y+1
    impl2:
      ...
    coupling:
      a: { ([1|->0],[1|->0]), ([1|->1],[1|->1]) }
    client: init; inc
    pre: 1|->_
    post: 1|->_
    proof:
      {1|->_}
      init
      {a}
      inc
      {a}

A section header starts at the beginning of its line, and the lines under it
are indented.  An operation under ``impl1:`` or ``impl2:``, and a variable
under ``coupling:``, may be given only once.  A parse error below the
``avars:`` and ``env:`` headers names its line (the first one of a section
written across lines), and for an operation or a coupling also its section and
name.  ``env:`` must bind every free normal variable of the scenario.

A scenario repeats its lines by nature: the postcondition of one triple is the
precondition of the next, the proof restates the context's assertions, and
the two implementations share operations.  So `parse_scenario` parses each
distinct assertion text and each distinct command text once per scenario,
through two tables from text to node that live for that call only and read
under its one ``avars:``; the triple, ``impl``, ``client``, ``pre``/``post``
and proof readers share the (immutable) nodes.  Lines are still read in file
order, so a malformed line fails at its first occurrence.

In commands, ``;`` is associative: braces group the body of a ``let`` or an
``if``, and a braced block inside a sequence is spliced into it, so
``a; {b; c}`` and ``{a; b}; c`` are the same client.

Proofs are straight lines of commands with an assertion between every two
statements.  Two consecutive assertion lines mark a consequence step, the only
rule the lifting gate guards, so a command with no extra assertion line before
it gets no consequence node.  The builder assembles the derivation; richer
derivations (frame, existential, conditional) are built programmatically.

The scenario files in the checkout's ``scenarios/`` directory are the only
copy of the packaged demos, which exercise representation independence end
to end:

- ``counter`` runs ``counter.scn`` at values -1,0,1: a two-stage counter whose
  implementations store the count directly or with a stage-dependent sign.
- ``goodbad`` runs ``goodbad_good.scn`` and ``goodbad_bad.scn`` at values
  0,1,2: a good/bad client pair where only the proof that passes the
  consequence gate yields indistinguishable runs.

Both use locations 1..3, the domains the files' header comments give.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .hoare import (
    Call,
    CallAxiom,
    Command,
    Consequence,
    Derivation,
    ERR,
    IfCmd,
    LetRead,
    SeqRule,
    Skip,
    SkipAxiom,
    Triple,
    ValidityVerdict,
    ProofVerdict,
    Write,
    WriteAxiom,
    build_modules,
    check_proof,
    command_vars,
    conclusion,
    exec_command,
    make_context,
    seq,
    two_validity_test,
)
from .relations import GenRel, parse_relation
from .semantics import SearchBudget, interpret
from .syntax import (
    AssertEnv,
    Assertion,
    BoolAtom,
    UnboundVariable,
    _CMP_OPS,
    _Parser,
    _is_ident,
    _on_lines,
    free_vars,
    parse,
    parse_header,
    pretty,
)

__all__ = [
    "Scenario",
    "parse_scenario",
    "parse_command",
    "build_annotated_proof",
    "DemoReport",
    "demo",
    "DEMO_NAMES",
]


# --- command parsing -----------------------------------------------------------


class _CommandParser(_Parser):
    def command(self) -> Command:
        parts = [self.statement()]
        while self.peek() == ";":
            self.advance()
            if not self.peek():
                break  # tolerate a trailing semicolon
            parts.append(self.statement())
        return seq(parts)

    def statement(self) -> Command:
        tok = self.peek()
        if tok == "skip":
            self.advance()
            return Skip()
        if tok == "{":
            self.advance()
            node = self.command()
            self.expect("}")
            return node
        if tok == "[":
            self.advance()
            addr = self.expr()
            self.expect("]")
            self.expect(":=")
            return Write(addr, self.expr())
        if tok == "let":
            self.advance()
            name = self.advance()
            if not _is_ident(name):
                raise self.error("expected a variable after 'let'")
            self.expect("=")
            self.expect("[")
            addr = self.expr()
            self.expect("]")
            self.expect("in")
            return LetRead(name, addr, self.statement())
        if tok == "if":
            self.advance()
            left = self.expr()
            op = self.advance()
            if op not in _CMP_OPS:
                raise self.error("expected a comparison in the guard")
            cond = BoolAtom(op, left, self.expr())
            self.expect("{")
            then_branch = self.command()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_branch = self.command()
            self.expect("}")
            return IfCmd(cond, then_branch, else_branch)
        if _is_ident(tok):
            self.advance()
            return Call(tok)
        raise self.error("expected a command")


def parse_command(text: str) -> Command:
    parser = _CommandParser(text, frozenset())
    return parser.run(parser.command, "command")


# --- annotated straight-line proofs ---------------------------------------------


ProofLine = tuple[str, object]  # ("assert", Assertion) | ("cmd", Command)


def parse_proof_lines(text: str, avars: frozenset[str]) -> list[ProofLine]:
    return _proof_lines(text, lambda body: parse(body, avars), parse_command)


def _proof_lines(text: str, read_assertion, read_command) -> list[ProofLine]:
    out: list[ProofLine] = []
    for line in text.splitlines():
        stripped = line.strip().rstrip(";").strip()
        if not stripped:
            continue
        if stripped.startswith("{"):
            if not stripped.endswith("}"):
                raise ValueError(f"assertion line must be braced: {line!r}")
            out.append(("assert", read_assertion(stripped[1:-1])))
        else:
            out.append(("cmd", read_command(stripped)))
    return out


def build_annotated_proof(
    gamma: tuple[Triple, ...], lines: list[ProofLine]
) -> Derivation:
    """Assemble a derivation from an annotated straight-line program.

    Every command needs an assertion before and after it.  Each hop (two
    adjacent assertion lines) becomes one consequence step, so a command with
    no extra assertion line before it gets none.  Module calls must match their
    context triple exactly (insert a consequence line otherwise); writes must
    match the heap-write axiom; skip needs equal assertions around it.
    """
    if not lines or lines[0][0] != "assert":
        raise ValueError("a proof starts with an assertion line")
    chain: list[Assertion] = []  # the assertion lines since the last command
    steps: list[Derivation] = []
    for k, (kind, item) in enumerate(lines):
        if kind == "assert":
            chain.append(item)
            continue
        if k + 1 == len(lines) or lines[k + 1][0] != "assert":
            raise ValueError("every command needs an assertion after it")
        post = lines[k + 1][1]
        step = _axiom_step(gamma, chain[-1], item, post)
        for source in reversed(chain[:-1]):
            step = Consequence(source, step, post)
        steps.append(step)
        chain = []
    if not steps:
        raise ValueError("a proof needs at least one command")
    derivation = steps[0] if len(steps) == 1 else SeqRule(tuple(steps))
    pre, _, _ = conclusion(steps[0])
    for target in chain[1:]:
        derivation = Consequence(pre, derivation, target)
    return derivation


def _axiom_step(gamma, pre, cmd, post) -> Derivation:
    if isinstance(cmd, Call):
        for t in gamma:
            if t.name == cmd.name:
                if t.pre == pre and t.post == post:
                    return CallAxiom(pre, cmd.name, post)
                raise ValueError(
                    f"call {cmd.name}: annotations {{{pretty(pre)}}}..{{{pretty(post)}}} "
                    f"do not match the context triple {t.describe()}; "
                    "add a consequence assertion line"
                )
        raise ValueError(f"no context triple for operation {cmd.name!r}")
    if isinstance(cmd, Write):
        step = WriteAxiom(cmd.addr, cmd.value)
        mismatch = "a write step must be annotated with the heap-write axiom shape"
    elif isinstance(cmd, Skip):
        step, mismatch = SkipAxiom(pre), "skip cannot change the assertion"
    else:
        raise ValueError(
            f"only calls, writes and skip are allowed in annotated proofs, "
            f"got {type(cmd).__name__}"
        )
    if conclusion(step) != (pre, cmd, post):
        raise ValueError(mismatch)
    return step


# --- scenario files --------------------------------------------------------------


@dataclass
class Scenario:
    """A parsed scenario file; the CLI and demos run it by `prove` and `validity`."""

    avars: frozenset[str]
    eta: dict[str, int]
    gamma: tuple[Triple, ...]
    impl1: dict[str, Command]
    impl2: dict[str, Command]
    coupling: dict[str, GenRel]
    client: Command
    pre: Assertion
    post: Assertion
    proof: list[ProofLine]

    def rho(self) -> AssertEnv:
        return AssertEnv(2, self.coupling)

    def modules(self) -> tuple[dict, dict]:
        return build_modules(self.impl1, self.eta), build_modules(self.impl2, self.eta)

    def prove(self, budget: SearchBudget) -> ProofVerdict:
        """Check the proof, its consequence steps gated within `budget`."""
        return check_proof(self.gamma, self.derivation(), budget, self.eta)

    def validity(self, budget: SearchBudget) -> ValidityVerdict:
        """Test the context and client triples against both implementations."""
        return two_validity_test(
            self.gamma, self.modules(), self.rho(), self.eta,
            self.pre, self.client, self.post, budget
        )

    def derivation(self) -> Derivation:
        """The proof's derivation, which must conclude the scenario's own
        ``pre:``, ``client:`` and ``post:``: a proof of another triple says
        nothing about this client."""
        derivation = build_annotated_proof(self.gamma, self.proof)
        own = (self.pre, self.client, self.post)
        for part, proved, given in zip(("pre", "client", "post"), conclusion(derivation), own):
            if proved != given:
                raise ValueError(
                    f"the proof concludes a different {part} than the {part}: section"
                )
        return derivation


_SECTIONS = (
    "avars",
    "env",
    "context",
    "impl1",
    "impl2",
    "coupling",
    "client",
    "pre",
    "post",
    "proof",
)


def parse_scenario(text: str) -> Scenario:
    sections: dict[str, list[tuple[int, str]]] = {name: [] for name in _SECTIONS}
    current: str | None = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, _, tail = line.partition(":")
        key = head.strip()
        indented = line[0].isspace()
        if key in _SECTIONS and not indented:
            current = key
            if tail.strip():
                sections[current].append((number, tail.strip()))
            continue
        if current is None or not indented:
            raise ValueError(
                f"line {number}: expected a section header ({', '.join(_SECTIONS)})"
            )
        sections[current].append((number, line.strip()))
    for key in ("client", "pre", "post"):
        if not sections[key]:
            raise ValueError(f"the scenario has no {key}: section")

    avars: frozenset[str] = frozenset()
    eta: dict[str, int] = {}
    for key in ("avars", "env"):
        for _, chunk in sections[key]:
            avars, eta = parse_header(key, chunk, avars, eta)

    # one table per call, read under this scenario's avars (module docstring)
    assertion = _parsed_once(lambda text: parse(text, avars))
    command = _parsed_once(parse_command)
    gamma = make_context(
        [_on_lines([e], _parse_triple, assertion) for e in sections["context"]]
    )
    impl1 = _named_lines(sections, "impl1", command)
    impl2 = _named_lines(sections, "impl2", command)
    coupling = _named_lines(sections, "coupling", parse_relation, 2)
    _check_coupling(coupling, avars)
    client = _on_lines(sections["client"], command)
    pre = _on_lines(sections["pre"], assertion)
    post = _on_lines(sections["post"], assertion)
    proof = [
        step
        for e in sections["proof"]
        for step in _on_lines([e], _proof_lines, assertion, command)
    ]
    scenario = Scenario(avars, eta, gamma, impl1, impl2, coupling, client, pre, post, proof)
    _check_bound(scenario)
    return scenario


def _check_coupling(coupling: dict[str, GenRel], avars: frozenset[str]) -> None:
    """A coupling section, when given, relates exactly the declared avars."""
    if not coupling:
        return
    undeclared = sorted(coupling.keys() - avars)
    if undeclared:
        raise ValueError(
            f"coupling section binds {undeclared[0]!r}, which avars: does not declare"
        )
    unbound = sorted(avars - coupling.keys())
    if unbound:
        raise ValueError(
            f"coupling section: assertion variable {unbound[0]!r} is unbound, "
            "though avars: declares it"
        )


def _check_bound(s: Scenario) -> None:
    """Every free normal variable of the scenario is bound by ``env:``."""
    assertions = [s.pre, s.post, *(a for t in s.gamma for a in (t.pre, t.post))]
    commands = [s.client, *s.impl1.values(), *s.impl2.values()]
    for kind, item in s.proof:
        (assertions if kind == "assert" else commands).append(item)
    # a node shared by several lines is walked once
    assertions = {id(a): a for a in assertions}.values()
    commands = {id(c): c for c in commands}.values()
    free = set().union(*map(free_vars, assertions), *map(command_vars, commands))
    unbound = sorted(free - s.eta.keys())
    if unbound:
        raise UnboundVariable(f"normal variable {unbound[0]!r} is unbound")


def _parsed_once(parse_fn):
    """`parse_fn` behind a table from text to node: a repeated text returns
    the node its first reading made.  A failed reading stores nothing."""
    table = {}

    def read(text: str):
        node = table.get(text)
        if node is None:
            node = table[text] = parse_fn(text)
        return node

    return read


def _parse_triple(line: str, read_assertion) -> Triple:
    pre_text, closed, rest = line.partition("}")
    name, _, post_text = rest.partition("{")
    if not (pre_text.startswith("{") and closed and name.strip() and post_text.endswith("}")):
        raise ValueError("triple must be written {pre} name {post}")
    return Triple(read_assertion(pre_text[1:]), name.strip(), read_assertion(post_text[:-1]))


def _named_lines(sections: dict, section: str, parse_fn, *args) -> dict:
    """Each ``name: text`` line of a section, parsed; a repeated name is an error."""
    named = {}
    for number, line in sections[section]:
        name, _, text = line.partition(":")
        name = name.strip()
        if name in named:
            raise ValueError(f"{section}: {name!r} is given twice")
        entry = [(number, text.strip())]
        named[name] = _on_lines(entry, parse_fn, *args, what=f"{section} {name!r}: ")
    return named


# --- packaged demos ---------------------------------------------------------------


# name -> (title, values, cases).  A case is (verdict key, scenario file,
# validity line label, good); a good case is accepted, valid, and its runs
# agree, a bad one is none of these.  The values are the domains the files'
# header comments give.
_DEMOS = {
    "counter": (
        "two-stage counter; couplings: equal values in stage one, "
        "negated values in stage two",
        (-1, 0, 1),
        (("client", "counter.scn", "binary validity", True),),
    ),
    "goodbad": (
        "good client uses fin; bad client uses badfin",
        (0, 1, 2),
        (
            ("good", "goodbad_good.scn", "good validity", True),
            ("bad", "goodbad_bad.scn", "bad validity", False),
        ),
    ),
}

DEMO_NAMES = tuple(_DEMOS)


@dataclass
class DemoReport:
    name: str
    ok: bool
    lines: list[str]
    proof_verdicts: dict[str, ProofVerdict]
    validity_verdicts: dict[str, ValidityVerdict]

    def text(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        return "\n".join([f"demo {self.name}: {status}", *["  " + l for l in self.lines]])


def demo(name: str) -> DemoReport:
    """Run a packaged representation-independence scenario end to end.

    ``counter`` runs ``scenarios/counter.scn`` at values -1,0,1; ``goodbad``
    runs ``scenarios/goodbad_good.scn`` and ``scenarios/goodbad_bad.scn`` at
    values 0,1,2.  Both use locations 1..3, as ``seplift --vals=... prove``
    and ``validity`` do on those files.  Each scenario's client proof is
    checked, its binary validity tested, and both implementations are run
    from every unary generator of the precondition.
    """
    if name not in _DEMOS:
        raise ValueError(f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}")
    title, values, cases = _DEMOS[name]
    scenario_dir = Path(__file__).resolve().parents[2] / "scenarios"
    if not scenario_dir.is_dir():
        raise ValueError(
            "the demos read scenarios/*.scn from a source checkout; "
            f"no such directory: {scenario_dir}"
        )
    budget = SearchBudget(3, values)
    dom = budget.domain()
    lines = [title, f"bound: {budget.describe()}"]
    proofs: dict[str, ProofVerdict] = {}
    validities: dict[str, ValidityVerdict] = {}
    ok = True
    for key, file, validity_label, good in cases:
        scenario = parse_scenario((scenario_dir / file).read_text(encoding="utf-8"))
        proof = scenario.prove(budget)
        validity = scenario.validity(budget)
        proofs[key] = proof
        validities[key] = validity
        lines.append(f"{key} proof: {proof.describe()}")
        lines.append(f"{validity_label}: {validity.describe()}")
        mods1, mods2 = scenario.modules()
        runs_agree = True
        for (start,) in interpret(scenario.pre, scenario.eta, None, 1, dom).sorted_generators():
            out1 = exec_command(scenario.client, scenario.eta, mods1, start)
            out2 = exec_command(scenario.client, scenario.eta, mods2, start)
            runs_agree = runs_agree and out1 is not ERR and out1 == out2
            lines.append(f"{key} runs from {start}: final heaps {out1} vs {out2}")
        ok = ok and bool(proof) == bool(validity) == runs_agree == good
    return DemoReport(name, ok, lines, proofs, validities)
