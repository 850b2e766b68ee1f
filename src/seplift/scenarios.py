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
under ``coupling:``, may be given only once.

Proofs are straight lines of commands with an assertion between every two
statements; two consecutive assertion lines mark a consequence step.  The
builder assembles the corresponding derivation; richer derivations (frame,
existential, conditional) are built programmatically.

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
    SeqCmd,
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
    conclusion,
    exec_command,
    make_context,
    two_validity_test,
)
from .relations import GenRel, parse_relation
from .semantics import SearchBudget, interpret
from .syntax import (
    AssertEnv,
    Assertion,
    BoolAtom,
    ParseError,
    PointsTo,
    PointsToAny,
    _Parser,
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
        node = self.statement()
        while self.peek().text == ";":
            self.advance()
            if self.peek().kind == "eof":
                break  # tolerate a trailing semicolon
            node = SeqCmd(node, self.statement())
        return node

    def statement(self) -> Command:
        tok = self.peek()
        if tok.text == "skip":
            self.advance()
            return Skip()
        if tok.text == "{":
            self.advance()
            node = self.command()
            self.expect("}")
            return node
        if tok.text == "[":
            self.advance()
            addr = self.expr()
            self.expect("]")
            self.expect(":=")
            return Write(addr, self.expr())
        if tok.text == "let":
            self.advance()
            name = self.advance()
            if name.kind != "ident":
                raise self.error("expected a variable after 'let'")
            self.expect("=")
            self.expect("[")
            addr = self.expr()
            self.expect("]")
            self.expect("in")
            return LetRead(name.text, addr, self.statement())
        if tok.text == "if":
            self.advance()
            left = self.expr()
            op = self.advance()
            if op.text not in ("=", "!=", "<", "<=", ">", ">="):
                raise self.error("expected a comparison in the guard")
            cond = BoolAtom(op.text, left, self.expr())
            self.expect("{")
            then_branch = self.command()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_branch = self.command()
            self.expect("}")
            return IfCmd(cond, then_branch, else_branch)
        if tok.kind == "ident":
            self.advance()
            return Call(tok.text)
        raise self.error("expected a command")


def parse_command(text: str) -> Command:
    parser = _CommandParser(text, frozenset())
    node = parser.command()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input after command", tok.pos, text)
    return node


# --- annotated straight-line proofs ---------------------------------------------


ProofLine = tuple[str, object]  # ("assert", Assertion) | ("cmd", Command)


def parse_proof_lines(lines: list[str], avars: frozenset[str]) -> list[ProofLine]:
    out: list[ProofLine] = []
    for line in lines:
        stripped = line.strip().rstrip(";").strip()
        if not stripped:
            continue
        if stripped.startswith("{"):
            if not stripped.endswith("}"):
                raise ValueError(f"assertion line must be braced: {line!r}")
            out.append(("assert", parse(stripped[1:-1], avars)))
        else:
            out.append(("cmd", parse_command(stripped)))
    return out


def build_annotated_proof(
    gamma: tuple[Triple, ...], lines: list[ProofLine]
) -> Derivation:
    """Assemble a derivation from an annotated straight-line program.

    Every command needs an assertion before and after it; consecutive
    assertions become consequence steps.  Module calls must match their
    context triple exactly (insert a consequence line otherwise); writes must
    match the heap-write axiom; skip needs equal assertions around it.
    """
    if not lines or lines[0][0] != "assert":
        raise ValueError("a proof starts with an assertion line")
    current: Assertion = lines[0][1]
    derivation: Derivation | None = None
    i = 1
    while i < len(lines):
        hops: list[Assertion] = []
        while i < len(lines) and lines[i][0] == "assert":
            hops.append(lines[i][1])
            i += 1
        if i == len(lines):
            if derivation is None:
                raise ValueError("a proof needs at least one command")
            for target in hops:
                pre, _, _ = conclusion(derivation)
                derivation = Consequence(pre, derivation, target)
            return derivation
        cmd = lines[i][1]
        i += 1
        if i == len(lines) or lines[i][0] != "assert":
            raise ValueError("every command needs an assertion after it")
        post = lines[i][1]
        i += 1
        step_pre = hops[-1] if hops else current
        step = _axiom_step(gamma, step_pre, cmd, post)
        for hop_source in reversed([current, *hops[:-1]]):
            step = Consequence(hop_source, step, post)
        derivation = step if derivation is None else SeqRule(derivation, step)
        current = post
    if derivation is None:
        raise ValueError("a proof needs at least one command")
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
        if pre == PointsToAny(cmd.addr) and post == PointsTo(cmd.addr, cmd.value):
            return WriteAxiom(cmd.addr, cmd.value)
        raise ValueError(
            "a write step must be annotated with the heap-write axiom shape"
        )
    if isinstance(cmd, Skip):
        if pre == post:
            return SkipAxiom(pre)
        raise ValueError("skip cannot change the assertion")
    raise ValueError(
        f"only calls, writes and skip are allowed in annotated proofs, "
        f"got {type(cmd).__name__}"
    )


# --- scenario files --------------------------------------------------------------


@dataclass
class Scenario:
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

    def derivation(self) -> Derivation:
        return build_annotated_proof(self.gamma, self.proof)


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
    sections: dict[str, list[str]] = {name: [] for name in _SECTIONS}
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
                sections[current].append(tail.strip())
            continue
        if current is None or not indented:
            raise ValueError(
                f"line {number}: expected a section header ({', '.join(_SECTIONS)})"
            )
        sections[current].append(line.strip())

    avars: frozenset[str] = frozenset()
    eta: dict[str, int] = {}
    for key in ("avars", "env"):
        for chunk in sections[key]:
            avars, eta = parse_header(key, chunk, avars, eta)

    gamma = make_context(
        [_parse_triple(line, avars) for line in sections["context"]]
    )
    impl1 = {n: parse_command(b) for n, b in _named_lines(sections, "impl1").items()}
    impl2 = {n: parse_command(b) for n, b in _named_lines(sections, "impl2").items()}
    coupling = {}
    for name, literal in _named_lines(sections, "coupling").items():
        try:
            coupling[name] = parse_relation(literal, arity=2)
        except ValueError as err:
            raise ValueError(f"coupling {name!r}: {err}") from None
    _check_coupling(coupling, avars)
    client = parse_command(" ".join(sections["client"]))
    pre = parse(" ".join(sections["pre"]), avars)
    post = parse(" ".join(sections["post"]), avars)
    proof = parse_proof_lines(sections["proof"], avars)
    return Scenario(
        avars, eta, gamma, impl1, impl2, coupling, client, pre, post, proof
    )


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


def _parse_triple(line: str, avars: frozenset[str]) -> Triple:
    stripped = line.strip()
    if not stripped.startswith("{"):
        raise ValueError(f"triple must start with an assertion: {line!r}")
    pre_end = stripped.index("}")
    pre = parse(stripped[1:pre_end], avars)
    rest = stripped[pre_end + 1 :].strip()
    name, _, post_part = rest.partition("{")
    post_part = post_part.strip()
    if not post_part.endswith("}"):
        raise ValueError(f"triple must end with an assertion: {line!r}")
    return Triple(pre, name.strip(), parse(post_part[:-1], avars))


def _named_lines(sections: dict[str, list[str]], section: str) -> dict[str, str]:
    """The ``name: text`` lines of a section; a repeated name is an error."""
    named: dict[str, str] = {}
    for line in sections[section]:
        name, _, text = line.partition(":")
        name = name.strip()
        if name in named:
            raise ValueError(f"{section}: {name!r} is given twice")
        named[name] = text.strip()
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
    budget = SearchBudget(3, values)
    dom = budget.domain()
    lines = [title]
    proofs: dict[str, ProofVerdict] = {}
    validities: dict[str, ValidityVerdict] = {}
    ok = True
    for key, file, validity_label, good in cases:
        scenario = parse_scenario((scenario_dir / file).read_text(encoding="utf-8"))
        proof = check_proof(scenario.gamma, scenario.derivation(), budget, scenario.eta)
        validity = two_validity_test(
            scenario.gamma,
            scenario.modules(),
            scenario.rho(),
            scenario.eta,
            scenario.pre,
            scenario.client,
            scenario.post,
            budget,
            dom,
        )
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
