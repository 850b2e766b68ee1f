"""Command-line entry point.

Subcommands take assertion files (``avars:``/``env:`` headers, one assertion
or ``LHS |= RHS`` implication per line) or scenario files, and share budget
flags.  ``--format structured`` emits line-delimited JSON records with stable
keys; text mode is for humans.  The bounded answers of ``search``, ``pc`` and
``prove`` name their search bound (a ``budget`` key in records).  Exit codes:
0 for a positive verdict, 1 for a negative one, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .heap import format_heap
from .layout import compute_layout, to_dot
from .lifting import (
    CounterexamplePackage,
    NO_GUARANTEE_NOTE,
    chk,
    verify_package,
    witness_search,
)
from .normalize import format_implication, simple_assertion, to_simple
from .relations import format_relation
from .scenarios import DEMO_NAMES, demo, parse_scenario
from .semantics import DEFAULT_BUDGET, SearchBudget, find_counter_env, pc_check
from .syntax import ParseError, UnboundVariable, parse_assertion_file, pretty

_EXIT_OK = 0
_EXIT_NEGATIVE = 1
_EXIT_INPUT = 2


class _Output:
    def __init__(self, mode: str):
        self.mode = mode

    def emit(self, record: dict, text: str) -> None:
        if self.mode == "structured":
            print(json.dumps(record, sort_keys=True, default=str))
        else:
            print(text)


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_loc=args.locs,
        values=tuple(args.vals),
        max_generators=args.gens,
        max_heap_size=args.heap_size,
    )


def _bound(budget: SearchBudget) -> tuple[dict, str]:
    """The search bound of a bounded answer, as a record and as text."""
    record = {
        "locs": budget.max_loc,
        "vals": list(budget.values),
        "gens": budget.max_generators,
        "heap_size": budget.max_heap_size,
    }
    return record, budget.describe()


def _load_assertion_file(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_assertion_file(fh.read())


def _first_implication(path: str):
    doc = _load_assertion_file(path)
    if not doc.implications:
        raise ValueError(f"{path} contains no 'LHS |= RHS' line")
    return doc


def _family(doc, path: str):
    """The first implication's (member, verdict) pairs; none if a side is not simple."""
    report = chk(*doc.implications[0])
    if not report.members:
        raise ValueError(f"{path}: {report.reason}")
    return report.members


def _package_record(pkg: CounterexamplePackage) -> dict:
    return {
        "instance": format_implication(pkg.form),
        "rho": {name: format_relation(rel) for name, rel in pkg.binary_rho.items()},
        "witness": [format_heap(h) for h in pkg.witness],
        "unary_space": pkg.unary_space,
        "recheck": verify_package(pkg),
    }


def _cmd_parse(args, out: _Output) -> int:
    doc = _load_assertion_file(args.file)
    for a in doc.assertions:
        out.emit({"kind": "assertion", "pretty": pretty(a)}, pretty(a))
    for lhs, rhs in doc.implications:
        text = f"{pretty(lhs)} |= {pretty(rhs)}"
        out.emit({"kind": "implication", "pretty": text}, text)
    return _EXIT_OK


def _cmd_normalize(args, out: _Output) -> int:
    doc = _load_assertion_file(args.file)
    items = list(doc.assertions)
    for lhs, rhs in doc.implications:
        items.extend([lhs, rhs])
    status = _EXIT_OK
    for a in items:
        simple = to_simple(a)
        if simple is None:
            out.emit({"input": pretty(a), "simple": None}, "NOT SIMPLE")
            status = _EXIT_NEGATIVE
        else:
            text = pretty(simple_assertion(simple))
            out.emit({"input": pretty(a), "simple": text}, text)
    return status


def _cmd_reduce(args, out: _Output) -> int:
    doc = _first_implication(args.file)
    for form, _ in _family(doc, args.file):
        text = format_implication(form)
        out.emit({"member": text}, text)
    return _EXIT_OK


def _cmd_graph(args, out: _Output) -> int:
    doc = _first_implication(args.file)
    family = _family(doc, args.file)
    if not 0 <= args.member < len(family):
        raise ValueError(
            f"--member {args.member} is out of range; "
            f"the family has {len(family)} member(s), indexed from 0"
        )
    dot = to_dot(compute_layout(family[args.member][0]))
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    else:
        print(dot)
    return _EXIT_OK


def _cmd_lift(args, out: _Output) -> int:
    doc = _first_implication(args.file)
    family = _family(doc, args.file)
    budget = _budget(args)
    all_lift = True
    for index, (form, verdict) in enumerate(family):
        record = {
            "member": format_implication(form),
            "index": index,
            "verdict": verdict.result,
            "criterion": verdict.criterion,
            "balloon_subset": sorted(verdict.balloon_subset or ()),
        }
        text = f"{verdict.describe()}  [{format_implication(form)}]"
        if verdict.result == "no_guarantee":
            all_lift = False
            pkg = witness_search(form, budget)
            if pkg is not None:
                record["package"] = _package_record(pkg)
                text += "\n" + pkg.describe()
            text += "\nnote: " + NO_GUARANTEE_NOTE
        out.emit(record, text)
    return _EXIT_OK if all_lift else _EXIT_NEGATIVE


def _cmd_chk(args, out: _Output) -> int:
    doc = _first_implication(args.file)
    lhs, rhs = doc.implications[0]
    report = chk(lhs, rhs)
    members = [
        {"member": format_implication(f), "verdict": v.result, "criterion": v.criterion}
        for f, v in report.members
    ]
    record = {"chk": report.ok, "reason": report.reason, "members": members}
    lines = [f"CHK: {'true' if report.ok else 'false'} ({report.reason})"]
    for f, v in report.members:
        lines.append(f"  {v.describe()}  [{format_implication(f)}]")
    out.emit(record, "\n".join(lines))
    return _EXIT_OK if report.ok else _EXIT_NEGATIVE


def _cmd_search(args, out: _Output) -> int:
    doc = _first_implication(args.file)
    lhs, rhs = doc.implications[0]
    budget = _budget(args)
    result = find_counter_env(lhs, rhs, doc.eta, args.arity, budget)
    bound, bound_text = _bound(budget)
    if result is None:
        out.emit(
            {"arity": args.arity, "budget": bound, "counterexample": None},
            f"NONE within budget ({bound_text}) "
            f"at arity {args.arity} (not a validity proof)",
        )
        return _EXIT_OK
    record = {
        "arity": args.arity,
        "budget": bound,
        "rho": {n: format_relation(r) for n, r in result.rho.items()},
        "witness": [format_heap(h) for h in result.witness],
    }
    bindings = ", ".join(f"{n} -> {format_relation(r)}" for n, r in result.rho.items())
    witness = "witness (" + ", ".join(str(h) for h in result.witness) + ")"
    out.emit(record, "COUNTEREXAMPLE: " + "; ".join(filter(None, (bindings, witness))))
    return _EXIT_NEGATIVE


def _cmd_pc(args, out: _Output) -> int:
    doc = _first_implication(args.file)
    family = _family(doc, args.file)
    budget = _budget(args)
    bound, bound_text = _bound(budget)
    all_hold = True
    for form, _ in family:
        verdict = pc_check(form, doc.eta, budget)
        record = {
            "member": format_implication(form),
            "holds": verdict.holds,
            "detail": verdict.describe(),
            "budget": bound,
        }
        text = f"PC {verdict.describe()}  [{format_implication(form)}]"
        out.emit(record, f"{text} [bound: {bound_text}]")
        all_hold = all_hold and verdict.holds
    return _EXIT_OK if all_hold else _EXIT_NEGATIVE


def _cmd_prove(args, out: _Output) -> int:
    with open(args.file, encoding="utf-8") as fh:
        scenario = parse_scenario(fh.read())
    budget = _budget(args)
    bound, bound_text = _bound(budget)
    verdict = scenario.prove(budget)
    record = {
        "accepted": verdict.accepted,
        "node": verdict.node,
        "reason": verdict.reason,
        "budget": bound,
    }
    out.emit(record, f"{verdict.describe()} [bound: {bound_text}]")
    return _EXIT_OK if verdict.accepted else _EXIT_NEGATIVE


def _cmd_validity(args, out: _Output) -> int:
    with open(args.file, encoding="utf-8") as fh:
        scenario = parse_scenario(fh.read())
    budget = _budget(args)
    dom = budget.domain()
    verdict = scenario.validity(budget)
    bound = {"vals": list(dom.values), "locs": list(dom.locations)}
    record = {
        "ok": verdict.ok,
        "failed_triple": verdict.failed_triple,
        "violation": verdict.violation.describe() if verdict.violation else None,
        "pairs_checked": verdict.pairs_checked,
        "dom": bound,
    }
    out.emit(
        record,
        f"{verdict.describe()} [domain: vals={bound['vals']}, locs={bound['locs']}]",
    )
    return _EXIT_OK if verdict.ok else _EXIT_NEGATIVE


def _cmd_demo(args, out: _Output) -> int:
    report = demo(args.name)
    record = {
        "demo": report.name,
        "ok": report.ok,
        "lines": report.lines,
    }
    out.emit(record, report.text())
    return _EXIT_OK if report.ok else _EXIT_NEGATIVE


def _value_list(text: str) -> list[int]:
    """The `--vals` argument: comma-separated integers, e.g. '-1,0,1'."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seplift",
        description=(
            "Decide when separation-logic implications with assertion "
            "variables lift from the standard to the relational reading, "
            "search for counterexample environments, and check loop-free "
            "client proofs for representation independence."
        ),
    )
    parser.add_argument(
        "--locs", type=int, default=DEFAULT_BUDGET.max_loc, help="location bound (1..N)"
    )
    parser.add_argument(
        "--vals",
        type=_value_list,
        default=list(DEFAULT_BUDGET.values),
        help="comma-separated cell/quantifier values, e.g. '0,1'",
    )
    parser.add_argument(
        "--gens", type=int, default=DEFAULT_BUDGET.max_generators,
        help="max generators per relation",
    )
    parser.add_argument(
        "--heap-size", type=int, default=DEFAULT_BUDGET.max_heap_size,
        help="max cells per generator heap",
    )
    parser.add_argument("--arity", type=int, default=2, help="relation arity for search")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="text for humans, structured for line-delimited JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_file=True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file")
        p.set_defaults(fn=fn)
        return p

    add("parse", _cmd_parse, "parse an assertion file and echo it back")
    add("normalize", _cmd_normalize, "rewrite assertions to simple form or report NOT SIMPLE")
    add("reduce", _cmd_reduce, "reduce an implication to its canonical family")
    g = add("graph", _cmd_graph, "emit the variable-layout graph as DOT")
    g.add_argument("--member", type=int, default=0, help="family member index")
    g.add_argument("--out-file", help="write DOT here instead of stdout")
    add("lift", _cmd_lift, "run the layout lifting criteria; attach a witness package on failure")
    add("chk", _cmd_chk, "two-phase consequence gate: simple form, then criteria on the family")
    add("search", _cmd_search, "search assertion-variable environments for a refutation at --arity")
    add("pc", _cmd_pc, "bounded check of the arity-independent validity condition")
    add("prove", _cmd_prove, "check an annotated client proof from a scenario file")
    add("validity", _cmd_validity, "binary-reading triple check against two implementations")
    d = sub.add_parser("demo", help="run a packaged representation-independence scenario")
    d.add_argument("name", choices=DEMO_NAMES)
    d.set_defaults(fn=_cmd_demo)
    return parser


def _join_vals(argv: list[str]) -> list[str]:
    """Spell `--vals -1,0,1` as `--vals=-1,0,1`.

    argparse takes a token starting with '-' for an option, so a value list
    that opens with a negative number would otherwise be missing its value.
    A token that `_value_list` rejects is left for argparse to report.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--vals" and _parses_as_value_list(token):
            out[-1] = f"--vals={token}"
        else:
            out.append(token)
    return out


def _parses_as_value_list(token: str) -> bool:
    try:
        _value_list(token)
    except argparse.ArgumentTypeError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_vals(sys.argv[1:] if argv is None else argv))
    out = _Output(args.format)
    try:
        return args.fn(args, out)
    except (ParseError, ValueError, OSError, KeyError, UnboundVariable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except RecursionError:
        print("error: assertion nested too deeply", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
