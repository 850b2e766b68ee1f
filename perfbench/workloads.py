"""The gate, search and prove query streams and their known answers.

A workload is a list of `Query` objects built from the run's seed before any
timing starts.  Each query's `run` calls seplift through module attributes
at call time, so a traced run sees the wrapped functions.  `check` compares
the verdict with the query's known answer and returns None when it matches or
a one-line reason when it does not; checks run after the timed stream.
README.md says where each known answer comes from.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from seplift import hoare, lifting, normalize, scenarios, semantics, syntax
from seplift.catalog import CURATED_SUITE
from seplift.heap import format_heap
from seplift.relations import format_relation, member

import gen

HERE = Path(__file__).resolve().parent
SCENARIO_DIR = HERE.parent / "scenarios"
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("gate", "search", "prove")

GATE_SAMPLE = 8000  # generated implications per gate pass
SEARCH_POOL = 1500  # pool members with at most 3 variables, reference-checked
SEARCH_PER_STRATUM = 10  # x 12 strata = 120 generated arity-1 searches per pass
SEARCH_MAX_VARS = 3

# Layout verdict of each scenarios/*.imp implication: good.imp is the
# liftable consequence of its header; bridge and fan are the curated bridge
# and fan layouts; scaled.imp has the layout of `fan-scaled-double`.
IMP_LIFTS = {"bridge": False, "fan": False, "good": True, "scaled": False}

# Arities at which find_counter_env must refute each scenarios/*.imp file
# with the default budget, from the headers: fan and bridge are binary
# invalid, scaled is binary valid but ternary invalid, good is valid.
IMP_SEARCH = {
    "bridge": {1: False, 2: True},
    "fan": {1: False, 2: True},
    "good": {1: False, 2: False},
    "scaled": {1: False, 2: False, 3: True},
}

# Curated entries whose instance is binary invalid (the fan and bridge
# implications of the .imp headers).  Every curated instance is unary valid,
# the `lifts` ones are valid at every arity, and `fan-scaled-double` is
# scaled.imp, binary valid.
BINARY_INVALID = {"fan", "fan-renamed-flipped", "bridge", "bridge-renamed-flipped"}

KNOWN_DEFECT = "prove/consequence-bb-aa"


@dataclass
class Query:
    qid: str
    run: Callable[[], object]
    describe: Callable[[object], str]
    check: Callable[[object], str | None]
    inputs: dict = field(default_factory=dict)
    known_defect: bool = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def budget_record(budget: semantics.SearchBudget) -> dict:
    return {
        "locs": budget.max_loc,
        "vals": list(budget.values),
        "gens": budget.max_generators,
        "heap_size": budget.max_heap_size,
    }


def default_budget(fn: Callable) -> semantics.SearchBudget:
    """The budget `fn` uses when the caller passes none."""
    return inspect.signature(fn).parameters["budget"].default


# --- verdict texts --------------------------------------------------------------


def chk_text(report) -> str:
    head = f"{'ok' if report.ok else 'fail'}: {report.reason}"
    members = "".join(
        f"; {normalize.format_implication(form)} => {verdict.describe()}"
        for form, verdict in report.members
    )
    return head + members


def search_text(result) -> str:
    if result is None:
        return "none"
    rho = ", ".join(f"{n} -> {format_relation(r)}" for n, r in result.rho.items())
    witness = ", ".join(format_heap(h) for h in result.witness)
    return f"refuted: {rho}; witness ({witness})"


def witness_text(result) -> str:
    pkg, verified = result
    if pkg is None:
        return "no package"
    return f"{pkg.describe()}\nrecheck: {verified}"


def prove_text(result) -> str:
    proof, validity = result
    return f"{proof.describe()} | {validity.describe()}"


# --- references recorded at the seed commit --------------------------------------


def load_reference(name: str) -> dict[int, str]:
    out = {}
    with open(REFERENCE_DIR / f"{name}.txt", encoding="utf-8") as fh:
        for line in fh:
            index, value = line.split()
            out[int(index)] = value
    return out


def search_pool_indices(pool: list[gen.GateInput]) -> list[int]:
    eligible = [i for i, q in enumerate(pool) if len(q.avars) <= SEARCH_MAX_VARS]
    return eligible[:SEARCH_POOL]


def search_strata(pool: list[gen.GateInput], reference: dict[int, str]) -> list[list[int]]:
    """The search pool split by variable count, recorded verdict and size.

    An exhausted 3-variable search costs about ten times a refuted one and
    a 2-variable one, so a plain sample's cost would swing with the seed.
    Strata are (variables, refuted at the reference) x size tercile, where
    size is the number of `*` in the implication.
    """
    none = digest(search_text(None))
    groups: dict[tuple, list[int]] = {}
    for i in search_pool_indices(pool):
        groups.setdefault((len(pool[i].avars), reference[i] == none), []).append(i)
    strata = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda i: (pool[i].text.count("*"), i))
        n = len(members)
        strata += [members[b * n // 3:(b + 1) * n // 3] for b in range(3)]
    return strata


def _reference_check(describe, expected: str):
    def check(result) -> str | None:
        got = digest(describe(result))
        return None if got == expected else f"verdict digest {got} != reference {expected}"

    return check


# --- gate ------------------------------------------------------------------------


def _chk_query(qid, lhs, rhs, avars, check, kind) -> Query:
    def run():
        return lifting.chk(syntax.parse(lhs, avars), syntax.parse(rhs, avars))

    return Query(qid, run, chk_text, check, {"text": f"{lhs} |= {rhs}", "kind": kind})


def _curated_chk_check(entry):
    def check(report) -> str | None:
        if report.ok != (entry.expected == "lifts") or len(report.members) != 1:
            return f"chk {report.ok} with {len(report.members)} members"
        verdict = report.members[0][1]
        got = (verdict.result, verdict.criterion, verdict.balloon_subset)
        want = (entry.expected, entry.criterion, entry.balloon_subset)
        return None if got == want else f"member verdict {got} != {want}"

    return check


def _imp_files() -> dict[str, object]:
    return {
        name: syntax.parse_assertion_file((SCENARIO_DIR / f"{name}.imp").read_text())
        for name in sorted(IMP_LIFTS)
    }


def gate_queries(seed: int) -> list[Query]:
    queries = []
    for entry in CURATED_SUITE:
        lhs, _, rhs = normalize.format_implication(entry.form).partition("|=")
        queries.append(_chk_query(
            f"gate/curated/{entry.name}", lhs.strip(), rhs.strip(),
            entry.form.variables, _curated_chk_check(entry), "curated",
        ))
    for name, doc in _imp_files().items():
        for raw in (SCENARIO_DIR / f"{name}.imp").read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if "|=" not in line:
                continue
            lhs, _, rhs = line.partition("|=")
            want = IMP_LIFTS[name]
            queries.append(_chk_query(
                f"gate/imp/{name}", lhs.strip(), rhs.strip(), doc.avars,
                lambda report, want=want: None if report.ok == want else f"chk {report.ok}",
                "scenario",
            ))
    pool = gen.gate_pool()
    reference = load_reference("gate")
    for index in gen.sample_indices(seed, "gate", len(pool), GATE_SAMPLE):
        q = pool[index]
        queries.append(_chk_query(
            f"gate/gen/{index}", q.lhs, q.rhs, q.avars,
            _reference_check(chk_text, reference[index]), q.kind,
        ))
    return queries


# --- search ----------------------------------------------------------------------


def _refutation_check(lhs, rhs, eta, n, budget, want_refuted: bool | None, ref=None):
    """Compare with the known answer, then re-check any refutation."""

    def check(result) -> str | None:
        if ref is not None:
            reason = _reference_check(search_text, ref)(result)
            if reason is not None:
                return reason
        if want_refuted is not None and (result is not None) != want_refuted:
            return f"refuted={result is not None}, known answer {want_refuted}"
        if result is None:
            return None
        dom = budget.domain()
        if semantics.env_valid(lhs, rhs, eta, result.rho, n, dom):
            return "returned environment does not refute (env_valid holds)"
        lhs_rel = semantics.interpret(lhs, eta, result.rho, n, dom)
        rhs_rel = semantics.interpret(rhs, eta, result.rho, n, dom)
        if not member(lhs_rel, result.witness) or member(rhs_rel, result.witness):
            return "witness is not in lhs \\ rhs"
        return None

    return check


def _search_query(qid, lhs, rhs, eta, n, want_refuted, ref=None) -> Query:
    budget = default_budget(semantics.find_counter_env)

    def run():
        return semantics.find_counter_env(lhs, rhs, eta, n)

    return Query(
        qid, run, search_text,
        _refutation_check(lhs, rhs, eta, n, budget, want_refuted, ref),
        {"op": "find_counter_env", "arity": n, "budget": budget_record(budget)},
    )


def search_queries(seed: int) -> list[Query]:
    queries = []
    for entry in CURATED_SUITE:
        lhs, rhs = normalize.implication_assertions(entry.form)
        for n in (1, 2):
            refuted = n == 2 and entry.name in BINARY_INVALID
            queries.append(_search_query(
                f"search/fce{n}/{entry.name}", lhs, rhs, {}, n, refuted
            ))
    for name, doc in _imp_files().items():
        lhs, rhs = doc.implications[0]
        for n, refuted in IMP_SEARCH[name].items():
            queries.append(_search_query(
                f"search/fce{n}/{name}.imp", lhs, rhs, doc.eta, n, refuted
            ))
    pc_budget = default_budget(semantics.pc_check)
    for entry in CURATED_SUITE:
        want = entry.expected == "lifts"
        queries.append(Query(
            f"search/pc/{entry.name}",
            lambda form=entry.form: semantics.pc_check(form, {}),
            lambda verdict: verdict.describe(),
            lambda verdict, want=want: None if verdict.holds == want else f"holds={verdict.holds}",
            {"op": "pc_check", "arity": 1, "budget": budget_record(pc_budget)},
        ))
    ws_budget = default_budget(lifting.witness_search)
    for entry in CURATED_SUITE:
        if entry.expected != "no_guarantee":
            continue

        def run(form=entry.form):
            pkg = lifting.witness_search(form)
            return pkg, pkg is not None and lifting.verify_package(pkg)

        queries.append(Query(
            f"search/witness/{entry.name}", run, witness_text,
            lambda result: None if result[0] is not None and result[1] else "no verified package",
            {"op": "witness_search", "arity": 2, "budget": budget_record(ws_budget)},
        ))
    pool = gen.gate_pool()
    reference = load_reference("search")
    strata = search_strata(pool, reference)
    for index in gen.stratified_sample(seed, "search", strata, SEARCH_PER_STRATUM):
        q = pool[index]
        lhs, rhs = syntax.parse(q.lhs, q.avars), syntax.parse(q.rhs, q.avars)
        queries.append(_search_query(
            f"search/gen/{index}", lhs, rhs, {}, 1, None, reference[index]
        ))
    return queries


# --- prove -----------------------------------------------------------------------


def _scenario_query(qid, text, values, locs, want) -> Query:
    budget = semantics.SearchBudget(max_loc=locs, values=values)
    dom = semantics.ValueDomain(values, tuple(range(1, locs + 1)))

    def run():
        sc = scenarios.parse_scenario(text)
        proof = hoare.check_proof(sc.gamma, sc.derivation(), budget, sc.eta)
        validity = hoare.two_validity_test(
            sc.gamma, sc.modules(), sc.rho(), sc.eta, sc.pre, sc.client, sc.post,
            budget, dom,
        )
        return proof, validity

    def check(result) -> str | None:
        proof, validity = result
        got = (proof.accepted, validity.ok, validity.failed_triple)
        return None if got == want else f"(accepted, valid, failed triple) {got} != {want}"

    inputs = {"op": "prove+validity", "arity": 2, "budget": budget_record(budget),
              "dom": {"vals": list(dom.values), "locs": list(dom.locations)}}
    return Query(qid, run, prove_text, check, inputs)


def _known_defect_query() -> Query:
    """`b*b /\\ a*a |= a*b` is unary invalid, so the consequence must fail."""
    avars = frozenset({"a", "b"})
    pre = syntax.parse("b*b /\\ a*a", avars)
    post = syntax.parse("a*b", avars)
    derivation = hoare.Consequence(pre, hoare.SkipAxiom(post), post)
    budget = default_budget(hoare.check_proof)
    return Query(
        KNOWN_DEFECT,
        lambda: hoare.check_proof((), derivation),
        lambda verdict: verdict.describe(),
        lambda verdict: None if not verdict.accepted else "accepted a unary-invalid consequence",
        {"op": "check_proof", "arity": 1, "budget": budget_record(budget)},
        known_defect=True,
    )


def prove_queries(seed: int) -> list[Query]:
    def scn(name):
        return (SCENARIO_DIR / f"{name}.scn").read_text()

    counter = scn("counter")
    queries = [
        _scenario_query("prove/counter.scn", counter, (-1, 0, 1), 3, (True, True, None)),
        _scenario_query("prove/counter.scn@-2..2", counter, (-2, -1, 0, 1, 2), 3,
                        (True, False, "inc")),
        _scenario_query("prove/goodbad_bad.scn", scn("goodbad_bad"), (0, 1, 2), 3,
                        (False, False, None)),
        _scenario_query("prove/goodbad_good.scn", scn("goodbad_good"), (0, 1, 2), 3,
                        (True, True, None)),
    ]
    for variant in gen.counter_variants(seed):
        ok, triple = variant.expected()
        queries.append(_scenario_query(
            f"prove/{variant.label}", gen.counter_variant_text(counter, variant),
            variant.values, variant.locs, (True, ok, triple),
        ))
    for name in scenarios.DEMO_NAMES:
        queries.append(Query(
            f"prove/demo/{name}",
            lambda name=name: scenarios.demo(name),
            lambda report: report.text(),
            lambda report: None if report.ok else "demo reports MISMATCH",
            {"op": "demo"},
        ))
    queries.append(_known_defect_query())
    return queries


BUILDERS = {"gate": gate_queries, "search": search_queries, "prove": prove_queries}


def build(workload: str, seed: int) -> list[Query]:
    return BUILDERS[workload](seed)
