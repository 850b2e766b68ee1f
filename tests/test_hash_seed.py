"""Verdicts do not depend on the string hash seed or the bit registry order.

The search and the proof checker iterate over sets and dicts of heaps,
relations and names; an answer must not follow their iteration order.  The
benchmark records its references under PYTHONHASHSEED=0, so this runs the
same verdicts in one process under seed 0 and one under seed 1 and compares
the texts.  Relations compute on fingerprints, whose bits follow the order in
which the process first met each cell, so the hashes of fingerprint sets,
and their iteration order, follow it too; a second test registers cells in
reverse order before the verdicts.  Run directly, the module prints the
texts, after that registration when given --reverse-registry.
"""

import os
import subprocess
import sys
from pathlib import Path

from seplift.catalog import CURATED_SUITE
from seplift.heap import Heap, format_heap
from seplift.hoare import check_proof, two_validity_test
from seplift.normalize import implication_assertions
from seplift.relations import format_relation
from seplift.scenarios import parse_scenario
from seplift.semantics import SearchBudget, find_counter_env
from seplift.syntax import parse_assertion_file

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

# Arities searched per .imp file, as in the file headers: each is unary
# valid, and `scaled` is binary valid and ternary invalid.
IMP_ARITIES = {"bridge": (1, 2), "fan": (1, 2), "good": (1, 2), "scaled": (1, 2, 3)}
# The values each .scn file is checked at, as in its header comment.
SCN_VALUES = {
    "counter.scn": (-1, 0, 1),
    "goodbad_good.scn": (0, 1, 2),
    "goodbad_bad.scn": (0, 1, 2),
}


def search_text(result) -> str:
    if result is None:
        return "none"
    rho = ", ".join(f"{n} -> {format_relation(r)}" for n, r in result.rho.items())
    witness = ", ".join(format_heap(h) for h in result.witness)
    return f"refuted: {rho}; witness ({witness})"


def verdict_texts() -> list[str]:
    lines = []
    for name, arities in IMP_ARITIES.items():
        doc = parse_assertion_file((SCENARIO_DIR / f"{name}.imp").read_text())
        lhs, rhs = doc.implications[0]
        for n in arities:
            result = find_counter_env(lhs, rhs, doc.eta, n)
            lines.append(f"{name}.imp n={n}: {search_text(result)}")
    for entry in CURATED_SUITE:
        lhs, rhs = implication_assertions(entry.form)
        for n in (1, 2):
            result = find_counter_env(lhs, rhs, {}, n)
            lines.append(f"curated {entry.name} n={n}: {search_text(result)}")
    for file, values in SCN_VALUES.items():
        sc = parse_scenario((SCENARIO_DIR / file).read_text(encoding="utf-8"))
        budget = SearchBudget(3, values)
        proof = check_proof(sc.gamma, sc.derivation(), budget, sc.eta)
        validity = two_validity_test(
            sc.gamma, sc.modules(), sc.rho(), sc.eta, sc.pre, sc.client, sc.post,
            budget, budget.domain(),
        )
        lines.append(f"{file} proof: {proof.describe()}")
        lines.append(f"{file} validity: {validity.describe()}")
    return lines


def _run_under(seed: str, *args: str) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, __file__, *args],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        text=True,
    )


def test_verdicts_are_the_same_under_two_hash_seeds():
    procs = [_run_under("0"), _run_under("1")]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    searches = sum(map(len, IMP_ARITIES.values())) + 2 * len(CURATED_SUITE)
    assert len(outputs[0].splitlines()) == searches + 2 * len(SCN_VALUES)
    assert outputs[0] == outputs[1]


def test_verdicts_do_not_depend_on_the_order_cells_are_registered():
    procs = [_run_under("0"), _run_under("0", "--reverse-registry")]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0] and outputs[0] == outputs[1]


if __name__ == "__main__":
    if "--reverse-registry" in sys.argv:
        # give the cells the verdicts meet first the highest bits
        for loc in range(6, 0, -1):
            for val in range(2, -3, -1):
                Heap({loc: val})
    print("\n".join(verdict_texts()))
