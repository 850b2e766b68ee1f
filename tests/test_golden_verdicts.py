"""Proof and validity verdict texts pinned word for word.

The texts were recorded before the 2-validity and proof-gate caching work,
so any change to a violation's wording, to which input pair is reported, or
to the number of input pairs checked shows up here.  The counter's -2..2
text later gained the note on output values outside the domain.  The pass
counts changed once, when 2-validity stopped running frames: they now count
precondition generator pairs (18 and 9), where they counted input/frame
pairs (4,608 and 2,304); the violation texts did not change.  Later the
violation texts lost "with frame ([], [])" and "with this frame": every
violation is found at the empty frame, so naming it said nothing.
"""

import pytest

from conftest import load_scenario
from seplift.hoare import check_proof, two_validity_test
from seplift.semantics import SearchBudget

ACCEPTED = "Accepted (relative to the search bound)"
BAD_PROOF = (
    "Rejected at root.seq2.pre: chk failed for 1 |-> _ /\\ a * b |= "
    "1 |-> _ * a \\/ 1 |-> _ * b: a family member fails the criteria"
)
BAD_VALIDITY = (
    "client violation: client: inputs ([1|->0], [1|->0]) "
    "produced ([1|->1], [1|->2]): outputs leave the postcondition"
)
# The demo report texts are pinned in test_scenarios.py.

GOLDEN = [
    (
        "counter.scn",
        (-1, 0, 1),
        ACCEPTED,
        "NoViolation (bounded; 18 input pairs)",
    ),
    (
        "counter.scn",
        (-2, -1, 0, 1, 2),
        ACCEPTED,
        "context triple 'inc' does not preserve the coupling: inc: inputs "
        "([1|->2], [1|->2]) produced ([1|->3], [1|->3]): "
        "outputs leave the postcondition; output value 3 lies "
        "outside the value domain {-2, -1, 0, 1, 2}, so the violation may come "
        "from the bound",
    ),
    (
        "goodbad_good.scn",
        (0, 1, 2),
        ACCEPTED,
        "NoViolation (bounded; 9 input pairs)",
    ),
    ("goodbad_bad.scn", (0, 1, 2), BAD_PROOF, BAD_VALIDITY),
]


@pytest.mark.parametrize("file, values, proof_text, validity_text", GOLDEN)
def test_verdict_texts(file, values, proof_text, validity_text):
    scenario = load_scenario(file)
    budget = SearchBudget(3, values)
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
        budget.domain(),
    )
    assert proof.describe() == proof_text
    assert validity.describe() == validity_text

