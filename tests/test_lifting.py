import random
import time
from itertools import islice, product

import pytest

from conftest import AVARS, NINE_DEEP, SCENARIO_DIR, SIX_WIDE
from seplift.catalog import CURATED_SUITE, make_form
from seplift.heap import EMPTY_HEAP, cells
from seplift.layout import compute_layout
from seplift.lifting import (
    _BASE_TEMPLATES,
    CounterexamplePackage,
    LiftVerdict,
    _template_instances,
    balloon_criterion,
    chk,
    lift_check,
    lonely_criterion,
    shadow_criterion,
    verify_package,
    witness_search,
)
from seplift.normalize import (
    MAX_CLAUSES,
    MAX_FAMILY,
    Clause,
    ImplicationForm,
    implication_assertions,
    reduce_implication,
    to_simple,
)
from seplift.relations import GenRel, top
from seplift.semantics import (
    SearchBudget,
    env_candidate_count,
    find_counter_env,
    pc_check,
)
from seplift.syntax import AssertEnv, TrueLit, parse, parse_assertion_file

FAN = make_form([("1|->_", ""), ("true", "a b")], [("1|->_", "a"), ("1|->_", "b")])
BRIDGE = make_form([("-", "a b"), ("true", "a a")], [("-", "a a"), ("-*-", "b")])
SHADOW = make_form(
    [("true", "a b"), ("true", "a b b")], [("true", "a b b"), ("true", "b b")]
)
BALLOON = make_form(
    [("true", "a"), ("true", "a b")], [("true", "a b"), ("true", "")]
)
LONELY = make_form([("1|->_", "a a")], [("true", "a")])
WB = SearchBudget(max_loc=2)

# The paper's refutations of the fan and the bridge, built by hand.  In the
# fan, one variable holds the pinned cell in the left component only, the
# other in the right component only, so neither disjunct can reassemble the
# pair.  In the bridge, the doubled variable gets two unrelated generators,
# so its star covers an asymmetric pair that neither disjunct reproduces.
PAPER_UNARY_BUDGET = SearchBudget(max_loc=3, max_generators=3)
FAN_PACKAGE = CounterexamplePackage(
    FAN,
    {},
    AssertEnv(
        2,
        {
            "a": GenRel(2, [(cells(1), EMPTY_HEAP)]),
            "b": GenRel(2, [(EMPTY_HEAP, cells(1))]),
        },
    ),
    (cells(1), cells(1)),
    PAPER_UNARY_BUDGET,
    env_candidate_count(2, 1, PAPER_UNARY_BUDGET),
)
BRIDGE_PACKAGE = CounterexamplePackage(
    BRIDGE,
    {},
    AssertEnv(
        2,
        {
            "a": GenRel(2, [(cells(1), EMPTY_HEAP), (cells(2), cells(2))]),
            "b": top(2),
        },
    ),
    (cells(1, 2), cells(2)),
    PAPER_UNARY_BUDGET,
    env_candidate_count(2, 1, PAPER_UNARY_BUDGET),
)


def test_shadow_criterion():
    assert shadow_criterion(compute_layout(SHADOW)) is True
    assert shadow_criterion(compute_layout(FAN)) is False
    # an empty disjunct cannot satisfy the disjunct condition
    assert shadow_criterion(compute_layout(BALLOON)) is False


def test_balloon_criterion():
    assert balloon_criterion(compute_layout(BALLOON)) == frozenset({"b"})
    # one occurrence of assertion variables per conjunct and disjunct in
    # total: the whole variable set qualifies
    spread = make_form(
        [("true", "a"), ("true", "b")], [("true", "a"), ("true", "b")]
    )
    assert balloon_criterion(compute_layout(spread)) == frozenset({"a", "b"})
    assert balloon_criterion(compute_layout(FAN)) is None


def test_lonely_criterion():
    assert lonely_criterion(compute_layout(LONELY))
    assert not lonely_criterion(compute_layout(FAN))  # two conjuncts
    dashed = make_form([("true", "a")], [("true", "a a")])
    assert not lonely_criterion(compute_layout(dashed))


def test_lift_check_named_verdicts():
    assert lift_check(SHADOW).criterion == "shadow"
    balloon = lift_check(BALLOON)
    assert balloon.criterion == "balloon"
    assert balloon.balloon_subset == frozenset({"b"})
    assert lift_check(LONELY).criterion == "lonely"
    assert lift_check(FAN).result == "no_guarantee"
    assert lift_check(BRIDGE) == LiftVerdict("no_guarantee")


def test_chk_fig_pair():
    assert chk(parse("1|->_ /\\ a*b", AVARS), parse("1|->_", AVARS)).ok
    assert not chk(
        parse("1|->_ /\\ a*b", AVARS), parse("1|->_*a \\/ 1|->_*b", AVARS)
    ).ok


def test_chk_variable_free_identity():
    phi = parse("1|->_ * 2|->3")
    assert chk(phi, phi).ok


def test_chk_not_simple():
    tangled = parse("((1|->0 * a) /\\ (2|->0 * b)) * (3|->0 * a)", AVARS)
    report = chk(tangled, parse("true"))
    assert not report.ok and "simple" in report.reason


def test_chk_names_the_clause_bound():
    report = chk(parse("a * b", AVARS), parse(SIX_WIDE, AVARS))
    assert not report.ok and not report.members
    assert report.reason == (
        f"right-hand side exceeds the {MAX_CLAUSES:,}-clause bound on simple form"
    )
    report = chk(parse(SIX_WIDE, AVARS), parse("a", AVARS))
    assert report.reason.startswith("left-hand side exceeds")


def test_chk_names_the_family_bound():
    lhs, rhs = parse("a /\\ b", AVARS), parse(NINE_DEEP, AVARS)
    with pytest.raises(ValueError, match="family size bound"):
        reduce_implication(to_simple(lhs), to_simple(rhs))
    report = chk(lhs, rhs)
    assert not report.ok and not report.members
    assert report.reason == f"the family exceeds the {MAX_FAMILY:,}-member bound"


def test_chk_reads_a_long_star_chain():
    # the parser reads the chain in a loop; `to_simple` must not recurse
    # once per `*` either
    chain = parse(" * ".join(["a"] * 3000), AVARS)
    report = chk(chain, parse("a * a", AVARS))
    assert report.ok
    ((form, _),) = report.members
    assert form.conjuncts[0].avars == ("a",) * 3000


def test_chk_alpha_renaming_invariance():
    lhs = parse("1|->_ /\\ a*b", AVARS)
    rhs = parse("1|->_*a \\/ 1|->_*b", AVARS)
    cd = frozenset({"c", "d"})
    lhs2 = parse("1|->_ /\\ c*d", cd)
    rhs2 = parse("1|->_*c \\/ 1|->_*d", cd)
    assert chk(lhs, rhs).ok == chk(lhs2, rhs2).ok
    good = parse("1|->_", AVARS)
    assert chk(lhs, good).ok == chk(lhs2, good).ok


def test_chk_reordering_invariance():
    lhs1 = parse("1|->_ /\\ a*b", AVARS)
    lhs2 = parse("a*b /\\ 1|->_", AVARS)
    rhs1 = parse("1|->_*a \\/ 1|->_*b", AVARS)
    rhs2 = parse("1|->_*b \\/ 1|->_*a", AVARS)
    assert chk(lhs1, rhs1).ok == chk(lhs2, rhs2).ok
    assert chk(lhs1, parse("1|->_")).ok == chk(lhs2, parse("1|->_")).ok


def _assert_witnesses_layout(form: ImplicationForm) -> None:
    pkg = witness_search(form, WB)
    assert pkg is not None and verify_package(pkg)
    assert compute_layout(pkg.form) == compute_layout(form)


def test_witness_search_fan_package_matches_known_refutation():
    assert verify_package(FAN_PACKAGE)
    _assert_witnesses_layout(FAN)


def test_witness_search_bridge_package_matches_known_refutation():
    assert verify_package(BRIDGE_PACKAGE)
    _assert_witnesses_layout(BRIDGE)


def test_package_text_names_the_whole_unary_bound():
    pkg = witness_search(FAN, WB)
    assert pkg.describe().splitlines()[-1] == (
        "unary evidence: no refutation among 81 environments "
        "(locs<=3, vals=[0], gens<=3, heap size<=1)"
    )


def test_package_text_prints_relations_as_literals():
    lines = witness_search(FAN, WB).describe().splitlines()
    assert lines[1] == "binary environment: a -> { ([],[1|->0]) }, b -> { ([1|->0],[]) }"


def test_witness_search_accepted_layouts_return_none():
    assert witness_search(SHADOW, WB) is None
    assert witness_search(BALLOON, WB) is None
    assert witness_search(LONELY, WB) is None


def test_witness_search_handles_renamed_layouts():
    renamed = make_form(
        [("true", "c d"), ("1|->_", "")], [("1|->_", "d"), ("1|->_", "c")]
    )
    pkg = witness_search(renamed, WB)
    assert pkg is not None and verify_package(pkg)


def test_witness_search_template_family():
    scaled = make_form(
        [("1|->_", ""), ("true", "a a b")], [("1|->_", "a"), ("1|->_", "b")]
    )
    pkg = witness_search(scaled, WB)
    assert pkg is not None and verify_package(pkg)


def test_three_variable_fan_gets_a_package_and_a_ternary_refutation():
    doc = parse_assertion_file((SCENARIO_DIR / "fan3.imp").read_text(encoding="utf-8"))
    lhs, rhs = doc.implications[0]
    [(form, verdict)] = chk(lhs, rhs).members
    assert verdict.result == "no_guarantee"
    start = time.perf_counter()
    pkg = witness_search(form)
    assert time.perf_counter() - start < 1.0
    assert pkg is not None and verify_package(pkg)
    assert find_counter_env(lhs, rhs, doc.eta, 2) is None
    assert find_counter_env(lhs, rhs, doc.eta, 3) is not None


def test_witness_search_may_come_up_empty():
    # this layout beats the template family within the small budget; a None
    # here is an honest budget exhaustion, not a lifting guarantee
    x_layout = make_form(
        [("true", "a"), ("true", "a a")], [("true", "a a"), ("true", "a")]
    )
    assert lift_check(x_layout).result == "no_guarantee"
    pkg = witness_search(x_layout, WB)
    assert pkg is None or verify_package(pkg)
    # the default budget's extra location is enough for a package
    pkg = witness_search(x_layout)
    assert pkg is not None and verify_package(pkg)


def test_pc_accepted_template_instances_are_never_refuted():
    # witness_search skips every instance pc_check accepts; check on a
    # spread-out sample of them that no arity-1 or arity-2 refutation exists
    per_layout = 15
    for name in ("fan", "bridge", "fan-scaled-double"):
        (entry,) = (e for e in CURATED_SUITE if e.name == name)
        accepted = [
            form
            for form in _template_instances(compute_layout(entry.form))
            if pc_check(form, {}, WB)
        ]
        assert len(accepted) >= per_layout, name
        for form in accepted[:: len(accepted) // per_layout][:per_layout]:
            lhs, rhs = implication_assertions(form)
            for n in (1, 2):
                assert find_counter_env(lhs, rhs, {}, n, WB) is None, (name, form)


def _small_no_guarantee_layouts() -> list[ImplicationForm]:
    """Layouts over a, b with counts <= 2, <= 2 conjuncts and <= 2 disjuncts."""

    def clause(row: tuple[int, ...]) -> Clause:
        return Clause(TrueLit(), ("a",) * row[0] + ("b",) * row[1])

    rows = list(product(range(3), repeat=2))
    out = []
    for conjuncts, disjuncts in product(
        [c for k in (1, 2) for c in product(rows, repeat=k)],
        [d for k in (1, 2) for d in product(rows, repeat=k)],
    ):
        try:
            form = ImplicationForm(
                tuple(map(clause, conjuncts)), tuple(map(clause, disjuncts))
            )
        except ValueError:
            continue  # a right-hand variable missing on the left
        if lift_check(form).result == "no_guarantee":
            out.append(form)
    return out


def test_witness_search_packages_verify_on_sampled_layouts():
    sample = random.Random(20261018).sample(_small_no_guarantee_layouts(), 16)
    packages = [witness_search(form, WB) for form in sample]
    found = [pkg for pkg in packages if pkg is not None]
    assert found, "the sample should contain witnessable layouts"
    for form, pkg in zip(sample, packages):
        if pkg is not None:
            assert verify_package(pkg), form
            assert compute_layout(pkg.form) == compute_layout(form)


def test_verify_package_rejects_tampering():
    pkg = FAN_PACKAGE
    bad = CounterexamplePackage(
        pkg.form,
        pkg.eta,
        pkg.binary_rho,
        (cells(2), cells(2)),  # not in the left side under this rho
        pkg.unary_budget,
        pkg.unary_space,
    )
    assert not verify_package(bad)


def test_balloon_decides_seventeen_variables():
    # every variable labels a solid edge (doubled conjunct vs single
    # disjunct), so the shadow criterion fails; a bare extra conjunct makes
    # every edge from it dashed, so lonely fails too; and no variable can
    # join a balloon subset, since each occurs twice in a conjunct
    names = [f"v{i:02d}" for i in range(17)]
    conjuncts = (
        Clause(parse("true"), ()),
        *(Clause(parse("true"), (n, n)) for n in names),
    )
    disjuncts = tuple(Clause(parse("true"), (n,)) for n in names)
    form = ImplicationForm(conjuncts, disjuncts)
    assert balloon_criterion(compute_layout(form)) is None
    assert lift_check(form).result == "no_guarantee"


def test_balloon_decides_padded_layout():
    # BALLOON with x00..x14 once in conjunct 2 and once in disjunct 1
    pad = " ".join(f"x{k:02d}" for k in range(15))
    form = make_form(
        [("true", "a"), ("true", f"a b {pad}")], [("true", f"a b {pad}"), ("true", "")]
    )
    g = compute_layout(form)
    assert len(g.variables) == 17
    assert not shadow_criterion(g) and not lonely_criterion(g)
    assert lift_check(form).describe() == "LIFTS (Balloon {b})"


def test_balloon_decides_forty_variables_quickly():
    # four groups of ten variables, one conjunct per group; each group's two
    # disjuncts share only the group's last variable, so the only subset
    # that takes one variable per conjunct picks those four.  The empty
    # disjunct defeats shadow; dropping the shared variable from the last
    # group's first disjunct leaves no subset at all.
    def layout(shared_in_last_group: bool) -> ImplicationForm:
        groups = [[f"x{k:02d}" for k in range(10 * g, 10 * g + 10)] for g in range(4)]
        disjuncts = []
        for g, names in enumerate(groups):
            first = names[:5] + ([names[-1]] if shared_in_last_group or g < 3 else [])
            disjuncts += [("true", " ".join(first)), ("true", " ".join(names[5:]))]
        return make_form(
            [("true", " ".join(names)) for names in groups], disjuncts + [("true", "")]
        )

    # ten disjuncts of four interchangeable variables each, and two more
    # whose only variables share a conjunct: a search that tried every one
    # of the 4**10 choices before meeting that clash would take seconds
    blocks = [" ".join(f"x{k:02d}" for k in range(4 * b, 4 * b + 4)) for b in range(10)]
    clash = make_form(
        [("true", block) for block in blocks] + [("true", "y z")],
        [("true", block) for block in blocks] + [("true", "y"), ("true", "z"), ("true", "")],
    )

    start = time.perf_counter()
    verdicts = [lift_check(form) for form in (layout(True), layout(False), clash)]
    elapsed = time.perf_counter() - start
    assert verdicts[0].describe() == "LIFTS (Balloon {x09,x19,x29,x39})"
    assert [v.result for v in verdicts[1:]] == ["no_guarantee", "no_guarantee"]
    assert elapsed < 1.0  # a few milliseconds on a 2-vCPU host


def test_template_instances_order():
    # by template-index sum, then lexicographically, on layouts of 1-4 slots
    for form in (LONELY, make_form([("true", "a")], []), FAN, BRIDGE):
        g = compute_layout(form)
        slots = g.conjunct_count + g.disjunct_count
        expected = sorted(
            product(range(len(_BASE_TEMPLATES)), repeat=slots), key=lambda a: (sum(a), a)
        )
        assert [
            (*(c.base for c in f.conjuncts), *(d.base for d in f.disjuncts))
            for f in _template_instances(g)
        ] == [tuple(_BASE_TEMPLATES[t] for t in a) for a in expected]


def test_template_instances_are_lazy():
    # one slot per clause: 18 conjuncts and 17 disjuncts, 4**35 choices
    wide = make_form(
        [("true", f"v{k:02d}") for k in range(18)],
        [("true", f"v{k:02d}") for k in range(17)],
    )
    g = compute_layout(wide)
    assert g.conjunct_count + g.disjunct_count == 35
    start = time.perf_counter()
    first = list(islice(_template_instances(g), 3))
    assert time.perf_counter() - start < 1.0
    assert [c.base for c in first[0].conjuncts] == [TrueLit()] * 18
    assert first[1].disjuncts[-1].base == _BASE_TEMPLATES[1]


def test_curated_suite_expectations():
    assert len(CURATED_SUITE) >= 20
    for entry in CURATED_SUITE:
        verdict = lift_check(entry.form)
        assert verdict.result == entry.expected, entry.name
        if entry.criterion is not None:
            assert verdict.criterion == entry.criterion, entry.name
        if entry.balloon_subset is not None:
            assert verdict.balloon_subset == entry.balloon_subset, entry.name
