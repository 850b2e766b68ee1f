"""The shadow and balloon criteria against direct readings on counts.

`lifting.balloon_criterion` decides the criterion as an exact cover of the
non-empty disjuncts.  The balloon oracle below is the direct reading of the
three conditions: it tries every variable subset by size, then
lexicographically, and returns the first that passes.  The two must agree on
which subset they report, not only on whether one exists.

`lifting.shadow_criterion` reads the layout's edge labels.  The shadow oracle
reads only the count vectors: a variable is stable when its count is equal
at both ends of every solid edge, every dashed edge needs a stable variable
whose count rises along it, and every disjunct a stable variable it counts.
"""

import random
from itertools import combinations

from seplift.catalog import CURATED_SUITE
from seplift.layout import LayoutGraph, compute_layout
from seplift.lifting import balloon_criterion, shadow_criterion
from seplift.normalize import Clause, ImplicationForm
from seplift.syntax import TrueLit


def naive_shadow_criterion(g: LayoutGraph) -> bool:
    solid = [
        (i, j)
        for i in range(g.conjunct_count)
        for j in range(g.disjunct_count)
        if all(p >= o for p, o in zip(g.pi[i], g.omega[j]))
    ]
    stable = [
        v
        for v in range(len(g.variables))
        if all(g.pi[i][v] == g.omega[j][v] for i, j in solid)
    ]
    dashed_ok = all(
        any(g.pi[i][v] < g.omega[j][v] for v in stable)
        for i in range(g.conjunct_count)
        for j in range(g.disjunct_count)
        if (i, j) not in solid
    )
    return dashed_ok and all(any(row[v] > 0 for v in stable) for row in g.omega)


def naive_balloon_criterion(g: LayoutGraph) -> frozenset[str] | None:
    variables = g.variables
    dashed = [
        (i, j)
        for i in range(g.conjunct_count)
        for j in range(g.disjunct_count)
        if not g.edge(i, j).solid
    ]
    for size in range(len(variables) + 1):
        for subset in combinations(range(len(variables)), size):
            if any(sum(g.pi[i][v] for v in subset) > 1 for i in range(g.conjunct_count)):
                continue
            if any(
                any(g.omega[j]) and sum(g.omega[j][v] for v in subset) != 1
                for j in range(g.disjunct_count)
            ):
                continue
            if any(
                not any(g.pi[i][v] < g.omega[j][v] for v in subset) for i, j in dashed
            ):
                continue
            return frozenset(variables[v] for v in subset)
    return None


NAMES = tuple(f"v{k}" for k in range(8))


def _random_layout(rng: random.Random) -> LayoutGraph:
    """Up to 8 variables, counts 0-3, 1-4 conjuncts, 0-4 disjuncts."""
    n = rng.randint(1, len(NAMES))
    # Uniform counts rarely leave a usable variable; the skewed draw favours
    # 0 and 1, where balloon subsets are common.
    counts = (0, 1, 2, 3) if rng.random() < 0.3 else (0, 0, 0, 1, 1, 1, 2, 3)
    pi = [[rng.choice(counts) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    omega = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:  # inside a conjunct, so that edge is solid
            omega.append([rng.randint(0, c) for c in rng.choice(pi)])
        else:
            omega.append([rng.choice(counts) if any(r[v] for r in pi) else 0 for v in range(n)])
    # Variables with equal columns compete for the same disjuncts, so there
    # is more than one subset to choose from.
    for v in range(1, n):
        if rng.random() < 0.3:
            u = rng.randrange(v)
            for row in pi + omega:
                row[v] = row[u]

    def clause(row: list[int]) -> Clause:
        return Clause(TrueLit(), tuple(x for v, c in zip(NAMES, row) for x in [v] * c))

    return compute_layout(
        ImplicationForm(tuple(map(clause, pi)), tuple(map(clause, omega)))
    )


def test_balloon_matches_subset_enumeration_on_generated_layouts():
    rng = random.Random(20261018)
    hits = 0
    for _ in range(3000):
        g = _random_layout(rng)
        subset = naive_balloon_criterion(g)
        assert balloon_criterion(g) == subset, g
        hits += subset is not None
    assert hits >= 500  # the sample exercises the search, not just refusals


def test_shadow_matches_count_reading_on_generated_layouts():
    rng = random.Random(20261018)
    answers = []
    for _ in range(3000):
        g = _random_layout(rng)
        answers.append(naive_shadow_criterion(g))
        assert shadow_criterion(g) is answers[-1], g
    assert 300 <= sum(answers) <= 2700  # both answers are well represented


def test_shadow_matches_count_reading_on_curated_suite():
    for entry in CURATED_SUITE:
        g = compute_layout(entry.form)
        assert shadow_criterion(g) is naive_shadow_criterion(g), entry.name


def test_balloon_matches_subset_enumeration_on_curated_suite():
    for entry in CURATED_SUITE:
        g = compute_layout(entry.form)
        assert balloon_criterion(g) == naive_balloon_criterion(g), entry.name
