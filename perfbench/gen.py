"""Seeded input generators for the benchmark workloads.

Generators return plain text or plain parameters, so the program under test
only ever sees generated inputs.  The same seed always yields the same
inputs.  README.md records why
each dimension is varied.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

# Master seed of the generated-implication pool.  The pool is fixed so that a
# reference verdict can be recorded for every member; a run's --seed picks a
# sample of it.  Changing either constant invalidates reference/*.txt.
POOL_SEED = 12085895
POOL_SIZE = 16000

VARIABLES = ("a", "b", "c", "d")
BASES = ("true", "-", "1|->_", "2|->_", "-*-", "1|->0")

# Shapes of the one clause that is rewritten in a non-simple input.
#   or_under_star   (B1 \/ B2) * vars        to_simple distributes * over \/
#   exists          EX x. 1|->x * vars        to_simple moves EX onto the base
#   and_under_star  (v /\ w) * B * vars       to_simple returns None
NON_SIMPLE_KINDS = ("or_under_star", "exists", "and_under_star")
NON_SIMPLE_SHARE = 0.25


@dataclass(frozen=True)
class GateInput:
    """One generated implication ``lhs |= rhs`` over declared variables."""

    lhs: str
    rhs: str
    avars: tuple[str, ...]
    kind: str  # "simple" or one of NON_SIMPLE_KINDS

    @property
    def text(self) -> str:
        return f"{self.lhs} |= {self.rhs}"


def _clause(rng: random.Random, variables: tuple[str, ...]) -> tuple[str, list[str]]:
    base = rng.choice(BASES)
    occurrences = [v for v in variables for _ in range(rng.randint(0, 3))]
    return base, occurrences


def _clause_text(base: str, occurrences: list[str]) -> str:
    if base == "true" and occurrences:
        return " * ".join(occurrences)
    return " * ".join([base, *occurrences])


def _non_simple_text(
    kind: str, rng: random.Random, variables: tuple[str, ...], occurrences: list[str]
) -> str:
    tail = "".join(f" * {v}" for v in occurrences)
    if kind == "or_under_star":
        left, right = rng.sample(BASES, 2)
        return f"({left} \\/ {right}){tail}"
    if kind == "exists":
        return f"EX x. 1 |-> x{tail}"
    v, w = rng.sample(variables, 2)
    return f"({v} /\\ {w}) * {rng.choice(BASES)}{tail}"


def gate_input(rng: random.Random) -> GateInput:
    """One implication: 1-3 conjuncts, 1-3 disjuncts, 2-4 variables.

    Each clause draws a base from BASES and a multiplicity 0-3 for every
    variable.  A NON_SIMPLE_SHARE of inputs rewrites one clause on a random
    side into a non-simple shape.
    """
    variables = VARIABLES[: rng.randint(2, 4)]
    conjuncts = [_clause(rng, variables) for _ in range(rng.randint(1, 3))]
    disjuncts = [_clause(rng, variables) for _ in range(rng.randint(1, 3))]
    lhs = [_clause_text(b, occ) for b, occ in conjuncts]
    rhs = [_clause_text(b, occ) for b, occ in disjuncts]
    kind = "simple"
    if rng.random() < NON_SIMPLE_SHARE:
        kind = rng.choice(NON_SIMPLE_KINDS)
        side, source = (lhs, conjuncts) if rng.random() < 0.5 else (rhs, disjuncts)
        index = rng.randrange(len(side))
        side[index] = _non_simple_text(kind, rng, variables, source[index][1])
    return GateInput(" /\\ ".join(lhs), " \\/ ".join(rhs), variables, kind)


def gate_pool() -> list[GateInput]:
    """The fixed pool every gate and search sample is drawn from."""
    rng = random.Random(POOL_SEED)
    return [gate_input(rng) for _ in range(POOL_SIZE)]


def sample_indices(seed: int, label: str, population: int, k: int) -> list[int]:
    """A seeded sample of k distinct indices below `population`, in run order."""
    return random.Random(f"{label}:{seed}").sample(range(population), k)


def stratified_sample(seed: int, label: str, strata: list[list], per: int) -> list:
    """`per` distinct members of every stratum, shuffled into one run order.

    Every seed then draws the same mix of strata, so the cost of a pass
    depends on the seed far less than with a plain sample.
    """
    rng = random.Random(f"{label}:{seed}")
    out = [member for stratum in strata for member in rng.sample(stratum, per)]
    rng.shuffle(out)
    return out


# --- counter.scn variants -----------------------------------------------------

# The coupling relations of counter.scn are written over -2..2, so the value
# domains stay inside that range; a domain reaching 2 is where inc falls off
# the encoding (see CounterVariant.expected).
COUNTER_DOMAINS = (
    (0,), (1,), (0, 1), (-1, 0), (-1, 0, 1), (0, 1, 2), (-2, -1, 0),
    (-1, 0, 1, 2), (-2, -1, 0, 1), (-2, -1, 0, 1, 2),
)
COUNTER_LOCS = (1, 2, 3)
COUNTER_MAX_STEPS = 3


@dataclass(frozen=True)
class CounterVariant:
    """counter.scn with client ``init; inc^k; nxt; dec^j; fin``."""

    incs: int
    decs: int
    values: tuple[int, ...]
    locs: int

    @property
    def label(self) -> str:
        vals = ",".join(str(v) for v in self.values)
        return f"counter-k{self.incs}-j{self.decs}-vals{vals}-locs{self.locs}"

    def expected(self) -> tuple[bool, str | None]:
        """Known 2-validity answer: (ok, failing context triple or None).

        Context triples are checked in file order before the client, on the
        coupling pairs whose cells lie in the domain.  inc maps the stage-one
        pair (v, v) to (v+1, v+1), which leaves the -2..2 coupling exactly
        when 2 is in the domain.  dec maps the stage-two pair (v, -v) to
        (v-1, -v+1), which leaves it only for v = -2, and that pair needs 2
        in the domain as well, so inc fails first.  The client starts
        anywhere in the domain, resets to 0 and ends holding k-j on both
        sides, which must lie in the domain for the postcondition 1|->_.
        """
        if 2 in self.values:
            return False, "inc"
        return (self.incs - self.decs) in self.values, None


def counter_variants(seed: int) -> list[CounterVariant]:
    """The variants of one prove pass, in run order.

    Every variant with 1 or 2 locations is included: 320 of them, 1-30 ms
    each, so the median query does not depend on the seed.  With 3
    locations a variant costs up to 0.7 s, so the seed draws one passing
    and one failing variant per domain (two failing where the domain
    reaches 2 and none passes); a violation ends the check early, so the
    known answer is part of a variant's cost.
    """
    rng = random.Random(f"prove:{seed}")
    steps = range(COUNTER_MAX_STEPS + 1)
    out = []
    for values, locs in product(COUNTER_DOMAINS, COUNTER_LOCS):
        group = [CounterVariant(k, j, values, locs) for k, j in product(steps, steps)]
        if locs < max(COUNTER_LOCS):
            out += group
            continue
        passing = [v for v in group if v.expected()[0]]
        failing = [v for v in group if not v.expected()[0]]
        out += rng.sample(passing, 1) + rng.sample(failing, 1) if passing else rng.sample(failing, 2)
    rng.shuffle(out)
    return out


def counter_variant_text(template: str, variant: CounterVariant) -> str:
    """Rewrite counter.scn's client and proof sections for the variant."""
    steps = ["init", *["inc"] * variant.incs, "nxt", *["dec"] * variant.decs, "fin"]
    posts = {"init": "a", "inc": "a", "nxt": "b", "dec": "b", "fin": "1|->_"}
    proof = ["  {1|->_}"]
    for step in steps:
        proof += [f"  {step}", f"  {{{posts[step]}}}"]
    head, _, _ = template.partition("\nclient:")
    return (
        f"{head}\nclient: {'; '.join(steps)}\npre: 1|->_\npost: 1|->_\n"
        "proof:\n" + "\n".join(proof) + "\n"
    )
