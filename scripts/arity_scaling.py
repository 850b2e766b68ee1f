#!/usr/bin/env python3
r"""How many copies of a variable buy how much arity.

For the implication  1|->_ /\ a^k * b  |=  1|->_ * a \/ 1|->_ * b  (with k
occurrences of `a` in the second conjunct), counterexample environments exist
exactly above arity k: the left side can split the pinned cell across k+1
relation components, which no disjunct can reassemble.  The script searches
arities 1..k+1 for each multiplicity and prints the frontier it finds, along
with the arity-independent condition check (which fails for every k: validity
at each fixed arity is not validity for parametric reasons).
"""

import argparse
import time

from seplift.catalog import make_form
from seplift.normalize import implication_assertions
from seplift.semantics import SearchBudget, find_counter_env, pc_check


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-multiplicity", type=int, default=2)
    parser.add_argument("--locs", type=int, default=3)
    parser.add_argument("--gens", type=int, default=3)
    args = parser.parse_args()

    for k in range(1, args.max_multiplicity + 1):
        form = make_form(
            [("1|->_", ""), ("true", " ".join(["a"] * k + ["b"]))],
            [("1|->_", "a"), ("1|->_", "b")],
        )
        lhs, rhs = implication_assertions(form)
        budget = SearchBudget(max_loc=args.locs, max_generators=max(args.gens, k + 1))
        print(f"multiplicity k={k}:")
        for arity in range(1, k + 2):
            start = time.time()
            found = find_counter_env(lhs, rhs, {}, arity, budget)
            elapsed = time.time() - start
            if found is None:
                print(f"  arity {arity}: no counterexample in budget ({elapsed:.1f}s)")
            else:
                rho = ", ".join(f"{n} -> {r}" for n, r in found.rho.items())
                print(f"  arity {arity}: refuted ({elapsed:.1f}s) by {rho}")
        verdict = pc_check(form, {}, budget)
        print(f"  arity-independent condition: {verdict.describe()}")


if __name__ == "__main__":
    main()
