"""Record the reference verdicts of the generated-implication pool.

    python3 perfbench/record_reference.py

Writes reference/gate.txt (the digest of every pool member's chk verdict
text) and reference/search.txt (the digest of the arity-1 find_counter_env
verdict text, default budget, for the search-eligible members).  The files
in the repository were recorded with seplift as of the commit that added the
benchmark; re-record only when a verdict change is intended, and say so.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from seplift import lifting, semantics, syntax  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pool = gen.gate_pool()
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(workloads.REFERENCE_DIR / "gate.txt", "w", encoding="utf-8") as fh:
        for index, q in enumerate(pool):
            report = lifting.chk(syntax.parse(q.lhs, q.avars), syntax.parse(q.rhs, q.avars))
            fh.write(f"{index} {workloads.digest(workloads.chk_text(report))}\n")
    with open(workloads.REFERENCE_DIR / "search.txt", "w", encoding="utf-8") as fh:
        for index in workloads.search_pool_indices(pool):
            q = pool[index]
            lhs, rhs = syntax.parse(q.lhs, q.avars), syntax.parse(q.rhs, q.avars)
            result = semantics.find_counter_env(lhs, rhs, {}, 1)
            fh.write(f"{index} {workloads.digest(workloads.search_text(result))}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
