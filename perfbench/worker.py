"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py '<json options>'

The first statements import seplift from the checkout's src/ directory, so
the set-up time the pass reports (process spawn until ``import seplift`` has
finished) is what a command-line user pays.  Only then are the workload's
inputs built from the seed and the query stream run, optionally traced.  The
pass prints one JSON object as its last line of standard output.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import seplift  # noqa: E402

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_stream(queries, tracer):
    """Run every query once; return per-query (seconds, result, error) and wall."""
    outcomes = []
    clock = time.perf_counter
    stream_start = clock()
    for index, query in enumerate(queries):
        run = query.run
        if tracer is not None:
            tracer.query_id = index
            run = tracer.span(tracing.QUERY_SPAN, run)
        start = clock()
        try:
            result, error = run(), None
        except Exception as exc:  # a raising query is a failed query, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((clock() - start, result, error))
    return outcomes, clock() - stream_start


def check_outcomes(queries, outcomes):
    failures, defects = [], []
    for query, (_, result, error) in zip(queries, outcomes):
        reason = error if error is not None else query.check(result)
        if reason is None:
            continue
        entry = {"id": query.qid, "reason": reason}
        (defects if query.known_defect and error is None else failures).append(entry)
    return failures, defects


def write_records(path: Path, queries, outcomes) -> None:
    """One JSON line per query: inputs (arity, budget, ...) and verdict text."""
    with open(path, "w", encoding="utf-8") as fh:
        for query, (_, result, error) in zip(queries, outcomes):
            verdict = error if error is not None else query.describe(result)
            fh.write(json.dumps({"id": query.qid, **query.inputs, "verdict": verdict},
                                sort_keys=True) + "\n")


def main() -> int:
    options = json.loads(sys.argv[1])
    setup_s = IMPORTED_AT - options["spawned_at"]
    if os.path.dirname(os.path.abspath(seplift.__file__)) != os.path.join(SRC, "seplift"):
        print(f"error: seplift imported from {seplift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if options.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = options["workload"]
    queries = workloads.build(workload, options["seed"])
    tracer = None
    if options["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        outcomes, wall_s = run_stream(queries, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        counters = tracing.process_counters(tracer)

    failures, defects = check_outcomes(queries, outcomes)
    out_dir = Path(options["out_dir"])
    if options.get("records"):
        write_records(out_dir / f"{workload}-queries.jsonl", queries, outcomes)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "times_ms": [seconds * 1000.0 for seconds, _, _ in outcomes],
        "queries": len(queries),
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "known_defects": defects,
    }
    if tracer is not None:
        tracer.write_spans(str(out_dir / f"{workload}-spans.tsv.gz"))
        result["layers"] = tracing.layer_metrics(tracer, counters)
        result["leaves"] = {
            name: [tracer.leaf_calls[name], tracer.leaf_seconds[name]]
            for name in sorted(tracer.leaf_calls)
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
