"""Benchmark runner for seplift.

    python3 perfbench/run.py --workload gate|search|prove|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload's whole query
stream in a fresh worker process (perfbench/worker.py), so the process-global
caches and the heap bit registry start empty and no query repeats inside a
process; passes repeat until S seconds have gone, and the runner reports
each query's interquartile mean time over the passes.  Set-up time is also
sampled by import-only processes, two at the start and one before every
pass.

With --trace 0 the last line is a JSON object with the end-to-end metrics;
with --trace 1 untraced and traced passes alternate and the metrics are the
per-layer ones.  `--workload all` runs the three workloads one after the
other and prints one JSON line for each.  Every verdict is checked against a known answer.  See
README.md for the workloads, the metrics and the known defect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

WORKLOADS = ("gate", "search", "prove")
SETUP_PROBES = 2  # import-only processes at the start, after one untimed warm-up
MIN_PASSES = 3  # untraced passes per --trace 0 run, even past --seconds
RUN_LIMIT_S = 150.0  # start no pass that would likely end after this
PASS_TIMEOUT_S = 160.0
TAIL_BEYOND = 10  # queries that must lie beyond the tail percentile


class PassFailed(RuntimeError):
    pass


def spawn(options: dict, timeout: float) -> dict:
    """Run one worker process and return the JSON object it printed last."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    options = dict(options, spawned_at=time.perf_counter())
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(options)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    base = {"workload": workload, "seed": seed, "out_dir": str(OUT_DIR)}
    spawn(dict(base, setup_only=True), PASS_TIMEOUT_S)  # warm the bytecode cache
    setups = [
        spawn(dict(base, setup_only=True), PASS_TIMEOUT_S)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    plain, traced, durations = [], [], []
    measuring = time.perf_counter()
    while True:
        done = len(plain) >= (1 if trace else MIN_PASSES) and (not trace or traced)
        if done:
            # Stop before a pass that would end past --seconds, or past the
            # hard limit of one run.
            typical = statistics.median(durations)
            if time.perf_counter() - measuring + typical > seconds:
                break
            if time.perf_counter() - started + max(durations) > RUN_LIMIT_S:
                break
        use_trace = trace and len(traced) < len(plain)
        # One more import-only probe per pass spreads set-up samples over
        # the whole run.
        setups.append(spawn(dict(base, setup_only=True), PASS_TIMEOUT_S)["setup_s"])
        t0 = time.perf_counter()
        result = spawn(
            dict(base, trace=use_trace, records=not plain and not use_trace),
            PASS_TIMEOUT_S,
        )
        durations.append(time.perf_counter() - t0)
        (traced if use_trace else plain).append(result)
        setups.append(result["setup_s"])
    return {"setups": setups, "plain": plain, "traced": traced}


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def tail_rank(count: int) -> tuple[int, float]:
    """Index into sorted times of the highest percentile with 10 queries beyond."""
    index = max(count - TAIL_BEYOND - 1, 0)
    return index, 100.0 * (index + 1) / count


def interquartile_mean(values) -> float:
    """Mean of the values left after dropping a quarter at each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def query_times(passes: list[dict]) -> dict[str, float]:
    """p50, tail and tail percentile of per-query interquartile means.

    Each query runs once per pass, in a fresh process each time.  On a
    shared host most of the noise is a whole pass running fast or slow, so
    a query's time should use every pass: with three passes, simulated from
    recorded pass times, the run-to-run spread of the search tail was 1.8
    times larger with the median than with the mean.  A stall can still hit
    one query in one pass.  On `gate`, with about eight passes of sub-ms
    queries, one run in ten put the tail of plain means 60% above the
    median of the ten.  The interquartile mean drops a quarter of the
    passes at each end: with fewer than four passes it is the mean, and
    with eight it ignores two stalls of a query.
    """
    per_query = sorted(
        interquartile_mean(times) for times in zip(*(p["times_ms"] for p in passes))
    )
    index, percentile = tail_rank(len(per_query))
    return {
        "verdict_ms_p50": statistics.median(per_query),
        "verdict_ms_tail": per_query[index],
        "tail_percentile": percentile,
    }


def summarize(workload: str, seed: int, trace: bool, data: dict) -> dict:
    passes = data["plain"] + data["traced"]
    attempted = sum(p["queries"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    defects = sorted({d["id"] for p in passes for d in p["known_defects"]})
    plain = data["plain"]
    walls = [p["wall_s"] for p in plain]
    first = plain[0]
    times = query_times(plain)
    failed_share = len(failures) / attempted
    print(
        f"# {workload} seed={seed}: {len(plain)} untraced + {len(data['traced'])} traced "
        f"passes of {first['queries']} queries; wall_s per pass "
        f"{', '.join(f'{w:.3f}' for w in walls)}"
    )
    print(
        f"# verdict_ms_tail is p{times['tail_percentile']:.1f} of {first['queries']} per-query "
        f"interquartile means over {len(plain)} passes ({TAIL_BEYOND} beyond it); failed_share "
        f"{failed_share:.6f} = {len(failures)}/{attempted}"
    )
    for d in defects:
        print(f"# known defect {d}: verdict differs from the true answer")
    for f in failures[:20]:
        print(f"# FAILED {f['id']}: {f['reason']}")
    if trace:
        for name, (calls, seconds) in data["traced"][0]["leaves"].items():
            print(f"# leaf {name}: {calls} calls, {seconds * 1000.0:.1f} ms inclusive")
        metrics = {
            name: statistics.median(p["layers"][name] for p in data["traced"])
            for name in data["traced"][0]["layers"]
        }
        metrics["trace.overhead_s"] = median_of(data["traced"], "wall_s") - median_of(plain, "wall_s")
    else:
        metrics = {
            "setup_s": statistics.median(data["setups"]),
            "wall_s": statistics.fmean(walls),
            "verdict_ms_p50": times["verdict_ms_p50"],
            "verdict_ms_tail": times["verdict_ms_tail"],
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "ok_share": 1.0 - failed_share,
        }
    units = unit_table(trace)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def unit_table(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seplift" / "__init__.py").is_file():
        print(f"error: no seplift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            data = measure(workload, args.seed, args.seconds, bool(args.trace))
        except (PassFailed, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summarize(workload, args.seed, bool(args.trace), data)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
