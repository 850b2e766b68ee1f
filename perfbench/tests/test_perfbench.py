"""Self-tests of the benchmark: seeded inputs, span arithmetic, failure counting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from seplift import hoare, lifting, scenarios, semantics  # noqa: E402


def _inputs(queries):
    return [(q.qid, json.dumps(q.inputs, sort_keys=True)) for q in queries]


# --- seeded inputs --------------------------------------------------------------


def test_pool_is_fixed():
    assert gen.gate_pool()[:50] == gen.gate_pool()[:50]
    assert len(gen.gate_pool()) == gen.POOL_SIZE


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fixed_seed_generates_identical_inputs(workload):
    first = _inputs(workloads.build(workload, 7))
    assert first == _inputs(workloads.build(workload, 7))
    assert first != _inputs(workloads.build(workload, 8))


def test_generator_covers_every_dimension():
    pool = gen.gate_pool()
    assert {q.kind for q in pool} == {"simple", *gen.NON_SIMPLE_KINDS}
    assert {len(q.avars) for q in pool} == {2, 3, 4}
    counts = {(q.lhs.count("/\\") + 1, q.rhs.count("\\/") + 1) for q in pool if q.kind == "simple"}
    assert counts == {(c, d) for c in (1, 2, 3) for d in (1, 2, 3)}


def test_no_query_repeats_inside_a_run():
    for workload in workloads.WORKLOADS:
        ids = [q.qid for q in workloads.build(workload, 3)]
        assert len(ids) == len(set(ids)), workload


def test_counter_variant_text_matches_the_file_for_one_step_each():
    template = (workloads.SCENARIO_DIR / "counter.scn").read_text()
    variant = gen.CounterVariant(1, 1, (-1, 0, 1), 3)
    rebuilt = scenarios.parse_scenario(gen.counter_variant_text(template, variant))
    original = scenarios.parse_scenario(template)
    assert rebuilt.client == original.client
    assert rebuilt.proof == original.proof


@pytest.mark.parametrize("variant", [
    gen.CounterVariant(2, 0, (0, 1), 1),
    gen.CounterVariant(0, 2, (0, 1), 1),
    gen.CounterVariant(1, 0, (0, 1, 2), 1),
    gen.CounterVariant(3, 1, (-2, -1, 0, 1), 1),
])
def test_counter_variant_rule_matches_the_program(variant):
    template = (workloads.SCENARIO_DIR / "counter.scn").read_text()
    query = workloads._scenario_query(
        "v", gen.counter_variant_text(template, variant), variant.values, variant.locs,
        (True, *variant.expected()),
    )
    assert query.check(query.run()) is None


# --- spans and self time --------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    # span 0 covers [0, 10]; children [1, 3] and [2, 4] overlap, [9, 12]
    # sticks out, so they cover [1, 4] and [9, 10]: 4 of 10.
    starts = [0.0, 1.0, 2.0, 9.0, 1.5]
    ends = [10.0, 3.0, 4.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    assert tracing.self_times(starts, ends, parents) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_tracer_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    outer = tracer.span("outer", lambda: [tracer.span("inner", inner)() for _ in range(3)])
    outer()
    self_ms = tracer.self_ms_by_name()
    total_ms = (tracer.ends[0] - tracer.starts[0]) * 1000.0
    assert tracer.calls_by_name() == {"outer": 1, "inner": 3}
    assert list(tracer.parents) == [-1, 0, 0, 0]
    assert self_ms["outer"] + self_ms["inner"] == pytest.approx(total_ms)
    assert 0.0 < self_ms["outer"] < total_ms


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = semantics.find_counter_env
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (semantics, lifting, hoare):
            assert module.find_counter_env.__wrapped__ is original
        assert hoare.exec_command.__wrapped__ is not None
        assert scenarios.parse_scenario.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for module in (semantics, lifting, hoare):
        assert module.find_counter_env is original
    assert not hasattr(hoare.exec_command, "__wrapped__")


def test_traced_stream_reports_every_per_layer_metric():
    queries = [q for q in workloads.build("search", 1) if "/witness/fan" in q.qid]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes, _ = worker.run_stream(queries, tracer)
    finally:
        tracer.uninstall()
    counters = tracing.process_counters(tracer)
    metrics = tracing.layer_metrics(tracer, counters)
    names = {name for name, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    assert set(metrics) == names
    assert metrics["lifting.witness_search.unary_searches"] >= 1
    assert 0.0 < metrics["lifting.witness_search.yield"] <= 1.0
    assert worker.check_outcomes(queries, outcomes) == ([], [])


# --- known answers and failure counting -------------------------------------------


def _summary(passes):
    data = {"setups": [0.1], "plain": passes, "traced": []}
    return run.summarize("gate", 0, False, data)


def test_a_wrong_verdict_counts_in_failed_share(monkeypatch, capsys):
    queries = [q for q in workloads.build("gate", 1) if q.qid.startswith("gate/curated/")]
    outcomes, _ = worker.run_stream(queries, None)
    assert worker.check_outcomes(queries, outcomes) == ([], [])

    real_chk = lifting.chk
    flipped = "gate/curated/fan"

    def wrong_chk(lhs, rhs):
        report = real_chk(lhs, rhs)
        return lifting.ChkReport(not report.ok, report.reason, report.members)

    monkeypatch.setattr(lifting, "chk", wrong_chk)
    target = [q for q in queries if q.qid == flipped]
    wrong, _ = worker.run_stream(target, None)
    monkeypatch.undo()
    failures, defects = worker.check_outcomes(target, wrong)
    assert [f["id"] for f in failures] == [flipped] and defects == []

    passes = [{
        "setup_s": 0.1, "wall_s": 1.0, "times_ms": [1.0] * len(queries),
        "queries": len(queries), "peak_rss_mb": 10.0,
        "failures": failures, "known_defects": [],
    }]
    summary = _summary(passes)
    assert summary["failed"] == 1 and summary["correct"] is False
    assert summary["metrics"]["ok_share"]["value"] == pytest.approx(1 - 1 / len(queries))
    assert f"FAILED {flipped}" in capsys.readouterr().out


def test_known_defect_is_named_not_hidden():
    query = workloads._known_defect_query()
    outcomes, _ = worker.run_stream([query], None)
    failures, defects = worker.check_outcomes([query], outcomes)
    assert failures == []
    # Either the defect is still present and named, or it has been fixed.
    assert defects == [] or defects[0]["id"] == workloads.KNOWN_DEFECT


def test_a_raising_known_defect_query_is_a_failure():
    query = workloads._known_defect_query()
    query.run = lambda: 1 / 0
    outcomes, _ = worker.run_stream([query], None)
    failures, defects = worker.check_outcomes([query], outcomes)
    assert [f["id"] for f in failures] == [workloads.KNOWN_DEFECT] and defects == []


# --- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    passes = [{
        "setup_s": 0.1, "wall_s": 1.0, "times_ms": [1.0] * 4,
        "queries": 4, "peak_rss_mb": 10.0,
        "failures": [], "known_defects": [],
    }]
    names = set(_summary(passes)["metrics"])
    assert names == {m["name"] for m in spec["end_to_end"]}


def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert run.interquartile_mean([26.0, 29.0, 35.0]) == pytest.approx(30.0)
    assert run.interquartile_mean([5.0, 1.0, 2.0, 3.0]) == pytest.approx(2.5)
    stalled = [1.0, 1.1, 0.9, 1.0, 9.0, 1.0, 1.1, 0.9]
    assert run.interquartile_mean(stalled) == pytest.approx(1.025)


def test_tail_is_taken_over_per_query_interquartile_means():
    index, pct = run.tail_rank(200)
    assert (index, pct) == (189, 95.0)
    assert 200 - (index + 1) == 10
    # With three passes each query's time is its mean over the passes.
    passes = [{"times_ms": [float(i) for i in range(40)]} for _ in range(3)]
    passes[0]["times_ms"][29] = 26.0
    passes[2]["times_ms"][29] = 35.0
    times = run.query_times(passes)
    assert (times["verdict_ms_p50"], times["verdict_ms_tail"]) == (19.5, 30.0)
    assert times["tail_percentile"] == 75.0
    # Query 0 stalls in one pass only: it becomes the slowest query, which
    # moves the tail by one rank, onto another of the 11 slow queries.
    passes = [{"times_ms": [1.0] * 19 + [50.0] * 11} for _ in range(3)]
    passes[1]["times_ms"][0] = 900.0
    times = run.query_times(passes)
    assert (times["verdict_ms_p50"], times["verdict_ms_tail"]) == (1.0, 50.0)
    assert times["tail_percentile"] == pytest.approx(200 / 3)
    # With eight passes, stalls that hit 11 queries once each leave the
    # tail on the queries that are slow in every pass.
    passes = [{"times_ms": [1.0] * 30 + [2.0] * 11} for _ in range(8)]
    for query in range(11):
        passes[query % 8]["times_ms"][query] = 40.0
    times = run.query_times(passes)
    assert (times["verdict_ms_p50"], times["verdict_ms_tail"]) == (1.0, 2.0)


def test_wall_s_is_the_mean_stream_time_over_passes():
    passes = [{
        "setup_s": 0.1, "wall_s": wall, "times_ms": [1.0] * 4,
        "queries": 4, "peak_rss_mb": 10.0, "failures": [], "known_defects": [],
    } for wall in (1.0, 2.0, 6.0)]
    assert _summary(passes)["metrics"]["wall_s"]["value"] == pytest.approx(3.0)
