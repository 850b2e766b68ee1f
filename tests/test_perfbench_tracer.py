"""The benchmark's tracer still fits the package.

perfbench/tracing.py wraps package functions by their module bindings and
reads process-global counters.  A change to the package that breaks a traced
run should fail here, not only when the benchmark runs.
"""

import importlib.util
import json
import pathlib

from seplift.catalog import CURATED_SUITE
from seplift.normalize import implication_assertions
from seplift.semantics import DEFAULT_BUDGET, find_counter_env, pc_check

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_search_yields_every_per_layer_metric():
    tracing = _load_tracing()
    form = next(e.form for e in CURATED_SUITE if e.name == "fan")
    lhs, rhs = implication_assertions(form)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the traced functions are reached through the module bindings
        from seplift import semantics

        found = semantics.find_counter_env(lhs, rhs, None, 2, DEFAULT_BUDGET)
        verdict = semantics.pc_check(form, None, DEFAULT_BUDGET)
        counters = tracing.process_counters(tracer)
    finally:
        tracer.uninstall()
    # uninstall restored the original bindings
    assert semantics.find_counter_env is find_counter_env
    assert semantics.pc_check is pc_check
    assert found is not None and not verdict.holds

    metrics = tracing.layer_metrics(tracer, counters)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in benchmark["per_layer"]} - {"trace.overhead_s"}
    assert set(metrics) == expected
    assert metrics["semantics.find_counter_env.calls"] == 1
    assert metrics["semantics.pc_check.combinations"] == verdict.combinations_checked
