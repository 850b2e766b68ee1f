"""Tracing of seplift's public functions from outside the package.

The tracer replaces functions without editing the package: every module binding
that holds the original function object is rebound to a wrapper, because
``from x import f`` copies the binding and wrapping only the defining module
would miss those callers.  ``uninstall`` restores every binding.

Two kinds of wrapper share one clock:

* span wrappers record (name, start, end, parent span, query id) into flat
  arrays kept in memory, written out with ``write_spans`` when the run ends;
* leaf wrappers, for heap and relation operations called far more than 10^5
  times, keep a call count and aggregate inclusive time instead of spans.

Self time of a span is its duration minus the time covered by its child
spans; ``self_times`` computes it from the arrays alone.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

# Public functions traced with spans: (defining module, attribute).
SPAN_FUNCTIONS = (
    ("syntax", "parse"),
    ("scenarios", "parse_scenario"),
    ("scenarios", "build_annotated_proof"),
    ("normalize", "to_simple"),
    ("normalize", "reduce_implication"),
    ("layout", "compute_layout"),
    ("lifting", "lift_check"),
    ("lifting", "chk"),
    ("lifting", "witness_search"),
    ("lifting", "verify_package"),
    ("semantics", "find_counter_env"),
    ("semantics", "candidate_relations"),
    ("semantics", "pc_check"),
    ("semantics", "interpret"),
    ("semantics", "bounded_heaps"),
    ("hoare", "check_proof"),
    ("hoare", "two_validity_test"),
    ("hoare", "exec_command"),
)

# Span names whose arguments and results feed a per-layer metric.
OBSERVED = (
    "normalize.reduce_implication",
    "lifting.lift_check",
    "lifting.witness_search",
    "semantics.find_counter_env",
    "semantics.pc_check",
    "hoare.two_validity_test",
)

# Leaf operations traced with counts and aggregate time only.
LEAF_FUNCTIONS = (
    ("heap", "compose"),
    ("relations", "member"),
)

QUERY_SPAN = "query"


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "seplift" or name.startswith("seplift."))
    ]


class Tracer:
    """Span and counter recorder for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.name_ids = array("l")
        self.query_ids = array("l")
        self._stack: list[int] = []
        self.query_id = -1
        self.leaf_calls: Counter[str] = Counter()
        self.leaf_seconds: defaultdict[str, float] = defaultdict(float)
        # Span index -> (args, kwargs, result) for the OBSERVED functions,
        # whose arguments or results feed a per-layer metric.
        self.observed: dict[int, tuple] = {}
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn: Callable) -> Callable:
        """A wrapper of `fn` that records one span per call."""
        nid = self._name_id(name)
        observe = name in OBSERVED
        starts, ends, parents = self.starts, self.ends, self.parents
        name_ids, query_ids, stack = self.name_ids, self.query_ids, self._stack

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            query_ids.append(self.query_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe:
                self.observed[index] = (args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        """A wrapper of `fn` that only counts calls and sums their time."""
        calls, seconds = self.leaf_calls, self.leaf_seconds

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1

        counted.__wrapped__ = fn
        return counted

    # --- installation -------------------------------------------------------

    def _rebind(self, original: Callable, replacement: Callable) -> int:
        bound = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    bound += 1
        return bound

    def install(self) -> None:
        """Wrap SPAN_FUNCTIONS, LEAF_FUNCTIONS and Heap construction."""
        import seplift
        from seplift import heap

        for module, attr in SPAN_FUNCTIONS:
            original = getattr(getattr(seplift, module), attr)
            if not self._rebind(original, self.span(f"{module}.{attr}", original)):
                raise RuntimeError(f"no binding of {module}.{attr} to wrap")
        for module, attr in LEAF_FUNCTIONS:
            original = getattr(getattr(seplift, module), attr)
            self._rebind(original, self.leaf(f"{module}.{attr}", original))
        init = heap.Heap.__init__
        self._undo.append((heap.Heap, "__init__", init))
        heap.Heap.__init__ = self.leaf("heap.Heap", init)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # --- analysis -----------------------------------------------------------

    def spans_named(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name_ids) if n == nid]

    def has_ancestor(self, index: int, name: str) -> bool:
        nid = self._name_ids.get(name)
        parent = self.parents[index]
        while parent >= 0:
            if self.name_ids[parent] == nid:
                return True
            parent = self.parents[parent]
        return False

    def self_ms_by_name(self) -> dict[str, float]:
        totals: defaultdict[str, float] = defaultdict(float)
        for index, value in enumerate(self_times(self.starts, self.ends, self.parents)):
            totals[self.names[self.name_ids[index]]] += value * 1000.0
        return dict(totals)

    def calls_by_name(self) -> Counter[str]:
        return Counter(self.names[n] for n in self.name_ids)

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line into a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            origin = self.starts[0] if self.starts else 0.0
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.names[self.name_ids[i]]}\t"
                    f"{self.starts[i] - origin:.9f}\t{self.ends[i] - origin:.9f}\t"
                    f"{self.parents[i]}\t{self.query_ids[i]}\n"
                )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children may in principle overlap each other or stick out of the parent,
    so their intervals are clipped to the parent and merged before the
    covered length is subtracted.
    """
    children: defaultdict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index in range(len(starts)):
        start, end = starts[index], ends[index]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: starts[c]):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


# --- per-layer metrics -------------------------------------------------------------

RELATION_OPS = ("star", "meet", "union", "delta")
VERDICTS = ("shadow", "balloon", "lonely", "no_guarantee", "undecided")

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the
# same entries, and README.md maps each to the end-to-end metric it moves.
PER_LAYER = (
    ("syntax.parse.calls", "count", "lower"),
    ("syntax.parse.self_ms", "ms", "lower"),
    ("scenarios.parse_scenario.self_ms", "ms", "lower"),
    ("scenarios.build_annotated_proof.self_ms", "ms", "lower"),
    ("normalize.to_simple.self_ms", "ms", "lower"),
    ("normalize.reduce_implication.self_ms", "ms", "lower"),
    ("normalize.family_members", "count", "lower"),
    ("layout.compute_layout.calls", "count", "lower"),
    ("layout.compute_layout.self_ms", "ms", "lower"),
    ("lifting.lift_check.self_ms", "ms", "lower"),
    *((f"lifting.verdict.{v}", "count", "higher") for v in VERDICTS),
    ("lifting.witness_search.self_ms", "ms", "lower"),
    ("lifting.witness_search.unary_searches", "count", "lower"),
    ("lifting.witness_search.yield", "share", "higher"),
    ("lifting.verify_package.self_ms", "ms", "lower"),
    ("semantics.find_counter_env.calls", "count", "lower"),
    ("semantics.find_counter_env.self_ms", "ms", "lower"),
    ("semantics.find_counter_env.exhausted_share", "share", "lower"),
    ("semantics.env_space", "count", "lower"),
    ("semantics.candidate_relations.self_ms", "ms", "lower"),
    ("semantics.pc_check.self_ms", "ms", "lower"),
    ("semantics.pc_check.combinations", "count", "lower"),
    ("semantics.interpret.calls", "count", "lower"),
    ("semantics.interpret.self_ms", "ms", "lower"),
    ("semantics.bounded_heaps.self_ms", "ms", "lower"),
    *((f"relations.{op}.calls", "count", "lower") for op in RELATION_OPS),
    *((f"relations.{op}.hit_rate", "share", "higher") for op in RELATION_OPS),
    ("relations.member.calls", "count", "lower"),
    ("relations.cache_entries", "count", "lower"),
    ("heap.constructions", "count", "lower"),
    ("heap.compose.calls", "count", "lower"),
    ("heap.registry_cells", "count", "lower"),
    ("hoare.check_proof.self_ms", "ms", "lower"),
    ("hoare.consequence_gates", "count", "lower"),
    ("hoare.two_validity_test.self_ms", "ms", "lower"),
    ("hoare.pairs_checked", "count", "lower"),
    ("hoare.exec_command.calls", "count", "lower"),
    ("hoare.exec_command.self_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _bound_args(fn: Callable, observed: tuple) -> dict:
    args, kwargs, _ = observed
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def process_counters(tracer: Tracer) -> dict[str, float]:
    """Counters read from process-global state; call right after the stream."""
    from seplift import heap, relations

    out: dict[str, float] = {}
    entries = 0
    for op in RELATION_OPS:
        info = getattr(relations, op).cache_info()
        calls = info.hits + info.misses
        out[f"relations.{op}.calls"] = calls
        out[f"relations.{op}.hit_rate"] = info.hits / calls if calls else 0.0
        entries += info.currsize
    out["relations.cache_entries"] = entries
    out["relations.member.calls"] = tracer.leaf_calls["relations.member"]
    out["heap.constructions"] = tracer.leaf_calls["heap.Heap"]
    out["heap.compose.calls"] = tracer.leaf_calls["heap.compose"]
    out["heap.registry_cells"] = len(heap._CELL_BITS)
    return out


def layer_metrics(tracer: Tracer, counters: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, from one traced pass.

    Call after `uninstall`: the environment-space sizes are computed here, by
    the untraced program, outside the timed stream.
    """
    from seplift import semantics, syntax

    calls = tracer.calls_by_name()
    self_ms = tracer.self_ms_by_name()
    observed = tracer.observed
    out = dict(counters)

    for name in (
        "syntax.parse", "layout.compute_layout", "semantics.find_counter_env",
        "semantics.interpret", "hoare.exec_command",
    ):
        out[f"{name}.calls"] = calls[name]
    for name in (
        "syntax.parse", "scenarios.parse_scenario", "scenarios.build_annotated_proof",
        "normalize.to_simple", "normalize.reduce_implication", "layout.compute_layout",
        "lifting.lift_check", "lifting.witness_search", "lifting.verify_package",
        "semantics.find_counter_env", "semantics.candidate_relations",
        "semantics.pc_check", "semantics.interpret", "semantics.bounded_heaps",
        "hoare.check_proof", "hoare.two_validity_test", "hoare.exec_command",
    ):
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0)

    out["normalize.family_members"] = sum(
        len(observed[i][2]) for i in tracer.spans_named("normalize.reduce_implication")
    )
    verdicts = Counter()
    for i in tracer.spans_named("lifting.lift_check"):
        verdict = observed[i][2]
        verdicts[verdict.criterion if verdict.result == "lifts" else verdict.result] += 1
    for v in VERDICTS:
        out[f"lifting.verdict.{v}"] = verdicts[v]

    searches = tracer.spans_named("semantics.find_counter_env")
    search_args = {i: _bound_args(semantics.find_counter_env, observed[i]) for i in searches}
    unary = [
        i for i in searches
        if search_args[i]["n"] == 1 and tracer.has_ancestor(i, "lifting.witness_search")
    ]
    packages = sum(
        observed[i][2] is not None for i in tracer.spans_named("lifting.witness_search")
    )
    out["lifting.witness_search.unary_searches"] = len(unary)
    out["lifting.witness_search.yield"] = packages / len(unary) if unary else 0.0

    exhausted = [i for i in searches if observed[i][2] is None]
    out["semantics.find_counter_env.exhausted_share"] = (
        len(exhausted) / len(searches) if searches else 0.0
    )
    space_cache: dict[tuple, int] = {}
    env_space = 0
    for i in exhausted:
        a = search_args[i]
        num_vars = len(syntax.assertion_vars(a["lhs"]) | syntax.assertion_vars(a["rhs"]))
        key = (num_vars, a["n"], a["budget"])
        if key not in space_cache:
            space_cache[key] = semantics.env_candidate_count(*key)
        env_space += space_cache[key]
    out["semantics.env_space"] = env_space

    out["semantics.pc_check.combinations"] = sum(
        observed[i][2].combinations_checked for i in tracer.spans_named("semantics.pc_check")
    )
    out["hoare.consequence_gates"] = sum(
        tracer.has_ancestor(i, "hoare.check_proof") for i in tracer.spans_named("lifting.chk")
    )
    out["hoare.pairs_checked"] = sum(
        observed[i][2].pairs_checked for i in tracer.spans_named("hoare.two_validity_test")
    )
    out["trace.spans"] = len(tracer.starts)
    return out
