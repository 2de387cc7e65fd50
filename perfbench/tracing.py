"""Traced mode: wrappers around each layer's public functions, and span analysis.

Only the traced run installs these wrappers, and only around its traced
rounds; timed runs never see them.  Each wrapper is patched onto the
module or class attribute its callers resolve it through and opens a
``bench.*`` span with :func:`repro.obs.span`, so the benchmark's spans
and the spans the program already emits (``build``, ``emulator.phase``,
``spanner.phase``, ``serve.single_source``, ``live.*``) nest in one tree
through their ``parent_id``.  Spans are collected in memory with
:func:`repro.obs.capture_spans` and written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import build_name

PHASE_SPANS = ("emulator.phase", "spanner.phase")


class Tracer:
    """Installs and removes the layer wrappers of the traced run."""

    def __init__(self, repro) -> None:
        self.repro = repro
        self.obs = repro.obs
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        import repro.analysis.validation as validation
        import repro.core.fast_centralized as fast_centralized
        import repro.core.spanner as core_spanner
        import repro.distributed.emulator_congest as emulator_congest
        import repro.distributed.spanner_congest as spanner_congest
        import repro.graphs.csr as csr
        import repro.graphs.generators as generators
        import repro.graphs.kernels as kernels
        import repro.serve.oracles as oracles
        import repro.serve.service as service
        import repro.serve.workloads as serve_workloads
        from repro.api.result import BuildResultAdapter
        from repro.serve.engine import QueryEngine
        from repro.serve.live import LiveEngine

        repro = self.repro
        span = self.obs.span
        kappa_of_n = repro.ultra_sparse_kappa

        def plain(name: str):
            def make(fn):
                def wrapper(*args, **kwargs):
                    with span(name):
                        return fn(*args, **kwargs)
                return wrapper
            return make

        def build(fn):
            def wrapper(graph, spec=None, **params):
                if spec is None:
                    spec = repro.BuildSpec(**params)
                elif params:
                    spec = spec.replace(**params)
                name = build_name(spec.product, spec.method, spec.kappa,
                                  graph.num_vertices, kappa_of_n)
                with span("bench.api.build", build=name) as sp:
                    result = fn(graph, spec)
                    raw = result.raw
                    sp.set(rounds=getattr(raw, "rounds", 0) or 0,
                           messages=getattr(raw, "messages", 0) or 0)
                    return result
            return wrapper

        def verify(fn):
            def wrapper(self, graph, **kwargs):
                name = build_name(self.spec.product, self.spec.method, self.spec.kappa,
                                  graph.num_vertices, kappa_of_n)
                with span("bench.analysis.verify", build=name):
                    return fn(self, graph, **kwargs)
            return wrapper

        def batched(fn):
            def wrapper(*args, **kwargs):
                # The generator is drained inside the span, so the span holds
                # the kernel work rather than the generator's creation.
                with span("bench.kernels.batched_bfs") as sp:
                    maps = list(fn(*args, **kwargs))
                    sp.set(entries=sum(len(m) for m in maps), sources=len(maps))
                return iter(maps)
            return wrapper

        def single_source(fn):
            def wrapper(self, source):
                with span("bench.oracle.single_source") as sp:
                    dist = fn(self, source)
                    sp.set(entries=len(dist))
                    return dist
            return wrapper

        def query_batch(fn):
            def wrapper(self, pairs, **kwargs):
                before = (self.cache_hits, self.cache_misses, self.cache_evictions)
                with span("bench.serve.query_batch") as sp:
                    out = fn(self, pairs, **kwargs)
                    sp.set(hits=self.cache_hits - before[0],
                           misses=self.cache_misses - before[1],
                           evictions=self.cache_evictions - before[2])
                    return out
            return wrapper

        def apply(fn):
            def wrapper(self, mutation):
                before = (self.rebuilds, self.forced_rebuilds, self.repair_fallbacks,
                          self.incremental_repairs)
                with span("bench.live.apply") as sp:
                    out = fn(self, mutation)
                    sp.set(rebuilds=self.rebuilds - before[0],
                           forced=self.forced_rebuilds - before[1],
                           repair_fallbacks=self.repair_fallbacks - before[2],
                           repairs=self.incremental_repairs - before[3])
                    return out
            return wrapper

        ruling = plain("bench.ruling_sets.greedy")
        detect = plain("bench.congest.detect_popular")
        self._patch(generators, "gnm_random_graph", plain("bench.generators.graph"))
        self._patch(generators, "grid_graph", plain("bench.generators.graph"))
        self._patch(csr.CSRGraph, "from_graph", plain("bench.csr.compile"))
        self._patch(repro.serve, "load", plain("bench.serve.load"))
        self._patch(service, "load", plain("bench.serve.load"))
        self._patch(serve_workloads, "generate_queries", plain("bench.serve.workload"))
        self._patch(repro, "build", build)
        self._patch(oracles, "facade_build", build)
        self._patch(BuildResultAdapter, "verify", verify)
        self._patch(validation, "bfs_distances", plain("bench.analysis.graph_bfs"))
        self._patch(repro.WeightedGraph, "dijkstra", plain("bench.graphs.dijkstra"))
        self._patch(kernels, "batched_bfs", batched)
        for module in (fast_centralized, core_spanner, emulator_congest, spanner_congest):
            self._patch(module, "greedy_ruling_set", ruling)
        for module in (emulator_congest, spanner_congest):
            self._patch(module, "detect_popular_clusters", detect)
        self._patch(oracles.OracleBackend, "single_source", single_source)
        self._patch(QueryEngine, "query_batch", query_batch)
        self._patch(LiveEngine, "query_batch_tagged", plain("bench.live.query_batch_tagged"))
        self._patch(LiveEngine, "apply", apply)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def freeze(spans) -> List[Dict[str, Any]]:
    """Plain-dict copies of span records (what the trace file holds)."""
    return [
        {"name": s.name, "id": s.span_id, "parent": s.parent_id,
         "start_unix": s.start_unix, "duration_s": s.duration_s,
         "thread": s.thread_name, "attrs": {k: _plain(v) for k, v in s.attrs.items()}}
        for s in spans
    ]


def _plain(value: Any) -> Any:
    return value if isinstance(value, (int, float, str, bool, type(None))) else repr(value)


class SpanTree:
    """Parent/child index over a list of frozen spans."""

    def __init__(self, spans: List[Dict[str, Any]]) -> None:
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.child_time: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] in self.by_id:
                self.child_time[s["parent"]] += s["duration_s"]

    def self_time(self, s: Dict[str, Any]) -> float:
        return max(0.0, s["duration_s"] - self.child_time.get(s["id"], 0.0))

    def roots(self) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["parent"] not in self.by_id]

    def ancestor(self, s: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
        parent = self.by_id.get(s["parent"])
        while parent is not None:
            if parent["name"] == name:
                return parent
            parent = self.by_id.get(parent["parent"])
        return None

    def self_table(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, total self time)``."""
        table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            row = table[s["name"]]
            row[0] += 1
            row[1] += self.self_time(s)
        return {name: (int(c), t) for name, (c, t) in table.items()}

    def total(self, name: str, attr: Optional[str] = None, **match: Any) -> float:
        """Sum of durations (or of attribute ``attr``) over spans called ``name``."""
        out = 0.0
        for s in self.spans:
            if s["name"] != name or any(s["attrs"].get(k) != v for k, v in match.items()):
                continue
            out += float(s["attrs"].get(attr, 0) or 0) if attr else s["duration_s"]
        return out

    def durations(self, name: str) -> List[float]:
        return [s["duration_s"] for s in self.spans if s["name"] == name]


def setup_metrics(tree: SpanTree, import_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced set-up."""
    return {
        "import.repro_s": import_s,
        "generators.graph_s": tree.total("bench.generators.graph"),
        "csr.compile_s": tree.total("bench.csr.compile"),
        "serve.load_s": tree.total("bench.serve.load"),
        "serve.workload_s": tree.total("bench.serve.workload"),
    }


def round_metrics(tree: SpanTree, rounds: int) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds, as means per round.

    Builds and phases are named after the builds the rounds ran (see
    :func:`workloads.build_name`); only phases that held clusters get a
    ``core.phase_s`` entry.
    """
    r = float(max(1, rounds))
    out: Dict[str, float] = defaultdict(float)
    for s in tree.spans:
        if s["name"] == "bench.api.build":
            out[f"api.build_s.{s['attrs']['build']}"] += s["duration_s"] / r
        elif s["name"] == "bench.analysis.verify":
            out[f"analysis.verify_s.{s['attrs']['build']}"] += s["duration_s"] / r
        elif s["name"] in PHASE_SPANS:
            owner = tree.ancestor(s, "bench.api.build")
            build = owner["attrs"]["build"] if owner else "unowned"
            attrs = s["attrs"]
            out["kernels.passes"] += float(attrs.get("batched_passes", 0) or 0) / r
            out[f"core.centers_explored.{build}"] += (
                float(attrs.get("centers_explored", 0) or 0) / r)
            if attrs.get("clusters", 0):
                out[f"core.phase_s.{build}.{int(attrs.get('phase', -1))}"] += (
                    tree.self_time(s) / r)
    out["kernels.batched_bfs_s"] = tree.total("bench.kernels.batched_bfs") / r
    out["kernels.entries"] = tree.total("bench.kernels.batched_bfs", "entries") / r
    out["ruling_sets.greedy_s"] = tree.total("bench.ruling_sets.greedy") / r
    out["congest.detect_popular_s"] = tree.total("bench.congest.detect_popular") / r
    out["congest.rounds"] = tree.total("bench.api.build", "rounds") / r
    out["congest.messages"] = tree.total("bench.api.build", "messages") / r
    out["analysis.sources"] = len(tree.durations("bench.analysis.graph_bfs")) / r
    hits = tree.total("bench.serve.query_batch", "hits")
    misses = tree.total("bench.serve.query_batch", "misses")
    out["serve.hits"] = hits / r
    out["serve.misses"] = misses / r
    out["serve.evictions"] = tree.total("bench.serve.query_batch", "evictions") / r
    out["serve.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    calls = tree.durations("bench.oracle.single_source")
    out["oracle.single_source_ms"] = 1000.0 * statistics.median(calls) if calls else 0.0
    out["oracle.entries"] = tree.total("bench.oracle.single_source", "entries") / r
    out["live.apply_s"] = tree.total("bench.live.apply") / r
    out["live.build_s"] = tree.total("live.build") / r
    out["live.repair_s"] = tree.total("live.repair") / r
    out["live.swap_s"] = tree.total("live.swap") / r
    for key, attr in (("live.rebuilds", "rebuilds"), ("live.forced", "forced"),
                      ("live.repair_fallbacks", "repair_fallbacks"), ("live.repairs", "repairs")):
        out[key] = tree.total("bench.live.apply", attr) / r
    return dict(out)


def write_trace(path: str, spans: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans}, fh)
