"""The benchmark's four workloads.

Each workload has a ``setup`` (graph generation, CSR compile and, for
serving, ``serve.load`` plus the query and mutation streams), a
``prepare`` that computes the benchmark's own reference data outside
every timer, and ``run_round``, one whole round of timed operations
followed by the checks of their outputs.  Every round of a workload runs
the same operations, so the share of failed operations cannot depend on
how many rounds fit into a run.

The program only ever sees the generated graphs, query streams and
mutation streams; the seed stays here.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
import traceback
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks

#: Vertices, edges and generator seed of the ``G(n, m)`` random graph
#: (build-er, serve-*).  The graph is one fixed instance: the stretch of
#: the ultra-sparse emulator varies from one random graph to the next
#: by more than a regression gate can absorb (an interquartile range of
#: 8.5% of the median over ten graphs), so ``--seed`` varies everything
#: else instead.
ER_N = 10_000
ER_M = 3 * ER_N
ER_GRAPH_SEED = 1
#: Side of the 2-D grid (build-grid): 4096 vertices.
GRID_SIDE = 64
#: Pairs each ``BuildResult.verify`` call samples.
VERIFY_PAIRS = 64
#: Sources from which the benchmark checks every target of a build.
CHECK_SOURCES = 256
#: serve-uniform: pairs per request (distinct sources) and requests per round.
UNIFORM_PAIRS = 4
UNIFORM_REQUESTS = 50
#: serve-churn: pairs per request and requests per mutation batch; a
#: round is one pass over the four-batch mutation cycle.
CHURN_PAIRS = 8
CHURN_EVERY = 7
CHURN_REQUESTS = 4 * CHURN_EVERY
#: Rounds whose checked pairs make up ``stretch_mean``.  Serving rounds
#: check different pairs, so a mean over every round would depend on how
#: many rounds fit into the run, that is, on speed.
STRETCH_ROUNDS = 4
#: Rounds of distinct requests generated up front; later rounds reuse them
#: cyclically (64 rounds hold far more sources than the 256-entry memo).
STREAM_ROUNDS = 64

KINDS = ("build", "verify", "request", "mutation")


def build_name(product: str, method: str, kappa: Optional[float], n: int,
               ultra_sparse_kappa) -> str:
    """Short stable name of a build: ``emulator-fast-k4``, ``spanner-centralized-us``."""
    if kappa is not None and abs(kappa - ultra_sparse_kappa(max(2, n))) < 1e-9:
        tag = "us"
    elif kappa is None:
        tag = "default"
    else:
        tag = f"k{kappa:g}"
    return f"{product}-{method}-{tag}"


class Meter:
    """Times operations; counts attempts and failures per kind; keeps check results.

    Each timed operation belongs to a *slot* (by default its kind): the
    time a round spends in a slot is summed, and :meth:`work_s` adds up
    each slot's median over the rounds.  The build workloads give every
    build and every verify a slot of its own, so their ``work_s`` takes
    each of the eight operations at its median instead of a whole round
    at the median of two or three round totals.
    """

    def __init__(self) -> None:
        self.attempted = dict.fromkeys(KINDS, 0)
        self.failed = dict.fromkeys(KINDS, 0)
        self.latency: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        self.round_slots: List[Dict[str, float]] = []
        self.round_traced: List[bool] = []
        self.correct = True
        self.ratio_sum = 0.0
        self.ratio_count = 0
        self.messages: List[str] = []
        self._slots: Dict[str, float] = defaultdict(float)

    @property
    def round_work(self) -> List[float]:
        """Timed seconds of each round."""
        return [sum(slots.values()) for slots in self.round_slots]

    def work_s(self, traced: bool = False) -> float:
        """Sum over slots of the slot's median time over the (un)traced rounds."""
        rounds = [s for s, t in zip(self.round_slots, self.round_traced) if t == traced]
        names = {name for slots in rounds for name in slots}
        return sum(median([slots.get(name, 0.0) for slots in rounds]) for name in names)

    def begin_round(self) -> None:
        gc.collect()
        self._slots = defaultdict(float)

    def end_round(self, traced: bool = False) -> None:
        self.round_slots.append(dict(self._slots))
        self.round_traced.append(traced)

    def op(self, kind: str, fn, slot: Optional[str] = None) -> Any:
        """Run one timed operation; ``None`` when it raised (counted as failed)."""
        self.attempted[kind] += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing operation must not end the run
            self._slots[slot or kind] += time.perf_counter() - start
            traceback.print_exc()
            self._fail(kind, f"{kind} raised {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        self._slots[slot or kind] += elapsed
        self.latency[kind].append(elapsed)
        return out

    def skip(self, kind: str, why: str) -> None:
        """An operation that could not run because its input failed."""
        self.attempted[kind] += 1
        self._fail(kind, f"{kind} skipped: {why}")

    def judge(self, kind: str, problems: Sequence[str]) -> None:
        """Record the checks of one successful operation."""
        if problems:
            self.correct = False
            self._fail(kind, "; ".join(problems))

    def ratios(self, values: np.ndarray) -> None:
        if len(self.round_slots) >= STRETCH_ROUNDS:
            return
        self.ratio_sum += float(np.sum(values))
        self.ratio_count += int(values.size)

    def _fail(self, kind: str, message: str) -> None:
        self.failed[kind] += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def _graph_reference(graph) -> Tuple[Any, np.ndarray, Any]:
    """``(n, sorted edge keys, adjacency matrix)`` assembled from ``graph.edges()``."""
    n = graph.num_vertices
    u, v = checks.edge_arrays(graph.edges())
    return n, np.sort(checks.edge_keys(n, u, v)), checks.adjacency(n, u, v)


def _lookup(matrices: Dict[int, Any], needs: Dict[Tuple[int, int], set]) -> Dict[tuple, float]:
    """``d(state, source, target)`` for every needed triple, one scipy pass per chunk."""
    out: Dict[tuple, float] = {}
    by_state: Dict[int, List[int]] = defaultdict(list)
    for state, source in needs:
        by_state[state].append(source)
    for state, sources in by_state.items():
        sources.sort()
        for start in range(0, len(sources), checks.CHUNK):
            chunk = sources[start:start + checks.CHUNK]
            rows = checks.distances(matrices[state], chunk, unweighted=True)
            for i, source in enumerate(chunk):
                for target in needs[(state, source)]:
                    out[(state, source, target)] = float(rows[i, target])
    return out


# ----------------------------------------------------------------------
# build-er / build-grid
# ----------------------------------------------------------------------
class BuildWorkload:
    """Build several products on one graph and verify each."""

    def __init__(self, family: str) -> None:
        self.family = family

    def setup(self, repro, seed: int) -> Dict[str, Any]:
        if self.family == "er":
            graph = repro.generators.gnm_random_graph(ER_N, ER_M, seed=ER_GRAPH_SEED)
        else:
            graph = repro.generators.grid_graph(GRID_SIDE, GRID_SIDE)
        graph.csr()
        return {"repro": repro, "graph": graph, "seed": seed}

    def builds(self, repro, n: int) -> List[Tuple[str, str, float]]:
        """``(product, method, kappa)`` of the round's builds, in order."""
        us = repro.ultra_sparse_kappa(n)
        if self.family == "er":
            plan = [("emulator", "fast", 4.0), ("emulator", "fast", us),
                    ("emulator", "centralized", us), ("spanner", "fast", 4.0)]
        else:
            plan = [("emulator", "fast", us), ("emulator", "centralized", us),
                    ("spanner", "centralized", us), ("emulator", "congest", us)]
        return plan

    def prepare(self, state: Dict[str, Any]) -> None:
        graph, seed = state["graph"], state["seed"]
        n, keys, matrix = _graph_reference(graph)
        sources = sorted(random.Random(f"{seed}:check-sources").sample(range(n), CHECK_SOURCES))
        state.update(n=n, keys=keys, sources=sources,
                     d_g=checks.distances(matrix, sources, unweighted=True))
        repro = state["repro"]
        state["specs"] = [
            (build_name(p, m, k, n, repro.ultra_sparse_kappa),
             repro.BuildSpec(product=p, method=m, kappa=k, seed=seed))
            for p, m, k in self.builds(repro, n)
        ]

    def run_round(self, state: Dict[str, Any], meter: Meter, index: int) -> None:
        repro, graph = state["repro"], state["graph"]
        edges = 0
        for name, spec in state["specs"]:
            result = meter.op("build", lambda: repro.build(graph, spec), f"build {name}")
            if result is None:
                meter.skip("verify", f"{name} did not build")
                continue
            meter.judge("build", self._check(state, name, spec, result, meter))
            edges += result.size
            report = meter.op("verify", lambda: result.verify(graph, sample_pairs=VERIFY_PAIRS),
                              f"verify {name}")
            if report is not None:
                meter.judge("verify", [] if report.valid else [f"{name}: verify() reports invalid"])
        state["product_edges"] = edges

    def _check(self, state, name: str, spec, result, meter: Meter) -> List[str]:
        n = state["n"]
        u, v, w = checks.edge_arrays(result.edges, weighted=True)
        problems: List[str] = []
        if spec.product == "emulator":
            problems += checks.check_size(len(u), n, spec.kappa, name)
            problems += checks.check_positive_weights(w, name)
        else:
            problems += checks.check_subgraph(n, state["keys"], u, v, name)
        # A zero weight would read as a missing edge; the weight check reports it.
        product = checks.adjacency(n, u, v, np.maximum(w, 1e-300))
        sources, d_g = state["sources"], state["d_g"]
        for start in range(0, len(sources), checks.CHUNK):
            rows = slice(start, start + checks.CHUNK)
            d_h = checks.distances(product, sources[rows], unweighted=False)
            problems += checks.check_stretch(d_g[rows], d_h, result.alpha, result.beta, name)
            meter.ratios(checks.stretch_ratios(d_g[rows], d_h))
        return problems

    def product_edges(self, state: Dict[str, Any]) -> int:
        return int(state.get("product_edges", 0))

    def close(self, state: Dict[str, Any]) -> None:
        pass


# ----------------------------------------------------------------------
# serve-uniform
# ----------------------------------------------------------------------
def _group(pairs: Sequence[Tuple[int, int]], size: int, count: int) -> List[List[Tuple[int, int]]]:
    """Cut a pair stream into ``count`` requests of ``size`` pairs with distinct sources."""
    requests: List[List[Tuple[int, int]]] = []
    current: List[Tuple[int, int]] = []
    sources: set = set()
    for u, v in pairs:
        if u in sources:
            continue
        current.append((u, v))
        sources.add(u)
        if len(current) == size:
            requests.append(current)
            current, sources = [], set()
            if len(requests) == count:
                return requests
    raise RuntimeError("query stream too short for the requested rounds")


class UniformServeWorkload:
    """Uniform, distinct sources: nearly every source misses the memo."""

    def setup(self, repro, seed: int) -> Dict[str, Any]:
        graph = repro.generators.gnm_random_graph(ER_N, ER_M, seed=ER_GRAPH_SEED)
        graph.csr()
        spec = repro.ServeSpec.ultra_sparse(ER_N, seed=seed)
        engine = repro.serve.load(graph, spec)
        total = STREAM_ROUNDS * UNIFORM_REQUESTS * UNIFORM_PAIRS
        pairs = repro.serve.workloads.generate_queries(
            graph, "uniform", total + total // 4, seed=1_000_003 + seed)
        requests = _group(pairs, UNIFORM_PAIRS, STREAM_ROUNDS * UNIFORM_REQUESTS)
        return {"repro": repro, "graph": graph, "engine": engine, "seed": seed,
                "requests": requests}

    def prepare(self, state: Dict[str, Any]) -> None:
        n, _, matrix = _graph_reference(state["graph"])
        state.update(n=n, matrices={0: matrix})

    def round_requests(self, state, index: int) -> List[List[Tuple[int, int]]]:
        start = (index % STREAM_ROUNDS) * UNIFORM_REQUESTS
        return state["requests"][start:start + UNIFORM_REQUESTS]

    def run_round(self, state: Dict[str, Any], meter: Meter, index: int) -> None:
        engine = state["engine"]
        answered = []
        for request in self.round_requests(state, index):
            values = meter.op("request", lambda: engine.query_batch(request))
            if values is not None:
                answered.append((request, values))
        needs: Dict[Tuple[int, int], set] = defaultdict(set)
        for request, _ in answered:
            for u, v in request:
                needs[(0, u)].add(v)
        dist = _lookup(state["matrices"], needs)
        alpha, beta = engine.alpha, engine.beta
        for request, values in answered:
            d_g = [dist[(0, u, v)] for u, v in request]
            meter.judge("request", checks.check_answers(values, d_g, d_g, alpha, beta,
                                                        "serve-uniform answer"))
            meter.ratios(checks.stretch_ratios(np.array(d_g), np.array(values, dtype=float)))

    def product_edges(self, state: Dict[str, Any]) -> int:
        return int(state["engine"].space_in_edges)

    def close(self, state: Dict[str, Any]) -> None:
        state["engine"].close()


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------
class ChurnServeWorkload:
    """Zipf reads beside inline-rebuilt writes on a live oracle.

    A round applies four mutation batches, one after every
    ``CHURN_EVERY``-th request, and leaves the graph as it found it:

    1. insert two co-clustered non-edges (absorbed by incremental repair);
    2. insert one non-edge whose endpoints share no cluster (the repair
       falls back, forcing an inline rebuild);
    3. delete two graph edges that are weight-1 emulator edges (they touch
       the emulator's support, forcing a rebuild);
    4. re-insert those two edges and delete the three inserted ones (a
       mixed batch, so a forced rebuild of the original graph).
    """

    def setup(self, repro, seed: int) -> Dict[str, Any]:
        graph = repro.generators.gnm_random_graph(ER_N, ER_M, seed=ER_GRAPH_SEED)
        graph.csr()
        spec = repro.ServeSpec.ultra_sparse(ER_N, seed=seed, live=True, live_sync=True)
        live = repro.serve.load(graph, spec)
        total = STREAM_ROUNDS * CHURN_REQUESTS * CHURN_PAIRS
        pairs = repro.serve.workloads.generate_queries(
            graph, "zipf", total, seed=2_000_003 + seed)
        requests = [pairs[i:i + CHURN_PAIRS] for i in range(0, total, CHURN_PAIRS)]
        batches = self._mutations(repro, graph, live, random.Random(f"{seed}:mutations"))
        return {"repro": repro, "graph": graph, "live": live, "seed": seed,
                "requests": requests, "batches": batches}

    @staticmethod
    def _mutations(repro, graph, live, rng: random.Random):
        n = graph.num_vertices
        partitions = live.raw_result.partitions
        clusters = sorted((c for c in partitions[1] if len(c.members) >= 3),
                          key=lambda c: c.center)
        co_clustered: List[Tuple[int, int]] = []
        while len(co_clustered) < 2:
            members = sorted(rng.choice(clusters).members)
            u, v = sorted(rng.sample(members, 2))
            if not graph.has_edge(u, v) and (u, v) not in co_clustered:
                co_clustered.append((u, v))

        def shares_cluster(u: int, v: int) -> bool:
            for partition in partitions:
                cluster = partition.cluster_of_vertex(u)
                if cluster is not None and v in cluster.members:
                    return True
            return False

        while True:
            u, v = sorted(rng.sample(range(n), 2))
            if not graph.has_edge(u, v) and not shares_cluster(u, v):
                cross = [(u, v)]
                break
        support = sorted((min(a, b), max(a, b)) for a, b, w in live.oracle.emulator.edges()
                         if w <= 1.0 and graph.has_edge(a, b))
        deleted = sorted(rng.sample(support, 2))
        mutation = repro.serve.GraphMutation
        return [
            mutation(inserts=tuple(co_clustered)),
            mutation(inserts=tuple(cross)),
            mutation(deletes=tuple(deleted)),
            mutation(inserts=tuple(deleted), deletes=tuple(co_clustered + cross)),
        ]

    def prepare(self, state: Dict[str, Any]) -> None:
        """The mirror graph before each batch of a round, and the operations each applies."""
        graph = state["graph"]
        n = graph.num_vertices
        original = {(min(a, b), max(a, b)) for a, b in graph.edges()}
        edges = set(original)
        matrices = {}
        applied: List[int] = []
        for index, batch in enumerate(state["batches"]):
            u, v = checks.edge_arrays(sorted(edges))
            matrices[index] = checks.adjacency(n, u, v)
            count = 0
            for key in batch.inserts:
                if key not in edges:
                    edges.add(key)
                    count += 1
            for key in batch.deletes:
                if key in edges:
                    edges.remove(key)
                    count += 1
            applied.append(count)
        if edges != original:
            raise RuntimeError("the mutation batches of a round do not restore the graph")
        # Watermarks count applied operations; within a round the mirror
        # state before batch i sits at offset sum(applied[:i]).
        boundaries = [sum(applied[:i]) for i in range(len(applied))]
        state.update(n=n, matrices=matrices, applied=applied, boundaries=boundaries,
                     ops_per_round=sum(applied))

    def _state_of(self, state, watermark: int) -> Optional[int]:
        offset = watermark % state["ops_per_round"]
        try:
            return state["boundaries"].index(offset)
        except ValueError:
            return None

    def run_round(self, state: Dict[str, Any], meter: Meter, index: int) -> None:
        live = state["live"]
        start = (index % STREAM_ROUNDS) * CHURN_REQUESTS
        requests = state["requests"][start:start + CHURN_REQUESTS]
        answered = []
        now = 0
        for i, request in enumerate(requests):
            answer = meter.op("request", lambda: live.query_batch_tagged(request))
            if answer is not None:
                answered.append((request, answer, now))
            if (i + 1) % CHURN_EVERY == 0:
                batch = state["batches"][now]
                receipt = meter.op("mutation", lambda: live.apply(batch))
                if receipt is not None:
                    expected = state["applied"][now]
                    meter.judge("mutation", [] if receipt.applied == expected else [
                        f"mutation {now} applied {receipt.applied} operations, "
                        f"the mirror graph {expected}"])
                now = (now + 1) % len(state["batches"])
        versions = {v.version: v for v in live.versions()}
        needs: Dict[Tuple[int, int], set] = defaultdict(set)
        plans = []
        for request, answer, current in answered:
            version = versions.get(answer.version)
            built_for = None if version is None else self._state_of(state, version.watermark)
            if built_for is None:
                meter.judge("request", [f"answer from version {answer.version} "
                                        "at no known graph state"])
                continue
            for u, v in request:
                needs[(built_for, u)].add(v)
                if answer.guaranteed:
                    needs[(current, u)].add(v)
            plans.append((request, answer, version, built_for, current))
        dist = _lookup(state["matrices"], needs)
        for request, answer, version, built_for, current in plans:
            lower = [dist[(built_for, u, v)] for u, v in request]
            upper = ([dist[(current, u, v)] for u, v in request]
                     if answer.guaranteed else lower)
            meter.judge("request", checks.check_answers(
                answer.value, lower, upper, version.alpha, version.beta,
                "serve-churn answer", check_upper=answer.guaranteed))
            meter.ratios(checks.stretch_ratios(np.array(lower),
                                               np.array(answer.value, dtype=float)))

    def product_edges(self, state: Dict[str, Any]) -> int:
        return int(state["live"].space_in_edges)

    def close(self, state: Dict[str, Any]) -> None:
        state["live"].close()


WORKLOADS = {
    "build-er": BuildWorkload("er"),
    "build-grid": BuildWorkload("grid"),
    "serve-uniform": UniformServeWorkload(),
    "serve-churn": ChurnServeWorkload(),
}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")
