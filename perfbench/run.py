"""Benchmark of the emulator pipeline at n = 10^4: build, verify and serve.

Run from the repository root::

    python3 perfbench/run.py --workload build-er --seed 1 --trace 0
    python3 perfbench/run.py                      # all four workloads, one process each

Workloads: ``build-er``, ``build-grid``, ``serve-uniform``, ``serve-churn``
(see ``perfbench/README.md``).  ``--seconds`` defaults to ``run_seconds``
in ``BENCHMARK.json``, which also lists the metric names and units.  With
``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  The exit
code is non-zero when any operation failed or any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Set-up repetitions per run; ``setup_s`` reports the import plus their median.
SETUP_REPEATS = 3
#: Minimum traced and untraced rounds of a traced run (rounds alternate
#: untraced, traced, traced, untraced, ... so warm-up and drift fall on both).
TRACE_MIN_ROUNDS = 2


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, the run length and the metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: repro imported from {origin}, not from {src}")
    return repro


def tail_percentile(samples: List[float]):
    """The highest of p99/p95/p90 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    for pct in (99, 95, 90):
        if len(ordered) * (100 - pct) >= 1000:
            rank = -(-pct * len(ordered) // 100)
            return pct, ordered[rank - 1]
    return None, None


def run_one(args, spec: Dict[str, Any]) -> int:
    started = time.perf_counter()
    repro = import_repro()
    import_s = time.perf_counter() - started

    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    tracer = None
    spans: List[Any] = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer(repro)
        tracer.install()
        try:
            with repro.obs.capture_spans() as capture:
                setup_started = time.perf_counter()
                state = workload.setup(repro, args.seed)
                setup_times = [time.perf_counter() - setup_started]
        finally:
            tracer.uninstall()
        setup_spans = tracing.freeze(capture.spans)
    else:
        state = None
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
            setup_started = time.perf_counter()
            state = workload.setup(repro, args.seed)
            setup_times.append(time.perf_counter() - setup_started)
    setup_s = import_s + wl.median(setup_times)

    workload.prepare(state)
    meter = wl.Meter()
    run_started = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 4 in (1, 2)
        meter.begin_round()
        if traced:
            tracer.install()
            try:
                with repro.obs.capture_spans() as capture:
                    workload.run_round(state, meter, index)
            finally:
                tracer.uninstall()
            spans.extend(tracing.freeze(capture.spans))
        else:
            workload.run_round(state, meter, index)
        meter.end_round(traced)
        index += 1
        if index == 1:
            # Peak RSS after set-up and one round: the live engine keeps every
            # retired generation, so a later reading would grow with the
            # rounds that fit into the run, that is, with speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - run_started < args.seconds:
            continue
        if not args.trace:
            break
        n_traced = sum(meter.round_traced)
        if n_traced >= TRACE_MIN_ROUNDS and n_traced * 2 == index:
            break
    elapsed = time.perf_counter() - run_started

    work_s = meter.work_s()
    product_edges = workload.product_edges(state)
    stretch_mean = meter.ratio_sum / meter.ratio_count if meter.ratio_count else float("nan")

    print(f"workload {args.workload} seed {args.seed}: {index} round(s) in {elapsed:.2f} s"
          f"{' (traced)' if args.trace else ''}")
    for kind in wl.KINDS:
        if meter.attempted[kind]:
            print(f"  ops {kind:<9} attempted {meter.attempted[kind]:>6}  "
                  f"failed {meter.failed[kind]}")
    for message in meter.messages:
        print(f"  FAILED: {message}")
    e2e = {
        "setup_s": setup_s,
        "work_s": work_s,
        "product_edges": float(product_edges),
        "stretch_mean": stretch_mean,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<16} {value:14.6f} {units[name]}")
    requests = meter.latency["request"]
    if requests:
        print(f"  {'request_p50_ms':<16} {1000 * wl.median(requests):14.6f} ms"
              f"  ({len(requests)} requests)")
        pct, value = tail_percentile(requests)
        if pct is not None:
            print(f"  {f'request_p{pct}_ms':<16} {1000 * value:14.6f} ms")
    mutations = meter.latency["mutation"]
    if mutations:
        print(f"  {'mutate_p50_ms':<16} {1000 * wl.median(mutations):14.6f} ms"
              f"  ({len(mutations)} mutations)")

    if args.trace:
        measured = trace_report(args, repro, workload, state, tracing, setup_spans, spans,
                                import_s, meter)
        # A layer the workload does not reach reads 0.
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in units.items()}
    workload.close(state)

    attempted = sum(meter.attempted.values())
    failed = sum(meter.failed.values())
    print(json.dumps({"correct": meter.correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if meter.correct and failed == 0 else 1


def trace_report(args, repro, workload, state, tracing, setup_spans, spans, import_s,
                 meter) -> Dict[str, float]:
    """Print self times and accounting; return every per-layer value measured."""
    n_traced = sum(meter.round_traced)
    traced_work = [w for w, t in zip(meter.round_work, meter.round_traced) if t]
    tree = tracing.SpanTree(spans)
    self_total = sum(s["duration_s"] for s in tree.roots())
    mean_traced = sum(traced_work) / len(traced_work)
    glue = mean_traced - self_total / n_traced
    overhead = meter.work_s(traced=True) - meter.work_s()

    print("  work_s per round: " + "  ".join(
        f"{'T' if t else 'U'} {w:.6f}" for w, t in zip(meter.round_work, meter.round_traced)))
    print(f"  self time per traced round ({n_traced} traced rounds, {len(spans)} spans):")
    table = tree.self_table()
    for name, (calls, total) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"    {name:<34} {total / n_traced:12.6f} s  {calls / n_traced:10.1f} calls"
              f"  {100.0 * total / n_traced / mean_traced:6.2f} %")
    print(f"    {'(benchmark glue)':<34} {glue:12.6f} s")
    print(f"  accounting: self times {self_total / n_traced:.6f} s + glue {glue:.6f} s"
          f" = traced work_s {mean_traced:.6f} s (mean per round)")
    print(f"  tracing overhead: traced work_s {meter.work_s(traced=True):.6f} s - untraced"
          f" work_s {meter.work_s():.6f} s = {overhead:.6f} s")
    print(f"  serve.single_source spans (engine miss path): "
          f"{len(tree.durations('serve.single_source'))}, self "
          f"{sum(tree.self_time(s) for s in tree.spans if s['name'] == 'serve.single_source'):.6f} s")

    metrics = tracing.setup_metrics(tracing.SpanTree(setup_spans), import_s)
    metrics.update(tracing.round_metrics(tree, n_traced))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.glue_s"] = glue
    metrics["reference.exact_request_p50_ms"] = exact_reference(args, repro, workload, state)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracing.write_trace(str(path), setup_spans + spans)
    print(f"  spans written to {path.relative_to(ROOT)}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<44} {value:16.6f}")
    return metrics


def exact_reference(args, repro, workload, state) -> float:
    """serve-uniform only: p50 request latency of one round's stream on ``backend="exact"``."""
    import workloads as wl

    if args.workload != "serve-uniform":
        return 0.0
    engine = repro.serve.load(state["graph"], repro.ServeSpec(backend="exact"))
    latencies = []
    for request in workload.round_requests(state, 0):
        started = time.perf_counter()
        engine.query_batch(request)
        latencies.append(time.perf_counter() - started)
    engine.close()
    return 1000.0 * wl.median(latencies)


def run_workload(name: str, seed: int, seconds: float, trace: int = 0):
    """Run one workload in a fresh process: ``(exit code, output lines, result or None)``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, lines, result


def run_all(args, spec: Dict[str, Any]) -> int:
    """Every workload in its own fresh process, one after the other."""
    code = 0
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        returncode, lines, result = run_workload(name, args.seed, args.seconds, args.trace)
        code = code or returncode
        if result is None:
            print("\n".join(lines))
            print(f"error: {name} printed no result (exit {returncode})")
            code = code or 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        results[name] = result
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
