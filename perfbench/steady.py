"""Steadiness check: repeated runs of each workload against the bounds in BENCHMARK.json.

Run from the repository root::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve-churn

Each run lasts ``run_seconds`` from BENCHMARK.json.  Run ``i`` uses seed
``i + 1`` for every workload and alternates
the workload order (forward on even runs, reversed on odd ones), each
workload in its own process.  For every end-to-end metric it prints the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and the
spread ``(q3 - q1) / median`` against the metric's bound.  The raw
results go to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import ROOT, load_spec, run_workload


def run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    code, _, result = run_workload(workload, seed, seconds)
    return dict(result or {}, exit=code, wall_s=time.perf_counter() - started, seed=seed)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    results = {name: [] for name in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else list(reversed(args.workloads))
        for name in order:
            result = run(name, i + 1, spec["run_seconds"])
            results[name].append(result)
            print(f"run {i + 1}/{args.runs} {name:<14} seed {result['seed']:<4} "
                  f"exit {result['exit']}  wall {result['wall_s']:6.1f} s", flush=True)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    code = 0
    print(f"\n{'workload':<14} {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, runs in results.items():
        good = [r for r in runs if r.get("metrics")]
        if len(good) < len(runs) or any(r["exit"] for r in runs):
            print(f"{name:<14} {len(runs) - len(good)} run(s) without a result, "
                  f"exit codes {[r['exit'] for r in runs]}")
            code = 1
        if len(good) < 2:
            continue
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in good]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "wide" if spread <= metric["bound"] else "OVER")
            print(f"{name:<14} {metric['name']:<14} {med:14.6f} {q1:14.6f} {q3:14.6f} "
                  f"{spread:8.4f} {metric['bound']:6.2f}  {verdict}")
        shares = sorted({(r["failed"], r["attempted"]) for r in good})
        walls = [r["wall_s"] for r in runs]
        print(f"{name:<14} failed/attempted per run: {shares[:3]}{' ...' if len(shares) > 3 else ''}"
              f"  wall per run {min(walls):.1f}-{max(walls):.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
