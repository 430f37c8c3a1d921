#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its steadiness.

    python3 perfbench/spread.py --runs 10                # every workload, seeds 1..10
    python3 perfbench/spread.py --workloads sweep-small --runs 5 --first-seed 101
    python3 perfbench/spread.py --runs 1 --traced        # adds a traced run per workload

Each run is one `run.py` invocation (one fresh process per round).  For each
workload and end-to-end metric it prints the median, the quartiles of
`statistics.quantiles(values, n=4)` and the spread (Q3 - Q1) / median next to
the metric's bound in BENCHMARK.json.  With --traced it also runs each
workload once with --trace 1 on the first seed, prints the per-layer table and
the tracing overhead: the traced rounds' median wall time over the untraced
one of the same seed.  Exits non-zero when any run failed or any check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None:
        print(f"  {workload} seed {seed} trace {trace}: exit {proc.returncode}")
        return None
    return result


def round_walls(workload: str, seed: int, trace: int) -> list[float]:
    path = ROOT / ".perfbench" / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    return [r["wall_s"] for r in json.loads(path.read_text())["rounds"]]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    bad = 0

    print(f"{args.runs} untraced runs per workload, seeds {seeds.start}..{seeds.stop - 1}, "
          f"--seconds {args.seconds}\n")
    print("| workload | metric | median | Q1 | Q3 | spread | bound | attempted | failed |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in args.workloads:
        results = [bench(w, s, args.seconds, 0) for s in seeds]
        bad += sum(r is None or not r["correct"] for r in results)
        results = [r for r in results if r is not None]
        if not results:
            continue
        att = sum(r["attempted"] for r in results)
        fail = sum(r["failed"] for r in results)
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            print(f"| {w} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} | {m['bound']} | {att} | {fail} |", flush=True)

    if args.traced:
        seed = seeds.start
        print(f"\ntraced runs, seed {seed} (medians over the run's rounds)\n")
        layers, overhead = {}, {}
        for w in args.workloads:
            r = bench(w, seed, args.seconds, 1)
            if r is None or not r["correct"]:
                bad += 1
                continue
            layers[w] = r["metrics"]
            traced = statistics.median(round_walls(w, seed, 1))
            untraced = statistics.median(round_walls(w, seed, 0))
            overhead[w] = (traced, untraced)
        print("| metric | unit | " + " | ".join(layers) + " |")
        print("|---|---|" + "---|" * len(layers))
        for m in spec["per_layer"]:
            cells = [f"{layers[w][m['name']]['value']:.6g}" for w in layers]
            print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
        print("\n| workload | traced wall_s | untraced wall_s | overhead |")
        print("|---|---|---|---|")
        for w, (t, u) in overhead.items():
            print(f"| {w} | {t:.3f} | {u:.3f} | {100 * (t / u - 1):+.1f}% |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
