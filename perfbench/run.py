#!/usr/bin/env python3
"""platelab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload refine-16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The command repeats whole rounds of the
workload until the rounds' timed parts add up to --seconds.  Each round is a
fresh interpreter (`workloads.py`) that imports platelab from `src/`, so every
round pays and measures the full set-up.  An untraced run with fewer than
MIN_SETUPS rounds adds set-up probes: rounds that stop at the first time step.
The medians over the rounds are printed; with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  Each round
and each probe is one operation; it fails when its process exits non-zero.
The exit code is 0 only when every operation ran and every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("refine-16", "sweep-small", "audit-dense")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
DEADLINE_S = 170.0     # every run must end within 180 s
MIN_SETUPS = 5         # set-up is timed at least this often per run


def run_child(flags: list[str], timeout: float) -> dict | None:
    """One round (or set-up probe) in its own process; None when it fails."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{' '.join(flags)}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{' '.join(flags)}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "platelab" / "__init__.py").is_file():
        print(f"no platelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace)]
    start = time.perf_counter()
    rounds, setups, attempted, failed, measured = [], [], 0, 0, 0.0
    while not rounds or measured < args.seconds:
        remaining = DEADLINE_S - (time.perf_counter() - start)
        if rounds and remaining < 2.0 * max(r["wall_s"] for r in rounds):
            break                   # another round would overrun the deadline
        attempted += 1
        flags = base + ["--round", str(len(rounds))]
        if not rounds:
            flags.append("--full-checks")
        res = run_child(flags, remaining)
        if res is None:
            failed += 1
            break
        rounds.append(res)
        setups.append(res["setup_s"])
        measured += res["wall_s"]
    # a run with few long rounds times its set-up in extra processes that
    # stop at the first time step
    while not args.trace and not failed and len(setups) < MIN_SETUPS:
        remaining = DEADLINE_S - (time.perf_counter() - start)
        if remaining < 4.0 * max(setups):
            break
        attempted += 1
        res = run_child(base + ["--setup-only"], remaining)
        if res is None:
            failed += 1
            break
        setups.append(res["setup_s"])
    if not rounds:
        print("no round completed", file=sys.stderr)
        return 1

    correct = True
    for i, res in enumerate(rounds):
        for name, ok, detail in res["checks"]:
            correct &= ok
            if not ok or i == 0:
                print(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")
    if args.trace:
        from spans import PER_LAYER
        units = dict(PER_LAYER)
        values = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in units}
    else:
        units = dict(END_TO_END)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "steps_per_s": statistics.median(r["steps"] / r["trajectory_s"]
                                             for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    for i, res in enumerate(rounds):
        print(f"round {i}: wall_s {res['wall_s']:.4f} setup_s {res['setup_s']:.4f} "
              f"steps {res['steps']} trajectory_s {res['trajectory_s']:.4f} "
              f"peak_rss_mb {res['peak_rss_mb']:.1f}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    out = ROOT / ".perfbench" / "runs"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"rounds": rounds, "setups": setups, "failed": failed}),
        encoding="utf-8")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
