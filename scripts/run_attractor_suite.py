#!/usr/bin/env python3
"""Run the long-time experiment battery on the shipped presets.

sweep + barrier on `general`, pairs on a b0 > 0 variant, dimension on
`point`/`periodic`/`chaotic`, stationary on `gradient`.  Writes one
output directory per experiment under out/attractor_suite/.

Usage: python scripts/run_attractor_suite.py [outdir]
"""

import argparse
import sys
from pathlib import Path

from platelab.cli import main
from platelab.presets import config_text


def run(outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0

    def go(name, preset, extra_sections="", args=()):
        nonlocal worst
        cfg_path = out / f"{name}.cfg"
        cfg_path.write_text(config_text(preset) + extra_sections, encoding="utf-8")
        rc = main([name.split("_")[0], "--config", str(cfg_path),
                   "--out", str(out / name), "--overwrite", *args])
        print(f"[{name}] exit {rc}")
        worst = max(worst, rc)

    go("sweep_general", "general",
       "[sweep]\nradii = 1 5 25\nsamples_per_radius = 2\nt = 60\ndt = 0.0025\n")
    go("barrier_general", "general", "[barrier]\nt = 20\n")
    go("pairs_general", "general", "[pairs]\nn_pairs = 3\nt = 30\n")
    go("dimension_point", "point")
    go("dimension_periodic", "periodic")
    go("dimension_chaotic", "chaotic")
    go("stationary_gradient", "gradient", "[stationary]\nsamples = 5\n")
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="out/attractor_suite")
    ns = ap.parse_args()
    sys.exit(run(ns.outdir))
