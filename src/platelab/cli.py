"""Command-line entry point.

Subcommands: simulate | sweep | barrier | pairs | dimension | stationary
| selftest.  Exit codes: 0 success, 2 config error, 3 numerical failure,
4 experiment verdict FAIL.
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import attractor_lab, barrier as barrier_mod, energy as energy_mod
from .config import ConfigError, parse_config
from .discretization import DiscretizationError, DomainSpec, make_operators
from .integrator import IntegratorError, SimPlan, run
from .model import ModelError
from .reporting import (append_run_log, fmt_float, save_trajectory, write_csv, write_json,
                        write_manifest, write_svg)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERDICT = 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="platelab",
                                description="plate dynamics experiment toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required, help="config file path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--overwrite", action="store_true",
                        help="allow writing into a non-empty output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")

    for name in ("simulate", "sweep", "pairs", "dimension", "stationary"):
        sp = sub.add_parser(name)
        common(sp)
        if name in ("simulate", "sweep", "pairs"):      # the subcommands that draw
            sp.add_argument("--plots", action="store_true", help="emit SVG plots")
    bp = sub.add_parser("barrier")
    common(bp, config_required=False)
    bp.add_argument("--toy", action="store_true",
                    help="run the documented toy-constant example and print sigma")
    sub.add_parser("selftest")
    return p


def main(argv=None) -> int:
    """Run one subcommand.  One that writes an output directory appends its
    wall time and peak resident memory to run.log as it exits."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (IntegratorError, DiscretizationError, ModelError,
            barrier_mod.BarrierError, attractor_lab.ExperimentError,
            energy_mod.EnergyError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        if getattr(args, "out_dir", None) is not None:      # set by _prepare
            wall_s = time.perf_counter() - start
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0    # KiB
            append_run_log(args.out_dir,
                           f"{args.command} wall_s={wall_s:.3f} peak_rss_mb={peak_mb:.1f}")


# ---------------------------------------------------------------------------
# shared setup
# ---------------------------------------------------------------------------

def _out_dir(path, overwrite: bool) -> Path:
    """The output directory at path: absent, empty, or reused with --overwrite."""
    out = Path(path)
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise ConfigError([f"output path {out} is not a directory"])
    if out.exists() and any(out.iterdir()) and not overwrite:
        raise ConfigError([f"output directory {out} is not empty "
                           "(pass --overwrite to reuse it)"])
    return out


def _prepare(args, subcommand: str):
    parsed = parse_config(args.config, seed_override=args.seed)
    if subcommand == "dimension":
        dim = parsed.values["dimension"]
        points = attractor_lab.tail_points(parsed.plan, dim["tail_fraction"])
        if problems := attractor_lab.dimension_shortfalls(points, dim["min_points"],
                                                          dim["theiler"]):
            raise ConfigError([f"[dimension] {p} of the [sim] run" for p in problems])
    out_dir = _out_dir(args.out or f"out_{subcommand}", args.overwrite)
    # a basis that cannot be allocated leaves no output directory
    ops = make_operators(parsed.mx, parsed.ny, parsed.cfg.dom, parsed.oversample)
    out_dir.mkdir(parents=True, exist_ok=True)
    certificates = {
        "source_dissipativity": asdict(parsed.cert),
        "damping": {"coefficients": list(parsed.cfg.damping_coeffs),
                    "q": parsed.cfg.q, "b0_positive": parsed.cfg.b0 > 0.0,
                    "undamped": sum(parsed.cfg.damping_coeffs) == 0.0},
    }
    chash = write_manifest(out_dir, args.config, parsed.text, subcommand,
                           parsed.plan.seed, certificates)
    args.out_dir = out_dir
    return parsed, ops, out_dir, chash


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    parsed, ops, out, chash = _prepare(args, "simulate")
    try:
        traj = run(ops, parsed.cfg, parsed.plan, parsed.initial, parsed.cert)
    except IntegratorError as exc:
        if exc.partial is not None:
            save_trajectory(out / "trajectory_partial.json", exc.partial, chash)
        raise
    write_csv(out / "ledger.csv", energy_mod.LEDGER_COLUMNS,
              list(traj.ledger.rows()), chash)
    save_trajectory(out / "trajectory.json", traj, chash)
    summary = {
        "config_hash": chash,
        "snapshots": len(traj),
        "final_time": float(traj.times[-1]),
        "final_Etot": float(traj.ledger.Etot[-1]),
        "max_abs_identity_residual": float(np.max(np.abs(traj.ledger.identity_residual))),
        "fp_iterations": traj.meta["fp_iterations"],
        "source_certificate": asdict(parsed.cert),
    }
    write_json(out / "simulate_report.json", summary)
    if args.plots:
        led = traj.ledger
        write_svg(out / "ledger.svg",
                  [("Etot", led.t, led.Etot), ("E", led.t, led.E),
                   ("identity_residual", led.t, led.identity_residual)],
                  "energy ledger", chash)
    print(f"simulate: {len(traj)} snapshots, "
          f"|identity residual| <= {fmt_float(summary['max_abs_identity_residual'])}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    parsed, ops, out, chash = _prepare(args, "sweep")
    report = attractor_lab.dissipativity_sweep(ops, parsed.cfg, parsed.plans["sweep"],
                                               cert=parsed.cert)
    grids = (report.tail_sups, report.entry_times, report.sup_velocity_bending,
             report.sup_accel_l2, report.regularity)
    rows = [(r, j) + tuple(g[i][j] for g in grids)
            for i, r in enumerate(report.radii) for j in range(len(report.tail_sups[i]))]
    write_csv(out / "sweep_series.csv", ("radius", "sample", "tail_sup", "entry_time",
                                         "sup_velocity_bending", "sup_accel_l2",
                                         "regularity"), rows, chash)
    write_json(out / "sweep_report.json", {"config_hash": chash, **vars(report)})
    if args.plots:
        write_svg(out / "sweep.svg",
                  [("bound", list(report.radii), report.radius_bounds)],
                  "tail sup vs initial radius", chash)
    print(f"sweep: verdict {report.verdict}, R0 = {fmt_float(report.R0)}, "
          f"spread = {fmt_float(report.spread)}")
    return EXIT_OK if report.verdict == "PASS" else EXIT_VERDICT


def cmd_barrier(args) -> int:
    if args.toy:
        return _barrier_toy(args)
    if not args.config:
        raise ConfigError(["barrier needs --config (or --toy)"])
    parsed, ops, out, chash = _prepare(args, "barrier")
    bar, cert = parsed.values["barrier"], parsed.cert
    traj = run(ops, parsed.cfg, parsed.plans["barrier"], parsed.initial, cert)
    bc = barrier_mod.fit_barrier_constants([traj], ops, parsed.cfg, cert)
    balance = barrier_mod.balancing_check(bc.gamma, bc.b)
    audit = barrier_mod.decay_audit(traj, ops, parsed.cfg, cert, bc)

    E0 = float(traj.ledger.E[0])
    e_grid = [E0 * f for f in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    sig_table = [barrier_mod.solve_barrier_scale(E, bc) for E in e_grid]
    eps_table = [1.0 / s for s in sig_table]
    bounds = {fmt_float(R): barrier_mod.ultimate_bound(bc, R) for R in bar["levels"]}

    write_json(out / "barrier_report.json", {
        "config_hash": chash,
        "constants": bc.to_dict(),
        "balancing": balance.verdict,
        "sigma_table": {"E": e_grid, "sigma": sig_table, "eps": eps_table},
        "audit": {
            "eps": audit.eps,
            "violations": audit.violations,
            "bracket_violations": audit.bracket_violations,
            "max_bracket": float(np.max(audit.bracket)),
            "min_margin": float(np.min(audit.margins)),
        },
        "ultimate_bounds": {k: {"K_R": kr, "V_star": vs}
                            for k, (kr, vs) in bounds.items()},
        "fp_iterations": traj.meta["fp_iterations"],
    })
    write_csv(out / "barrier_audit.csv",
              ("t", "lhs", "rhs", "margin", "allowance", "bracket"),
              list(zip(audit.times, audit.lhs, audit.rhs, audit.margins,
                       audit.fd_allowance, audit.bracket)), chash)
    ok = audit.bracket_violations == 0 and balance.passed
    print(f"barrier: eps = {fmt_float(audit.eps)}, "
          f"bracket violations = {audit.bracket_violations}, "
          f"balancing {balance.verdict}")
    return EXIT_OK if ok else EXIT_VERDICT


def _barrier_toy(args) -> int:
    out = _out_dir(args.out, args.overwrite) if args.out else None
    bc = barrier_mod.toy_constants()
    sigma = barrier_mod.solve_barrier_scale(1.0, bc)
    eps = 1.0 / sigma
    print(f"toy sigma(E=1) = {fmt_float(sigma)} (about 2.750)")
    print(f"toy eps(E=1)   = {fmt_float(eps)}")
    bounds = {fmt_float(R): barrier_mod.ultimate_bound(bc, R) for R in (1.0, 10.0, 100.0)}
    for R, (kr, vstar) in bounds.items():
        print(f"R = {R}: K_R = {fmt_float(kr)}, V* = {fmt_float(vstar)}")
    if out:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "barrier_toy.json", {
            "sigma_E1": sigma, "eps_E1": eps,
            "ultimate_bounds": {R: list(b) for R, b in bounds.items()},
        })
    return EXIT_OK


def cmd_pairs(args) -> int:
    parsed, ops, out, chash = _prepare(args, "pairs")
    pairs, plan = parsed.values["pairs"], parsed.plans["pairs"]
    starts = [attractor_lab.make_nearby_pair(ops, parsed.cfg, pairs["radius"], pairs["gap"],
                                             plan.seed + 1000 * k)
              for k in range(pairs["n_pairs"])]
    results = attractor_lab.quasistability_pairs(ops, parsed.cfg, plan, starts, parsed.cert)
    rows = [(k, t, sep, low) for k, s in enumerate(results)
            for t, sep, low in zip(s.times, s.separation, s.lower_order)]
    write_csv(out / "pairs_series.csv", ("pair", "t", "separation", "lower_order"),
              rows, chash)
    ok = all(s.certified for s in results)
    write_json(out / "pairs_report.json", {
        "config_hash": chash,
        "pairs": [{
            "fitted_rate": s.fitted_rate,
            "fitted_C": s.fitted_C,
            "fitted_d": s.fitted_d,
            "violations": s.violations,
            "certified": s.certified,
            "note": s.note,
        } for s in results],
        "all_certified": ok,
        "fp_iterations": attractor_lab.fp_histogram(results),
    })
    if args.plots:
        series = [(f"pair {k}", s.times, s.separation) for k, s in enumerate(results)]
        write_svg(out / "pairs.svg", series, "pair separation", chash)
    print(f"pairs: {sum(s.certified for s in results)}/{len(results)} certified")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_dimension(args) -> int:
    parsed, ops, out, chash = _prepare(args, "dimension")
    traj = run(ops, parsed.cfg, parsed.plan, parsed.initial, parsed.cert)
    report = attractor_lab.correlation_dimension(traj, ops,
                                                 **parsed.values["dimension"])
    write_json(out / "dimension_report.json", {"config_hash": chash, **vars(report)})
    write_csv(out / "dimension_series.csv", ("embed_dim", "estimate"),
              list(zip(report.embed_dims, report.estimates)), chash)
    print("dimension: " + ", ".join(
        f"d{m}={fmt_float(e)}" for m, e in zip(report.embed_dims, report.estimates)))
    return EXIT_OK if report.saturated else EXIT_VERDICT


def cmd_stationary(args) -> int:
    parsed, ops, out, chash = _prepare(args, "stationary")
    st = parsed.values["stationary"]
    report = attractor_lab.stationary_convergence(
        ops, parsed.cfg, parsed.plans["stationary"], samples=st["samples"],
        radius=st["radius"], speed_tol=st["speed_tol"], dist_tol=st["dist_tol"],
        cert=parsed.cert)
    write_json(out / "stationary_report.json", {"config_hash": chash, **asdict(report)})
    print(f"stationary: {report.verdict} {report.note}")
    return EXIT_VERDICT if report.verdict == "FAIL" else EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def cmd_selftest(_args) -> int:
    """Analytic-oracle smoke suite; nonzero exit on any failure."""
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} - {name}")
        failures += 0 if ok else 1

    dom = DomainSpec(l=1.0, sigma=0.3)
    ops = make_operators(3, 3, dom)
    grid = ops.grid

    check("quadrature weight sum = 2*pi*l",
          abs(grid.weight_sum - 2 * math.pi) < 1e-12 * 2 * math.pi)
    e1 = np.zeros(ops.n)
    e1[0] = 1.0
    sin2 = grid.integrate(grid.eval_coeffs(e1) ** 2)
    check("int sin^2 x = pi*l", abs(sin2 - math.pi) < 1e-12)
    check("mass[sin x] = pi*l", abs(ops.m_diag[0] - math.pi) < 1e-12)
    check("a(sin x, sin x) = pi*l", abs(ops.k_blocks[0, 0, 0] - math.pi) < 1e-12)

    # 1-DOF implicit-midpoint oscillator against the exact Cayley map:
    # u1 = ((1-a) u0 + dt v0)/(1+a), v1 = ((1-a) v0 - w^2 dt u0)/(1+a),
    # a = (w dt / 2)^2
    from .model import PlateConfig
    ops1 = make_operators(1, 1, dom)
    plan1 = SimPlan(dt=0.05, T=10.0, snapshot_every=1, seed=0)
    traj = run(ops1, PlateConfig(damping_coeffs=(0.0, 0.0), dom=dom), plan1,
               ("mode", 1, 0, 1.0))
    omega2 = ops1.k_blocks[0, 0, 0] / ops1.m_diag[0]
    a = omega2 * plan1.dt ** 2 / 4.0
    u, v = 1.0, 0.0
    drift = 0.0
    ok_map = len(traj) == 201
    E0 = 0.5 * (omega2 * u * u + v * v)
    for (su,), (sv,) in zip(traj.us[1:], traj.vs[1:]):     # the 200 steps' end states
        u, v = ((1 - a) * u + plan1.dt * v) / (1 + a), \
               ((1 - a) * v - omega2 * plan1.dt * u) / (1 + a)
        drift = max(drift, abs(0.5 * (omega2 * su ** 2 + sv ** 2) - E0))
        ok_map = ok_map and abs(su - u) < 1e-11 and abs(sv - v) < 1e-11
    check("midpoint matches the exact 1-DOF rotation map", ok_map)
    check("1-DOF energy drift <= 1e-12", drift <= 1e-12 * max(1.0, E0))

    # sigma toy root against a plain bisection oracle
    bc = barrier_mod.toy_constants()
    sigma = barrier_mod.solve_barrier_scale(1.0, bc)

    def f(s):
        return s * s - s ** 1.5 - 3.0

    lo, hi = 1.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    check("toy sigma root matches bisection oracle",
          abs(sigma - 0.5 * (lo + hi)) < 1e-9)
    check("gamma(1) = 1/4", barrier_mod.damping_growth_exponent(1) == 0.25)
    check("balancing holds for q = 1",
          barrier_mod.balancing_check(0.25, lambda x: x ** (9.0 / 7.0)).passed)

    print(f"selftest: {failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


_DISPATCH = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "barrier": cmd_barrier,
    "pairs": cmd_pairs,
    "dimension": cmd_dimension,
    "stationary": cmd_stationary,
    "selftest": cmd_selftest,
}


if __name__ == "__main__":
    sys.exit(main())
