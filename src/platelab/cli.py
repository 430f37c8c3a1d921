"""Command-line entry point.

Subcommands: simulate | sweep | barrier | pairs | dimension | stationary
| selftest.  Exit codes: 0 success, 2 config error, 3 numerical failure,
4 experiment verdict FAIL.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import attractor_lab, barrier as barrier_mod, energy as energy_mod
from .config import ConfigError, ParsedConfig, parse_config, section_get
from .discretization import DiscretizationError, DomainSpec, make_operators
from .integrator import IntegratorError, SimPlan, initial_state, run
from .model import ModelError, certify_source
from .reporting import (RunManifest, fmt_float, save_trajectory,
                        write_csv, write_json, write_svg)

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
        sp.add_argument("--threads", type=int, default=1,
                        help="ignored: the sweep advances its samples as one ensemble")
        sp.add_argument("--plots", action="store_true", help="emit SVG plots")
        sp.add_argument("--overwrite", action="store_true",
                        help="allow writing into a non-empty output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")

    for name in ("simulate", "sweep", "pairs", "dimension", "stationary"):
        common(sub.add_parser(name))
    bp = sub.add_parser("barrier")
    common(bp, config_required=False)
    bp.add_argument("--toy", action="store_true",
                    help="run the documented toy-constant example and print sigma")
    sub.add_parser("selftest")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (IntegratorError, DiscretizationError, ModelError,
            barrier_mod.BarrierError, attractor_lab.ExperimentError,
            energy_mod.EnergyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# shared setup
# ---------------------------------------------------------------------------

def _prepare(args, subcommand: str):
    parsed = parse_config(args.config, seed_override=args.seed)
    out_dir = Path(args.out or f"out_{subcommand}")
    if out_dir.exists() and any(out_dir.iterdir()) and not args.overwrite:
        raise ConfigError([f"output directory {out_dir} is not empty "
                           "(pass --overwrite to reuse it)"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = make_operators(parsed.mx, parsed.ny, parsed.cfg.dom, parsed.oversample)
    certificates = {
        "source_dissipativity": parsed.source_certificate,
        "damping": {"coefficients": list(parsed.cfg.damping_coeffs),
                    "q": parsed.cfg.q, "b0_positive": parsed.cfg.b0 > 0.0,
                    "undamped": sum(parsed.cfg.damping_coeffs) == 0.0},
    }
    manifest = RunManifest.create(args.config, parsed.text, subcommand,
                                  str(out_dir), parsed.plan.seed, certificates)
    manifest.write(out_dir)
    return parsed, ops, out_dir, manifest.config_hash


def _ledger_rows(ledger):
    return list(ledger.rows())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    parsed, ops, out, chash = _prepare(args, "simulate")
    traj = run(ops, parsed.cfg, parsed.plan, parsed.initial,
               flush_path=out / "trajectory_partial.json")
    write_csv(out / "ledger.csv", energy_mod.LEDGER_COLUMNS,
              _ledger_rows(traj.ledger), chash)
    save_trajectory(out / "trajectory.json", traj, chash)
    summary = {
        "config_hash": chash,
        "snapshots": len(traj),
        "final_time": float(traj.times[-1]),
        "final_Etot": float(traj.ledger.Etot[-1]),
        "max_abs_identity_residual": float(np.max(np.abs(traj.ledger.identity_residual))),
        "source_certificate": parsed.source_certificate,
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


def _sweep_plan(parsed: ParsedConfig) -> attractor_lab.SweepPlan:
    floats = lambda raw: tuple(float(t) for t in raw.split())
    sec = parsed.sections
    try:
        return attractor_lab.SweepPlan(
            radii=section_get(sec, "sweep", "radii", floats, (1.0, 5.0, 25.0)),
            samples_per_radius=section_get(sec, "sweep", "samples_per_radius", int, 3),
            T=section_get(sec, "sweep", "t", float, 80.0),
            tail_fraction=section_get(sec, "sweep", "tail_fraction", float, 0.5),
            seed=parsed.plan.seed,
            dt=section_get(sec, "sweep", "dt", float, 2e-3),
            snapshot_every=section_get(sec, "sweep", "snapshot_every", int, 10))
    except attractor_lab.ExperimentError as exc:
        raise ConfigError([f"[sweep]: {exc}"]) from exc


def cmd_sweep(args) -> int:
    parsed, ops, out, chash = _prepare(args, "sweep")
    plan = _sweep_plan(parsed)
    report = attractor_lab.dissipativity_sweep(ops, parsed.cfg, plan)
    rows = []
    for i, r in enumerate(report.radii):
        for j, sup in enumerate(report.tail_sups[i]):
            rows.append((r, j, sup))
    write_csv(out / "sweep_series.csv", ("radius", "sample", "tail_sup"), rows, chash)
    write_json(out / "sweep_report.json", {
        "config_hash": chash,
        "verdict": report.verdict,
        "R0": report.R0,
        "spread": report.spread,
        "radii": list(report.radii),
        "radius_bounds": report.radius_bounds,
        "tail_sups": report.tail_sups,
        "blowups": [list(b) for b in report.blowups],
        "meta": report.meta,
    })
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
    sec = parsed.sections
    fit_T = section_get(sec, "barrier", "fit_t", float, 20.0)
    fit_dt = section_get(sec, "barrier", "fit_dt", float, 2e-3)
    every = section_get(sec, "barrier", "snapshot_every", int, 5)
    floats = lambda raw: tuple(float(t) for t in raw.split())
    levels = section_get(sec, "barrier", "levels", floats, (1.0, 10.0, 100.0))

    cert = certify_source(parsed.cfg)
    fit_plan = SimPlan(dt=fit_dt, T=fit_T, snapshot_every=every, seed=parsed.plan.seed)
    traj = run(ops, parsed.cfg, fit_plan, parsed.initial, cert)
    bc = barrier_mod.fit_barrier_constants([traj], ops, parsed.cfg, cert)
    balance = barrier_mod.balancing_check(bc.gamma, bc.b)
    audit = barrier_mod.decay_audit(traj, ops, parsed.cfg, cert, bc)

    E0 = float(traj.ledger.E[0])
    e_grid = [E0 * f for f in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    sig_table = [barrier_mod.solve_barrier_scale(E, bc) for E in e_grid]
    eps_table = [1.0 / s for s in sig_table]
    bounds = {fmt_float(R): barrier_mod.ultimate_bound(bc, R) for R in levels}

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
    bc = barrier_mod.toy_constants()
    sigma = barrier_mod.solve_barrier_scale(1.0, bc)
    eps = 1.0 / sigma
    print(f"toy sigma(E=1) = {fmt_float(sigma)} (about 2.750)")
    print(f"toy eps(E=1)   = {fmt_float(eps)}")
    for R in (1.0, 10.0, 100.0):
        kr, vstar = barrier_mod.ultimate_bound(bc, R)
        print(f"R = {fmt_float(R)}: K_R = {fmt_float(kr)}, V* = {fmt_float(vstar)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "barrier_toy.json", {
            "sigma_E1": sigma, "eps_E1": eps,
            "ultimate_bounds": {fmt_float(R): list(barrier_mod.ultimate_bound(bc, R))
                                for R in (1.0, 10.0, 100.0)},
        })
    return EXIT_OK


def cmd_pairs(args) -> int:
    parsed, ops, out, chash = _prepare(args, "pairs")
    sec = parsed.sections
    n_pairs = section_get(sec, "pairs", "n_pairs", int, 5)
    gap = section_get(sec, "pairs", "gap", float, 1e-3)
    radius = section_get(sec, "pairs", "radius", float, 1.0)
    T = section_get(sec, "pairs", "t", float, 40.0)
    dt = section_get(sec, "pairs", "dt", float, 2e-3)
    every = section_get(sec, "pairs", "snapshot_every", int, 5)

    cert = certify_source(parsed.cfg)
    results = []
    rows = []
    for k in range(n_pairs):
        seed = parsed.plan.seed + 1000 * k
        plan = SimPlan(dt=dt, T=T, snapshot_every=every, seed=seed)
        y1, y2 = make_nearby_pair(ops, parsed.cfg, radius, gap, seed)
        stats = attractor_lab.quasistability_pair(ops, parsed.cfg, plan, y1, y2, cert)
        results.append(stats)
        for i in range(len(stats.times)):
            rows.append((k, stats.times[i], stats.separation[i], stats.lower_order[i]))
    write_csv(out / "pairs_series.csv", ("pair", "t", "separation", "lower_order"),
              rows, chash)
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
        "all_certified": all(s.certified for s in results),
    })
    if args.plots:
        series = [(f"pair {k}", results[k].times, results[k].separation)
                  for k in range(len(results))]
        write_svg(out / "pairs.svg", series, "pair separation", chash)
    ok = all(s.certified for s in results)
    print(f"pairs: {sum(s.certified for s in results)}/{len(results)} certified")
    return EXIT_OK if ok else EXIT_VERDICT


def make_nearby_pair(ops, cfg, radius: float, gap: float, seed: int):
    """Random base state plus a random phase-space perturbation of norm gap."""
    base = initial_state(("random", radius), ops, cfg, seed)
    pert = initial_state(("random", gap), ops, cfg, seed + 1)
    mate = base.copy()
    mate.u = base.u + pert.u
    mate.v = base.v + pert.v
    return base, mate


def cmd_dimension(args) -> int:
    parsed, ops, out, chash = _prepare(args, "dimension")
    sec = parsed.sections
    ints = lambda raw: tuple(int(t) for t in raw.split())
    embed_dims = section_get(sec, "dimension", "embed_dims", ints, (2, 4, 8))
    theiler = section_get(sec, "dimension", "theiler", int, 20)
    min_points = section_get(sec, "dimension", "min_points", int, 2000)
    tail = section_get(sec, "dimension", "tail_fraction", float, 0.5)

    traj = run(ops, parsed.cfg, parsed.plan, parsed.initial)
    report = attractor_lab.correlation_dimension(
        traj, ops, embed_dims=embed_dims, theiler=theiler,
        tail_fraction=tail, min_points=min_points)
    write_json(out / "dimension_report.json", {
        "config_hash": chash,
        "embed_dims": list(report.embed_dims),
        "estimates": report.estimates,
        "n_points": report.n_points,
        "saturated": report.saturated,
        "meta": report.meta,
    })
    write_csv(out / "dimension_series.csv", ("embed_dim", "estimate"),
              list(zip(report.embed_dims, report.estimates)), chash)
    print("dimension: " + ", ".join(
        f"d{m}={fmt_float(e)}" for m, e in zip(report.embed_dims, report.estimates)))
    return EXIT_OK if report.saturated else EXIT_VERDICT


def cmd_stationary(args) -> int:
    parsed, ops, out, chash = _prepare(args, "stationary")
    sec = parsed.sections
    samples = section_get(sec, "stationary", "samples", int, 10)
    radius = section_get(sec, "stationary", "radius", float, 2.0)
    T = section_get(sec, "stationary", "t", float, 60.0)
    dt = section_get(sec, "stationary", "dt", float, 2e-3)
    every = section_get(sec, "stationary", "snapshot_every", int, 25)
    speed_tol = section_get(sec, "stationary", "speed_tol", float, 1e-4)
    dist_tol = section_get(sec, "stationary", "dist_tol", float, 1e-3)

    plan = SimPlan(dt=dt, T=T, snapshot_every=every, seed=parsed.plan.seed)
    report = attractor_lab.stationary_convergence(
        ops, parsed.cfg, plan, samples=samples, radius=radius,
        speed_tol=speed_tol, dist_tol=dist_tol)
    write_json(out / "stationary_report.json", {
        "config_hash": chash,
        "verdict": report.verdict,
        "note": report.note,
        "samples": [{
            "seed": s.seed, "final_speed": s.final_speed,
            "distance": s.distance, "newton_residual": s.newton_residual,
            "ok": s.ok,
        } for s in report.samples],
    })
    print(f"stationary: {report.verdict} {report.note}")
    if report.verdict == "FAIL":
        return EXIT_VERDICT
    return EXIT_OK


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
    sin2 = grid.integrate(grid.eval_coeffs(e1, "val") ** 2)
    check("int sin^2 x = pi*l", abs(sin2 - math.pi) < 1e-12)
    check("mass[sin x] = pi*l", abs(ops.M[0, 0] - math.pi) < 1e-12)
    check("a(sin x, sin x) = pi*l", abs(ops.K[0, 0] - math.pi) < 1e-12)

    # 1-DOF implicit-midpoint oscillator against the exact Cayley map:
    # u1 = ((1-a) u0 + dt v0)/(1+a), v1 = ((1-a) v0 - w^2 dt u0)/(1+a),
    # a = (w dt / 2)^2
    from .model import PlateConfig
    from .integrator import SolverCache, State, step
    ops1 = make_operators(1, 1, dom)
    cfg1 = PlateConfig(damping_coeffs=(0.0, 0.0), dom=dom)
    plan1 = SimPlan(dt=0.05, T=1.0, snapshot_every=1, seed=0)
    cache = SolverCache(ops1, cfg1, plan1.dt)
    omega2 = ops1.K[0, 0] / ops1.M[0, 0]
    a = omega2 * plan1.dt ** 2 / 4.0
    st = State(np.array([1.0]), np.array([0.0]))
    u, v = 1.0, 0.0
    drift = 0.0
    ok_map = True
    E0 = 0.5 * (omega2 * u * u + v * v)
    for _ in range(200):
        st = step(st, ops1, cfg1, plan1, cache)
        u, v = ((1 - a) * u + plan1.dt * v) / (1 + a), \
               ((1 - a) * v - omega2 * plan1.dt * u) / (1 + a)
        drift = max(drift, abs(0.5 * (omega2 * st.u[0] ** 2 + st.v[0] ** 2) - E0))
        ok_map = ok_map and abs(st.u[0] - u) < 1e-11 and abs(st.v[0] - v) < 1e-11
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
