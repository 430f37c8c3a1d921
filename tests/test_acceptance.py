"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import platelab as pl
from platelab import barrier as bar
from platelab.attractor_lab import (SweepPlan, correlation_dimension,
                                    dissipativity_sweep, make_nearby_pair,
                                    quasistability_pairs, stationary_convergence)
from platelab.cli import main
from platelab.energy import sandwich_constants
from platelab.integrator import SimPlan, run
from platelab.model import PlateConfig, SourceSpec, certify_source, solve_stationary
from platelab.presets import make

from conftest import random_coeffs


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def general():
    cfg, (mx, ny), ov, plan, init = make("general")
    ops = pl.make_operators(mx, ny, cfg.dom, ov)
    cert = certify_source(cfg)
    t0 = time.perf_counter()
    traj = run(ops, cfg, plan, init, cert)
    elapsed = time.perf_counter() - t0
    return dict(cfg=cfg, ops=ops, cert=cert, plan=plan, init=init,
                traj=traj, run_seconds=elapsed)


@pytest.fixture(scope="module")
def gradient():
    cfg, (mx, ny), ov, plan, init = make("gradient")
    ops = pl.make_operators(mx, ny, cfg.dom, ov)
    cert = certify_source(cfg)
    traj = run(ops, cfg, plan, init, cert)
    return dict(cfg=cfg, ops=ops, cert=cert, plan=plan, traj=traj)


@pytest.fixture(scope="module")
def point_run():
    cfg, (mx, ny), ov, plan, init = make("point")
    ops = pl.make_operators(mx, ny, cfg.dom, ov)
    traj = run(ops, cfg, plan, init)
    return dict(cfg=cfg, ops=ops, traj=traj)


def test_criterion_1_energy_identity(general):
    """General preset: residual <= 1e-6 per unit time at dt = 1e-3,
    halving reduces it by 3.2x..4.8x, runtime under 2 minutes at n = 64."""
    t0 = time.perf_counter()
    traj = general["traj"]
    T = traj.times[-1]
    r1 = abs(traj.ledger.identity_residual[-1]) / T
    per_unit_max = float(np.max(np.abs(traj.ledger.identity_residual[1:])
                                / traj.times[1:]))
    plan_half = dataclasses.replace(general["plan"], dt=general["plan"].dt / 2)
    traj_half = run(general["ops"], general["cfg"], plan_half, general["init"],
                    general["cert"])
    r2 = abs(traj_half.ledger.identity_residual[-1]) / traj_half.times[-1]
    ratio = r1 / r2
    elapsed = general["run_seconds"] + (time.perf_counter() - t0)
    ok = (general["ops"].n == 64 and per_unit_max <= 1e-6
          and 3.2 <= ratio <= 4.8 and elapsed < 120.0)
    report(1, ok, f"residual/T = {r1:.3e} (max {per_unit_max:.3e}), "
                  f"halving ratio = {ratio:.2f}, runtime = {elapsed:.0f}s")


def test_criterion_2_conservative_limit():
    """Zero damping/flow/source: relative energy drift <= 1e-10 over 100
    periods of the slowest mode."""
    cfg, (mx, ny), ov, plan, init = make("conservative")
    ops = pl.make_operators(mx, ny, cfg.dom, ov)
    period = 2 * math.pi / math.sqrt(ops.mu[0])
    assert plan.T >= 100 * period
    traj = run(ops, cfg, plan, init)
    E = traj.ledger.Etot
    drift = float(np.max(np.abs(E - E[0])) / abs(E[0]))
    ok = drift <= 1e-10
    report(2, ok, f"relative drift = {drift:.3e} over {plan.T / period:.0f} periods")


def test_criterion_3_structural_oracles(dom):
    """a(sin x, sin x) = pi l, diagonal mass, symmetric positive definite."""
    ops = pl.make_operators(4, 4, dom)
    a_val = abs(ops.K[0, 0] - math.pi * dom.l)
    mass_off = float(np.max(np.abs(ops.M - np.diag(np.diag(ops.M)))))
    sym = max(float(np.max(np.abs(ops.K - ops.K.T))),
              float(np.max(np.abs(ops.M - ops.M.T))))
    eig_min = min(np.linalg.eigvalsh(ops.K)[0], np.linalg.eigvalsh(ops.M)[0])
    ok = a_val < 1e-12 and mass_off < 1e-12 and sym < 1e-12 and eig_min > 0
    report(3, ok, f"|a - pi l| = {a_val:.1e}, mass offdiag = {mass_off:.1e}, "
                  f"symmetry = {sym:.1e}, min eig = {eig_min:.2e}")


def test_criterion_4_poincare(ops12):
    """sup ||u||^2 / ||u_x||^2 < pi^2 over 1000 random states, strictly."""
    worst = 0.0
    for seed in range(1000):
        u = random_coeffs(ops12, seed)
        worst = max(worst, pl.poincare_ratio(u, ops12))
    ok = worst < math.pi ** 2
    report(4, ok, f"sup ratio = {worst:.4f} < pi^2 = {math.pi ** 2:.4f}")


def test_criterion_5_energy_sandwich(general, gradient, point_run):
    """(1/2) E - C1 <= Etot <= 2 E + C2 with certified constants, zero
    violations across three preset trajectories."""
    violations = 0
    checked = 0
    for bundle in (general, gradient, point_run):
        cfg, ops = bundle["cfg"], bundle["ops"]
        cert = bundle.get("cert") or certify_source(cfg)
        C1 = sandwich_constants(ops, cfg, cert, eta_tilde=0.25).C
        C2 = sandwich_constants(ops, cfg, cert, eta_tilde=0.5).C
        led = bundle["traj"].ledger
        lower = 0.5 * led.E - C1
        upper = 2.0 * led.E + C2
        tol = 1e-9 * (1.0 + np.abs(led.Etot))
        violations += int(np.sum(led.Etot < lower - tol))
        violations += int(np.sum(led.Etot > upper + tol))
        checked += len(led.t)
    ok = violations == 0
    report(5, ok, f"{checked} snapshots across 3 preset trajectories, "
                  f"{violations} violations")


def test_criterion_6_barrier_toolkit():
    """gamma(q) values, balancing verdicts, toy sigma root, V* independence."""
    gamma_ok = all(bar.damping_growth_exponent(q) == pytest.approx(q / (2 * (q + 1)))
                   for q in range(1, 11))
    balance_ok = all(
        bar.balancing_check(bar.damping_growth_exponent(q),
                            lambda x, q=q: bar.balance_function(
                                x, bar.balance_exponent(q))).verdict == "PASS"
        for q in range(1, 11))
    counter_fails = bar.balancing_check(0.25, lambda x: x ** 3).verdict == "FAIL"

    bc = bar.toy_constants()
    sigma = bar.solve_barrier_scale(1.0, bc)
    lo, hi = 1.0, 10.0
    for _ in range(200):    # independent bisection oracle on s^2 - s^1.5 = 3
        mid = 0.5 * (lo + hi)
        if mid * mid - mid ** 1.5 - 3.0 < 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    sigma_ok = abs(sigma - oracle) <= 1e-6 and abs(sigma - 2.750) < 2e-3

    stars = [bar.ultimate_bound(bc, R)[1] for R in (1.0, 10.0, 100.0)]
    vstar_ok = max(stars) - min(stars) <= 1e-8

    ok = gamma_ok and balance_ok and counter_fails and sigma_ok and vstar_ok
    report(6, ok, f"sigma = {sigma:.6f} (oracle {oracle:.6f}), "
                  f"V* spread = {max(stars) - min(stars):.2e}")


def test_criterion_7_ultimate_dissipativity(general):
    """Radii {1, 5, 25} at n = 64: tail sups within 25% spread, no blowups,
    sweep under 15 minutes."""
    plan = SweepPlan(radii=(1.0, 5.0, 25.0), samples_per_radius=2,
                     T=60.0, dt=2.5e-3, snapshot_every=10, seed=99)
    t0 = time.perf_counter()
    rep = dissipativity_sweep(general["ops"], general["cfg"], plan)
    elapsed = time.perf_counter() - t0
    ok = (rep.verdict == "PASS" and not rep.blowups and rep.spread <= 0.25
          and elapsed < 900.0)
    report(7, ok, f"spread = {rep.spread:.2%}, R0 = {rep.R0:.4f}, "
                  f"sweep in {elapsed:.0f}s")


def test_criterion_8_decay_audit(general):
    """With eps from the sigma equation at the initial energy and fitted
    constants, the bracket eps (1 + E)^gamma - d3 stays <= 0 throughout."""
    cfg, ops, cert, traj = (general[k] for k in ("cfg", "ops", "cert", "traj"))
    bc = bar.fit_barrier_constants([traj], ops, cfg, cert)
    eps = bar.decay_rate_at_energy(float(traj.ledger.E[0]), bc)
    audit = bar.decay_audit(traj, ops, cfg, cert, bc, eps=eps)
    ok = audit.bracket_violations == 0 and float(np.max(audit.bracket)) <= 0.0
    report(8, ok, f"eps = {audit.eps:.4f}, max bracket = "
                  f"{float(np.max(audit.bracket)):.4f}, "
                  f"{len(audit.times)} snapshots audited")


def test_criterion_9_quasistability(ops12):
    """Five random nearby pairs with b0 > 0: omega > 0, zero violations,
    exact separation at t = 0."""
    cfg = PlateConfig(alpha=0.0, delta=1.0, beta=0.5, kappa=2.0,
                      damping_coeffs=(1.0, 0.0, 0.5),
                      source=SourceSpec(kind="cubic_minus_load", load=1.0))
    cert = certify_source(cfg)
    plan = SimPlan(dt=2.5e-3, T=20.0, snapshot_every=5, seed=0)
    pairs = [make_nearby_pair(ops12, cfg, 1.0, 1e-3, 300 + k) for k in range(5)]
    all_ok = True
    rates = []
    for (y1, y2), stats in zip(pairs, quasistability_pairs(ops12, cfg, plan, pairs, cert)):
        exact0 = ops12.state_norm_sq(y1.u - y2.u, y1.v - y2.v)
        all_ok &= (stats.certified and stats.fitted_rate > 0
                   and stats.violations == 0 and stats.separation[0] == exact0)
        rates.append(stats.fitted_rate)
    report(9, all_ok, "rates = [" + ", ".join(f"{r:.2f}" for r in rates) + "]")


def test_criterion_10_gradient_case(gradient):
    """beta = 0: monotone energy, convergence to Newton-certified equilibria."""
    cfg, ops, traj = gradient["cfg"], gradient["ops"], gradient["traj"]
    increments = np.diff(traj.ledger.Etot)
    monotone = bool(np.all(increments <= 1e-8))

    conv = stationary_convergence(
        ops, cfg, SimPlan(dt=2e-3, T=60.0, snapshot_every=25, seed=5),
        samples=10, radius=2.0, speed_tol=1e-4, dist_tol=1e-3, newton_tol=1e-10)
    conv_ok = conv.verdict == "PASS"

    guess = np.zeros(ops.n)
    guess[0] = 0.8
    buckled = solve_stationary(cfg, ops, guess, tol=1e-10)
    buckled_ok = (buckled.converged and buckled.residual <= 1e-10
                  and ops.bending_norm_sq(buckled.u) > 0.1)
    ok = monotone and conv_ok and buckled_ok
    report(10, ok, f"max dE = {float(np.max(increments)):.2e}, "
                   f"convergence {conv.verdict}, buckled residual = "
                   f"{buckled.residual:.2e}")


def test_criterion_11_dimension_probe(point_run):
    """Correlation dimension: ~0 on a point attractor, ~1 on a periodic
    orbit, saturating across embed dims on the sustained-motion preset."""
    rep_point = correlation_dimension(point_run["traj"], point_run["ops"])
    point_ok = all(est < 0.2 for est in rep_point.estimates)

    cfg, (mx, ny), ov, plan, init = make("periodic")
    ops = pl.make_operators(mx, ny, cfg.dom, ov)
    traj = run(ops, cfg, plan, init)
    rep_per = correlation_dimension(traj, ops)
    periodic_ok = all(abs(est - 1.0) <= 0.2 for est in rep_per.estimates)

    cfg, (mx, ny), ov, plan, init = make("chaotic")
    ops = pl.make_operators(mx, ny, cfg.dom, ov)
    traj = run(ops, cfg, plan, init)
    rep_cha = correlation_dimension(traj, ops, embed_dims=(2, 4, 8))
    chaotic_ok = rep_cha.saturated

    ok = point_ok and periodic_ok and chaotic_ok
    report(11, ok, f"point = {max(rep_point.estimates):.2f}, "
                   f"periodic = {rep_per.estimates[0]:.2f}, "
                   f"sustained = {[round(e, 2) for e in rep_cha.estimates]}")


def test_criterion_12_determinism(tmp_path):
    """Repeated CLI runs with a fixed seed produce byte-identical CSV/JSON."""
    cfg_text = """
[plate]
alpha = 0.0
delta = 1.0
beta = 1.0
kappa = 2.0
damping = 0.5 0.0 1.0
source = cubic_minus_load
load = 1.0
[basis]
mx = 3
ny = 2
[sim]
dt = 0.005
t = 0.5
snapshot_every = 5
seed = 31
initial = random 1.0
[sweep]
radii = 0.5 1.0
samples_per_radius = 1
t = 5
dt = 0.005
"""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    identical = True
    for sub, files in (("simulate", ("ledger.csv", "trajectory.json",
                                     "simulate_report.json")),
                       ("sweep", ("sweep_series.csv", "sweep_report.json"))):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}_{tag}"
            rc = main([sub, "--config", str(cfg_path), "--out", str(out)])
            assert rc in (0, 4)
            outs.append(out)
        for fname in files:
            identical &= ((outs[0] / fname).read_bytes()
                          == (outs[1] / fname).read_bytes())
    report(12, identical, "simulate and sweep outputs byte-identical on rerun")
