"""Energy-consistent implicit-midpoint time stepping.

One step advances (u0, v0) -> (u1, v1) through the midpoint values
u_m = (u0 + u1)/2, v_m = (v0 + v1)/2 satisfying

    M (v1 - v0)/dt + K u_m + g(||v_m||_0) M v_m = load(u_m),
    (u1 - u0)/dt = v_m.

The linear part (including the alpha u_xx term, which is linear) is
solved exactly through the generalized eigendecomposition of
(K - alpha Gx, M), factorised once per (config, dt) and reused; in
modal coordinates every solve is diagonal.  The nonlocal damping is
closed implicitly by a scalar root solve for rho = ||v_m||_0, and the
remaining nonlinear loads (stretching, stays, source, flow term) are
handled by an outer fixed-point iteration.

On the purely linear conservative subsystem the scheme conserves the
discrete quadratic energy exactly (up to roundoff); with nonlinearities
the energy-identity defect is O(dt^2) per unit time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from . import energy as energy_mod
from .discretization import DiscreteOperators
from .model import (PlateConfig, SourceCertificate, State, certify_source,
                    damping_gain, force_load, solve_stationary)


class IntegratorError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimPlan:
    dt: float = 1e-3
    T: float = 1.0
    snapshot_every: int = 1
    fp_tol: float = 1e-11
    fp_maxiter: int = 60
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.T < 0 or self.fp_tol <= 0 or self.snapshot_every < 1:
            raise ValueError(f"invalid simulation plan: {self}")


@dataclass
class Trajectory:
    """Recorded snapshots plus the aligned energy ledger."""

    times: np.ndarray
    us: np.ndarray            # (n_snapshots, n)
    vs: np.ndarray
    ledger: energy_mod.EnergyLedger
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    def state(self, i: int) -> State:
        return State(self.us[i].copy(), self.vs[i].copy(), float(self.times[i]))


class SolverCache:
    """Per-(config, dt) factorisation reused across steps."""

    def __init__(self, ops: DiscreteOperators, cfg: PlateConfig, dt: float):
        self.ops = ops
        self.cfg = cfg
        self.dt = dt
        K_lin = ops.K - cfg.alpha * ops.Gx
        mu, phi = scipy.linalg.eigh(K_lin, ops.M)
        self.mu_lin = mu
        self.phi = phi                      # phi^T M phi = I
        self.phi_TM = phi.T @ ops.M
        self.base = 2.0 / dt + 0.5 * dt * mu
        if np.any(self.base + damping_gain(0.0, cfg) <= 0.0):
            raise IntegratorError(
                "time step too large for the negative-stiffness modes "
                f"(min base {self.base.min():.3e}); reduce dt")
        self.K_lin = K_lin
        # loads beyond K_lin: everything except the alpha Gx part
        self.has_nl_load = (cfg.delta != 0.0 or cfg.kappa != 0.0
                            or cfg.beta != 0.0 or not cfg.source.is_zero)
        self.gain_constant = cfg.q_eff == 0   # g(s) = b_0: no scalar iteration

    def residual_load(self, u_m: np.ndarray) -> np.ndarray:
        """force_load minus the alpha-part already inside K_lin."""
        out = force_load(u_m, self.ops, self.cfg)
        if self.cfg.alpha != 0.0:
            out = out - self.cfg.alpha * (self.ops.Gx @ u_m)
        return out


def solve_midpoint_speed(r_modal: np.ndarray, cache: SolverCache,
                         tol: float = 1e-14) -> float:
    """Root of rho = ||v_m(rho)||_0 closing the implicit nonlocal damping.

    v_m(rho)_i = r_i / (base_i + g(rho)) in modal coordinates; the map
    rho -> ||v_m(rho)|| - rho is strictly decreasing for nonnegative
    damping coefficients, so the positive root is unique.  Linear damping
    (g constant) short-circuits to the closed form.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cfg = cache.cfg

    def speed_at(rho):
        return float(np.linalg.norm(r_modal / (cache.base + damping_gain(rho, cfg))))

    rho0 = speed_at(0.0)
    if cache.gain_constant or rho0 == 0.0:
        return rho0

    def gap(rho):
        return speed_at(rho) - rho

    hi = rho0 * (1.0 + 1e-12) + 1e-300
    if gap(hi) > 0.0:   # numerical slack: expand (the map says root <= rho0)
        while gap(hi) > 0.0:
            hi *= 2.0
            if hi > 1e12 * (rho0 + 1.0):
                raise IntegratorError("speed-equation bracketing failed")
    return float(scipy.optimize.brentq(gap, 0.0, hi, xtol=tol * (1.0 + rho0),
                                       rtol=8.9e-16, maxiter=200))


def step(state: State, ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan,
         cache: SolverCache | None = None) -> State:
    """One implicit-midpoint step; raises on non-convergence or blow-up."""
    if not state.finite:
        raise IntegratorError(f"non-finite state at t = {state.t}")
    cache = cache or SolverCache(ops, cfg, plan.dt)
    dt = plan.dt
    u0, v0 = state.u, state.v

    base_rhs = (2.0 / dt) * (ops.M @ v0) - cache.K_lin @ u0
    u_m = u0 + 0.5 * dt * v0
    v_m = v0.copy()
    last_change = np.inf
    relax = 1.0
    for it in range(1, plan.fp_maxiter + 1):
        rhs = base_rhs + (cache.residual_load(u_m) if cache.has_nl_load else 0.0)
        r_modal = cache.phi.T @ rhs
        rho = solve_midpoint_speed(r_modal, cache)
        w = r_modal / (cache.base + damping_gain(rho, cfg))
        v_new = cache.phi @ w
        if relax != 1.0:
            v_new = relax * v_new + (1.0 - relax) * v_m
        u_new = u0 + 0.5 * dt * v_new
        du, dv = u_new - u_m, v_new - v_m
        change = 2.0 * np.sqrt(max(ops.state_norm_sq(du, dv), 0.0))
        u_m, v_m = u_new, v_new
        if not cache.has_nl_load or change <= plan.fp_tol:
            break
        if change > last_change and relax == 1.0:
            relax = 0.8
        last_change = change
    else:
        raise IntegratorError(
            f"fixed point did not converge in {plan.fp_maxiter} iterations "
            f"(last change {change:.3e} in the phase-space norm); reduce dt")

    u1 = 2.0 * u_m - u0
    v1 = 2.0 * v_m - v0
    out = State(u1, v1, state.t + dt)
    if not out.finite:
        raise IntegratorError(f"state blew up during the step at t = {state.t}")
    return out


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def initial_state(spec, ops: DiscreteOperators, cfg: PlateConfig, seed: int = 0) -> State:
    """Materialise an initial condition.

    spec is a State (returned as a copy) or a tuple tag:
      ("mode", m, k, amplitude)      single basis mode, zero velocity
      ("random", radius)             smooth random state, phase-space norm = radius
      ("stationary_kick", kick)      Newton-refined equilibrium plus a random
                                     velocity of L2 norm `kick`
    """
    if isinstance(spec, State):
        return spec.copy()
    kind = spec[0]
    n = ops.n
    if kind == "mode":
        _, m, k, amp = spec
        if not (1 <= m <= ops.basis.Mx and 0 <= k < ops.basis.Ny):
            raise ValueError(f"mode ({m}, {k}) outside the basis")
        u = np.zeros(n)
        u[(m - 1) * ops.basis.Ny + k] = amp
        return State(u, np.zeros(n), 0.0)
    if kind == "random":
        _, radius = spec
        rng = np.random.default_rng(seed)
        cu = rng.standard_normal(n) / (1.0 + ops.mu)
        cv = rng.standard_normal(n) / (1.0 + np.sqrt(ops.mu))
        u = ops.phi @ cu
        v = ops.phi @ cv
        nrm = np.sqrt(ops.state_norm_sq(u, v))
        if radius == 0.0 or nrm == 0.0:
            return State(np.zeros(n), np.zeros(n), 0.0)
        return State(u * (radius / nrm), v * (radius / nrm), 0.0)
    if kind == "stationary_kick":
        _, kick = spec
        rng = np.random.default_rng(seed)
        guess = ops.phi @ (rng.standard_normal(n) / (1.0 + ops.mu))
        res = solve_stationary(cfg, ops, guess)
        v = ops.phi @ (rng.standard_normal(n) / (1.0 + np.sqrt(ops.mu)))
        vn = np.sqrt(ops.l2_norm_sq(v))
        if vn > 0 and kick != 0.0:
            v *= kick / vn
        else:
            v = np.zeros(n)
        return State(res.u, v, 0.0)
    raise ValueError(f"unknown initial-condition tag {spec!r}")


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------

def run(ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan, initial,
        cert: SourceCertificate | None = None, flush_path=None) -> Trajectory:
    """Advance from the initial condition to T, recording the energy ledger.

    Deterministic for fixed (cfg, plan, seed).  The damping and flux time
    integrals are accumulated with the per-step trapezoid rule, so the
    ledger's identity residual is scheme-consistent.  If a step fails and
    flush_path is given, the partial trajectory is written there before
    the failure propagates.
    """
    cert = cert or certify_source(cfg)
    if not cert.ok:
        raise IntegratorError(f"source certificate failed: {cert.message}")
    cache = SolverCache(ops, cfg, plan.dt)
    state = initial_state(initial, ops, cfg, plan.seed)

    n_steps = int(round(plan.T / plan.dt)) if plan.T > 0 else 0

    def damping_integrand(st: State) -> float:
        sp2 = ops.l2_norm_sq(st.v)
        return damping_gain(float(np.sqrt(max(sp2, 0.0))), cfg) * sp2

    def flux_integrand(st: State) -> float:
        # (u_y, u_t); the ledger stores -beta * its time integral
        return float(st.u @ ops.Dy @ st.v)

    times, us, vs = [], [], []
    damp_acc, flux_acc = [], []
    d_acc = 0.0
    f_acc = 0.0

    def record(st: State):
        times.append(st.t)
        us.append(st.u.copy())
        vs.append(st.v.copy())
        damp_acc.append(d_acc)
        flux_acc.append(f_acc)

    record(state)

    g_prev = damping_integrand(state)
    f_prev = flux_integrand(state)
    for k in range(1, n_steps + 1):
        try:
            state = step(state, ops, cfg, plan, cache)
        except Exception:
            # any step failure: flush what we have, then propagate
            if flush_path is not None and times:
                _flush_partial(flush_path, times, us, vs, ops, plan)
            raise
        g_now = damping_integrand(state)
        f_now = flux_integrand(state)
        d_acc += 0.5 * plan.dt * (g_prev + g_now)
        f_acc += -cfg.beta * 0.5 * plan.dt * (f_prev + f_now)
        g_prev, f_prev = g_now, f_now
        if k % plan.snapshot_every == 0 or k == n_steps:
            record(state)

    times = np.asarray(times)
    us = np.asarray(us)
    vs = np.asarray(vs)
    ledger = _build_ledger(times, us, vs, np.asarray(damp_acc), np.asarray(flux_acc),
                           ops, cfg, cert)
    meta = {"cfg": cfg, "plan": plan, "Mx": ops.basis.Mx, "Ny": ops.basis.Ny,
            "cert": cert}
    return Trajectory(times=times, us=us, vs=vs, ledger=ledger, meta=meta)


def _flush_partial(path, times, us, vs, ops, plan) -> None:
    from .reporting import save_trajectory

    partial = Trajectory(times=np.asarray(times), us=np.asarray(us),
                         vs=np.asarray(vs), ledger=None,
                         meta={"plan": plan, "Mx": ops.basis.Mx,
                               "Ny": ops.basis.Ny, "partial": True})
    save_trajectory(path, partial, config_hash="")


def _build_ledger(times, us, vs, damp, flux, ops, cfg, cert) -> energy_mod.EnergyLedger:
    kin = 0.5 * ops.l2_norm_sq(vs)
    bend = 0.5 * ops.bending_norm_sq(us)
    pi = energy_mod.potential_energy(us, ops, cfg)
    pi0, pi1 = energy_mod.split_from_potential(pi, us, ops, cfg, cert)
    E = kin + bend + pi0
    Etot = E + pi1
    residual = (Etot - Etot[0]) + (damp - damp[0]) - (flux - flux[0])
    return energy_mod.EnergyLedger(t=times, kinetic=kin, bending=bend, Pi=pi,
                                   Pi0=pi0, Pi1=pi1, E=E, Etot=Etot,
                                   damping_integral=damp, flux_integral=flux,
                                   identity_residual=residual)
