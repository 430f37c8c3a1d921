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

`step` also advances a member stack (S, n) row by row, each row with the
bits it has alone; `run_ensemble` drives S members that way with one
`step` call per time step, and `run` is its one-member case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import energy as energy_mod
from .discretization import DiscreteOperators, bilinear_form
from .model import (PlateConfig, SourceCertificate, State, certify_source,
                    damping_gain, damping_gains, force_load, horner, solve_stationary)


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
        self.phi_T = np.ascontiguousarray(phi.T)
        self.phi_TM = phi.T @ ops.M
        self.base = 2.0 / dt + 0.5 * dt * mu
        self.base0 = self.base + damping_gain(0.0, cfg)
        if np.any(self.base0 <= 0.0):
            raise IntegratorError(
                "time step too large for the negative-stiffness modes "
                f"(min base {self.base.min():.3e}); reduce dt")
        self.K_lin = K_lin
        # loads beyond K_lin: everything except the alpha Gx part
        self.has_nl_load = (cfg.delta != 0.0 or cfg.kappa != 0.0
                            or cfg.beta != 0.0 or not cfg.source.is_zero)
        self.gain_constant = cfg.q_eff == 0   # g(s) = b_0: no scalar iteration
        # g'(s) = sum_j j b_j s^(j-1)
        self.slope_coeffs = tuple(j * b for j, b in enumerate(cfg.damping_coeffs))[1:]

    def residual_load(self, u_m: np.ndarray) -> np.ndarray:
        """force_load minus the alpha-part already inside K_lin (row-wise on a stack)."""
        out = force_load(u_m, self.ops, self.cfg)
        if self.cfg.alpha != 0.0:
            out -= self.cfg.alpha * np.matvec(self.ops.Gx, u_m)
        return out


SPEED_MAXITER = 100
RELAX = 0.8     # fixed-point relaxation once a member's change grows


def solve_midpoint_speed(r_modal: np.ndarray, cache: SolverCache,
                         tol: float = 1e-14, guess=None):
    """Root of rho = ||v_m(rho)||_0 closing the implicit nonlocal damping.

    v_m(rho)_i = r_i / (base_i + g(rho)) in modal coordinates.  The gap
    ||v_m(rho)|| - rho is strictly decreasing for nonnegative damping
    coefficients, with derivative -g'(rho) sum_i r_i^2/(base_i + g)^3 /
    ||v_m|| - 1, so the root is unique and lies in [0, rho0], rho0 =
    ||v_m(0)||.  Newton's method runs from `guess` (default rho0),
    bisecting the bracket whenever a step leaves it, until a step is at
    most xtol = tol (1 + rho0).  Linear damping (g constant) short-circuits
    to the closed form.

    r_modal is one vector (n,), giving a float, or a member stack (S, n),
    giving one speed per row (guess then holds one per row).  Each Newton
    iteration evaluates the gap and its derivative for every unfinished
    row in one pass over the stack; the scalar update runs per row, and a
    row stops at its own tolerance, so its result has the same bits
    whatever rows share the stack.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    r = np.asarray(r_modal, dtype=float)
    R = r.reshape(-1, r.shape[-1])
    w = R / cache.base0
    rho0 = np.sqrt(np.vecdot(w, w))
    if cache.gain_constant:
        return rho0 if r.ndim > 1 else float(rho0[0])
    out = rho0.tolist()                 # rho0 = 0 (or NaN) is its own answer
    xtol = [tol * (1.0 + h) for h in out]
    hi = list(out)
    lo = [0.0] * len(hi)
    rho = list(hi) if guess is None else [min(h, g) for g, h in      # NaN: rho0
                                           zip(np.ravel(guess).tolist(), hi)]
    live = [i for i, h in enumerate(hi) if h > 0.0]
    coeffs, slope_coeffs, base = cache.cfg.damping_coeffs, cache.slope_coeffs, cache.base
    for _ in range(SPEED_MAXITER):
        if not live:
            return np.array(out) if r.ndim > 1 else out[0]
        x = [rho[i] for i in live]
        d = base + np.array([horner(coeffs, xi) for xi in x])[:, None]
        w = (R if len(live) == len(R) else R[live]) / d
        nw2 = np.vecdot(w, w).tolist()
        curv = np.vecdot(w, w / d).tolist()     # sum r^2 / (base + g)^3
        unfinished = []
        for i, xi, s2, c in zip(live, x, nw2, curv):
            nw = math.sqrt(s2)
            gap = nw - xi
            new = xi - gap / (-horner(slope_coeffs, xi) * c / nw - 1.0)
            if not abs(new - xi) > xtol[i]:     # converged, or NaN
                out[i] = new
                continue
            if gap < 0.0:
                hi[i] = xi
            else:
                lo[i] = xi
            if not lo[i] < new < hi[i]:
                new = 0.5 * (lo[i] + hi[i])
            rho[i] = new
            unfinished.append(i)
        live = unfinished
    raise IntegratorError(f"speed solve did not converge in {SPEED_MAXITER} iterations")


def step(state: State, ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan,
         cache: SolverCache | None = None, failures: dict | None = None) -> State:
    """One implicit-midpoint step of one state (n,) or of a member stack (S, n).

    Every member runs its own fixed-point iteration, relaxation switch and
    convergence test; a converged member is frozen while the others
    iterate, so each row has the same bits whatever rows share the stack.
    A member that fails (non-finite state, fixed point not converged,
    blow-up) raises IntegratorError, unless `failures` is a dict: then its
    message is stored under its row index, its row of the result is not
    finite, and the other members advance.
    """
    cache = cache or SolverCache(ops, cfg, plan.dt)
    dt, h = plan.dt, 0.5 * plan.dt
    U0, V0 = np.atleast_2d(state.u), np.atleast_2d(state.v)
    S = len(U0)
    errors = {}
    rows = list(range(S))           # members still iterating
    u0, v0 = U0, V0
    if not (np.isfinite(U0).all() and np.isfinite(V0).all()):
        finite = (np.isfinite(U0).all(axis=1) & np.isfinite(V0).all(axis=1)).tolist()
        errors = {j: f"non-finite state at t = {state.t}" for j in rows if not finite[j]}
        rows = [j for j in rows if finite[j]]
        u0, v0 = U0[rows], V0[rows]
    base_rhs = (2.0 / dt) * np.matvec(ops.M, v0) - np.matvec(cache.K_lin, u0)
    u_m = u0 + h * v0
    v_m = v0
    # Newton's warm start: the speed at the start of the step
    rho = None if cache.gain_constant else np.sqrt(np.maximum(ops.l2_norm_sq(v0), 0.0))
    last = [math.inf] * len(rows)
    relaxed = [False] * len(rows)
    settled = []                    # (rows, u_m, v_m) of converged members
    for _ in range(plan.fp_maxiter):
        if not rows:
            break
        rhs = base_rhs + cache.residual_load(u_m) if cache.has_nl_load else base_rhs
        r_modal = np.matvec(cache.phi_T, rhs)
        rho = solve_midpoint_speed(r_modal, cache, guess=rho)
        denom = (cache.base0 if cache.gain_constant
                 else cache.base + damping_gains(rho, cfg)[:, None])
        w = r_modal / denom
        v_new = np.matvec(cache.phi, w)
        if any(relaxed):
            v_new = np.where(np.array(relaxed)[:, None],
                             RELAX * v_new + (1.0 - RELAX) * v_m, v_new)
        u_new = u0 + h * v_new
        if not cache.has_nl_load:
            settled.append((rows, u_new, v_new))
            rows = []
            break
        change = 2.0 * np.sqrt(np.maximum(ops.state_norm_sq(u_new - u_m, v_new - v_m), 0.0))
        u_m, v_m = u_new, v_new
        change = change.tolist()
        done = [not c > plan.fp_tol for c in change]    # non-finite rows fail below
        if all(done):
            settled.append((rows, u_m, v_m))
            rows = []
            break
        if any(done):
            settled.append(([j for j, d in zip(rows, done) if d], u_m[done], v_m[done]))
            keep = [not d for d in done]
            rows, change, last, relaxed = (
                [a for a, k in zip(seq, keep) if k] for seq in (rows, change, last, relaxed))
            u0, base_rhs, u_m, v_m, rho = (a[keep] for a in (u0, base_rhs, u_m, v_m, rho))
        relaxed = [rl or c > lc for rl, c, lc in zip(relaxed, change, last)]
        last = change
    for j, c in zip(rows, last):
        errors[j] = (f"fixed point did not converge in {plan.fp_maxiter} iterations "
                     f"(last change {c:.3e} in the phase-space norm); reduce dt")

    if len(settled) == 1 and len(settled[0][0]) == S:
        _, UM, VM = settled[0]          # every member converged at once
    else:
        UM, VM = np.full_like(U0, np.nan), np.full_like(V0, np.nan)
        for done_rows, um, vm in settled:
            UM[done_rows], VM[done_rows] = um, vm
    U1 = 2.0 * UM - U0
    V1 = 2.0 * VM - V0
    if errors or not (np.isfinite(U1).all() and np.isfinite(V1).all()):
        finite = (np.isfinite(U1).all(axis=1) & np.isfinite(V1).all(axis=1)).tolist()
        for j in range(S):
            if not finite[j]:
                errors.setdefault(j, f"state blew up during the step at t = {state.t}")
        if failures is None:
            raise IntegratorError(errors[min(errors)])
        failures.update(errors)
    if np.ndim(state.u) == 1:
        U1, V1 = U1[0], V1[0]
    return State(U1, V1, state.t + dt)


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

def run_ensemble(ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan, initials,
                 cert: SourceCertificate | None = None, flush_paths=None) -> list:
    """Advance S initial conditions to T together, as one member stack (S, n).

    One `step` call per time step advances every member, and a member's
    trajectory has the same bits whatever other members share the stack.
    Returns one entry per member, in order: its Trajectory, with the energy
    ledger, or the IntegratorError that ended it.  A failed member leaves
    the stack at that step and the others continue; any other exception
    ends the whole run.  Initial conditions are materialised with
    plan.seed and must share their start time.  If flush_paths gives a
    path for a member, its partial trajectory is written there when it
    fails.  The damping and flux time integrals are accumulated with the
    per-step trapezoid rule, so each ledger's identity residual is
    scheme-consistent.
    """
    cert = cert or certify_source(cfg)
    if not cert.ok:
        raise IntegratorError(f"source certificate failed: {cert.message}")
    cache = SolverCache(ops, cfg, plan.dt)
    starts = [initial_state(x, ops, cfg, plan.seed) for x in initials]
    if not starts:
        return []
    if any(st.t != starts[0].t for st in starts):
        raise ValueError("ensemble members must share their start time")
    flush_paths = flush_paths or [None] * len(starts)

    n_steps = int(round(plan.T / plan.dt)) if plan.T > 0 else 0
    every = plan.snapshot_every
    n_snap = 1 + n_steps // every + (n_steps % every != 0)
    S, n = len(starts), ops.n
    times = np.empty(n_snap)
    us, vs = np.empty((S, n_snap, n)), np.empty((S, n_snap, n))
    damp, flux = np.empty((S, n_snap)), np.empty((S, n_snap))
    ends = np.full(S, n_snap)               # snapshots recorded per member
    errors = {}

    state = State(np.array([st.u for st in starts]), np.array([st.v for st in starts]),
                  starts[0].t)
    members = np.arange(S)                  # stack row -> member
    at = slice(None)                        # rows of us etc. written at a snapshot
    d_acc = np.zeros(S)
    f_acc = np.zeros(S)
    slot = 0

    def integrands(st: State):
        # damping g(||v||) ||v||^2 and (u_y, u_t); the ledger stores
        # -beta times the time integral of the second
        sp2 = ops.l2_norm_sq(st.v)
        return (damping_gains(np.sqrt(np.maximum(sp2, 0.0)), cfg) * sp2,
                bilinear_form(ops.Dy, st.u, st.v))

    def record():
        nonlocal slot
        times[slot] = state.t
        us[at, slot], vs[at, slot] = state.u, state.v
        damp[at, slot], flux[at, slot] = d_acc, f_acc
        slot += 1

    def flush(m):
        if flush_paths[m] is not None:
            _flush_partial(flush_paths[m], times[:ends[m]], us[m, :ends[m]],
                           vs[m, :ends[m]], ops, plan)

    record()
    g_prev, f_prev = integrands(state)
    try:
        for k in range(1, n_steps + 1):
            failed = {}
            state = step(state, ops, cfg, plan, cache, failed)
            if failed:
                for j, msg in failed.items():
                    m = int(members[j])
                    errors[m] = IntegratorError(msg)
                    ends[m] = slot
                    flush(m)
                keep = np.ones(len(members), dtype=bool)
                keep[list(failed)] = False
                members, d_acc, f_acc, g_prev, f_prev = (
                    a[keep] for a in (members, d_acc, f_acc, g_prev, f_prev))
                at = members
                state = State(state.u[keep], state.v[keep], state.t)
                if not members.size:
                    break
            g_now, f_now = integrands(state)
            d_acc = d_acc + 0.5 * plan.dt * (g_prev + g_now)
            f_acc = f_acc + -cfg.beta * 0.5 * plan.dt * (f_prev + f_now)
            g_prev, f_prev = g_now, f_now
            if k % every == 0 or k == n_steps:
                record()
    except Exception:
        # any other failure ends every member: flush what they have, then propagate
        for m in members:
            ends[m] = slot
            flush(m)
        raise

    out = []
    for m in range(S):
        if m in errors:
            out.append(errors[m])
            continue
        ledger = _build_ledger(times, us[m], vs[m], damp[m], flux[m], ops, cfg, cert)
        meta = {"cfg": cfg, "plan": plan, "Mx": ops.basis.Mx, "Ny": ops.basis.Ny,
                "cert": cert}
        out.append(Trajectory(times=times.copy(), us=us[m], vs=vs[m], ledger=ledger,
                              meta=meta))
    return out


def run(ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan, initial,
        cert: SourceCertificate | None = None, flush_path=None) -> Trajectory:
    """Advance from the initial condition to T, recording the energy ledger.

    The one-member case of `run_ensemble`.  Deterministic for fixed (cfg,
    plan, seed).  If a step fails and flush_path is given, the partial
    trajectory is written there before the failure propagates.
    """
    (out,) = run_ensemble(ops, cfg, plan, [initial], cert, [flush_path])
    if isinstance(out, IntegratorError):
        raise out
    return out


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
