"""Energy-consistent implicit-midpoint time stepping.

One step advances (u0, v0) -> (u1, v1) through the midpoint values
u_m = (u0 + u1)/2, v_m = (v0 + v1)/2 satisfying

    M (v1 - v0)/dt + K u_m + g(||v_m||_0) M v_m = load(u_m),
    (u1 - u0)/dt = v_m.

The linear part (including the alpha u_xx term, which is linear) is
solved exactly through the generalized eigendecomposition of
(K - alpha Gx, M), factorised block by block (per sine index) once per
SolverCache, which also holds the operators, config and plan that every
step reads; the modal transforms are batched block products, and in
modal coordinates every solve is diagonal.  The
nonlocal damping is closed implicitly by a scalar root solve for
rho = ||v_m||_0, and the remaining nonlinear loads (stretching, stays,
source, flow term) are handled by an outer fixed-point iteration.  With
D_k the change of the end state at iteration k and L = D_k/D_{k-1} its
measured contraction, a step stops once D_k <= fp_tol, once the
a-posteriori bound L/(1 - L) D_k is, with L <= 0.5, or once D_k stops
shrinking at its roundoff floor (STALL eps ||(u_m, v_m)||); it fails
after fp_maxiter iterations.

On the purely linear conservative subsystem the scheme conserves the
discrete quadratic energy exactly (up to roundoff); with nonlinearities
the energy-identity defect is O(dt^2) per unit time.

`step` also advances a member stack (S, n) row by row, each row with the
bits it has alone and each failure the outcome of one row; `run_ensemble`
drives S members that way with one `step` call per time step, and `run`
is its one-member case.  A member ends with its Trajectory or with the
IntegratorError that stopped it, which carries the snapshots recorded
before the failure; this module writes no files.  The ledger's damping
and flux integrals are the per-step trapezoid rule, evaluated per block
of buffered steps in at most 2 ROW_BLOCK_BYTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import energy as energy_mod
from .discretization import (DiscreteOperators, bilinear_form, block_eigh, block_matvec,
                             block_vecmat)
from .model import (PlateConfig, SourceCertificate, State, certify_source, damping_gain,
                    ROW_BLOCK_BYTES, damping_gains, force_load, horner, in_row_blocks,
                    solve_stationary)


class IntegratorError(RuntimeError):
    """A numerical failure of the time stepping.  partial is the Trajectory
    (without ledger) of the snapshots recorded before it, or None when the
    integrator could not be set up."""

    def __init__(self, message: str, partial: Trajectory | None = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SimPlan:
    dt: float = 1e-3
    T: float = 1.0
    snapshot_every: int = 1
    fp_tol: float = 1e-11
    fp_maxiter: int = 60
    seed: int = 0

    def __post_init__(self):
        if (self.dt <= 0 or self.T < 0 or self.fp_tol <= 0 or self.fp_maxiter < 1
                or self.snapshot_every < 1):
            raise ValueError(f"invalid simulation plan: {self}")

    def snapshot_steps(self) -> np.ndarray:
        """The steps a run records: 0, every snapshot_every-th and the last of
        round(T/dt) steps."""
        n_steps = int(round(self.T / self.dt)) if self.T > 0 else 0
        steps = np.arange(0, n_steps + 1, self.snapshot_every)
        return steps if steps[-1] == n_steps else np.append(steps, n_steps)


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


class SolverCache:
    """The one system a run solves: its operators, config and plan (dt and
    the fixed-point stop), and the factorisation reused across steps: the
    sine blocks of K_lin = K - alpha Gx, their eigenvector blocks phi and,
    in the same block-major order, the per-mode constants base."""

    def __init__(self, ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan):
        self.ops = ops
        self.cfg = cfg
        self.plan = plan
        gx = ops.gx_diag.reshape(ops.k_blocks.shape[:2])
        self.K_lin = ops.k_blocks - cfg.alpha * gx[:, :, None] * np.eye(gx.shape[1])
        mu, self.phi = block_eigh(self.K_lin, ops.m_diag)
        self.base = 2.0 / plan.dt + 0.5 * plan.dt * mu.ravel()
        self.base0 = self.base + damping_gain(0.0, cfg)
        if np.any(self.base0 <= 0.0):
            raise IntegratorError(
                "time step too large for the negative-stiffness modes "
                f"(min base {self.base.min():.3e}); reduce dt")
        self.load_cfg = cfg.with_(alpha=0.0)     # alpha Gx is inside K_lin
        self.has_nl_load = (cfg.delta != 0.0 or cfg.kappa != 0.0
                            or cfg.beta != 0.0 or not cfg.source.is_zero)
        self.gain_constant = cfg.q_eff == 0   # g(s) = b_0: no scalar iteration
        # g'(s) = sum_j j b_j s^(j-1)
        self.slope_coeffs = tuple(j * b for j, b in enumerate(cfg.damping_coeffs))[1:]

    def residual_load(self, u_m: np.ndarray) -> np.ndarray:
        """force_load minus the alpha-part already inside K_lin (row-wise on a stack)."""
        return force_load(u_m, self.ops, self.load_cfg)


SPEED_MAXITER = 100
SPEED_TOL = 1e-14   # relative step tolerance of the speed solve
STALL = 1024    # roundoff floor of the fixed-point change, in eps * ||(u_m, v_m)||


def solve_midpoint_speed(r_modal: np.ndarray, cache: SolverCache, guess=None):
    """Root of rho = ||v_m(rho)||_0 closing the implicit nonlocal damping.

    v_m(rho)_i = r_i / (base_i + g(rho)) in modal coordinates.  The gap
    ||v_m(rho)|| - rho is strictly decreasing for nonnegative damping
    coefficients, with derivative -g'(rho) sum_i r_i^2/(base_i + g)^3 /
    ||v_m|| - 1, so the root is unique and lies in [0, rho0], rho0 =
    ||v_m(0)||.  Newton's method runs from `guess` (default rho0),
    bisecting the bracket whenever a step leaves it, until a step is at
    most SPEED_TOL (1 + rho0).  Linear damping (g constant) short-circuits
    to the closed form.

    r_modal is one vector (n,), giving a float, or a member stack (S, n),
    giving one speed per row (guess then holds one per row).  Each Newton
    iteration evaluates the gap and its derivative for every unfinished
    row in one pass over the stack; the scalar update runs per row, and a
    row stops at its own tolerance, so its result has the same bits
    whatever rows share the stack.  A row with no root after SPEED_MAXITER
    iterations, or with a non-finite r, gets NaN; nothing is raised.
    """
    r = np.asarray(r_modal, dtype=float)
    R = r.reshape(-1, r.shape[-1])
    w = R / cache.base0
    rho0 = np.sqrt(np.vecdot(w, w))
    if cache.gain_constant:
        return rho0 if r.ndim > 1 else float(rho0[0])
    out = rho0.tolist()                 # rho0 = 0 (or NaN) is its own answer
    xtol = [SPEED_TOL * (1.0 + h) for h in out]
    hi = list(out)
    lo = [0.0] * len(hi)
    rho = list(hi) if guess is None else [min(h, g) for g, h in      # NaN: rho0
                                           zip(np.ravel(guess).tolist(), hi)]
    live = [i for i, h in enumerate(hi) if h > 0.0]
    coeffs, slope_coeffs, base = cache.cfg.damping_coeffs, cache.slope_coeffs, cache.base
    for _ in range(SPEED_MAXITER):
        if not live:
            break
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
    for i in live:                      # no root in SPEED_MAXITER iterations
        out[i] = math.nan
    return np.array(out) if r.ndim > 1 else out[0]


def step(state: State, cache: SolverCache, failures: dict | None = None,
         iterations: list | None = None) -> State:
    """One implicit-midpoint step of one state (n,) or of a member stack (S, n)
    of the system of `cache`: its operators, config, dt and fixed-point stop.

    Every member runs its own fixed-point iteration and convergence test; a
    converged member is written into the result and frozen while the
    others iterate, so each row has the same bits whatever rows share the
    stack.  Let D_k be the change of a member's end state between
    iterations k - 1 and k, in the phase-space norm, and L = D_k / D_{k-1}
    its measured contraction.  The member converges at iteration k when
    D_k is at most fp_tol; when the a-posteriori (Banach) bound
    L/(1 - L) D_k on its distance to the fixed point is, a test used only
    for k >= 2 and L <= 0.5; or when D_k stops shrinking at its roundoff
    floor, STALL * eps * ||(u_m, v_m)|| or less.  No other rule applies:
    a member that meets none of these by iteration fp_maxiter fails.
    A member fails on its own (non-finite state, load overflow, speed
    solve without a root, fixed point not converged, blow-up): its row of
    the result is not finite, and the other rows are unaffected.  A failure
    raises IntegratorError, unless `failures` is a dict: then each message
    is stored under its row index.  If `iterations` is a list, it is set
    to each row's number of fixed-point iterations (0 for a row that never
    iterated, fp_maxiter for one that did not converge).
    """
    ops, cfg, plan = cache.ops, cache.cfg, cache.plan
    dt, h = plan.dt, 0.5 * plan.dt
    n = state.u.shape[-1]
    U0, V0 = state.u.reshape(-1, n), state.v.reshape(-1, n)
    S = len(U0)
    its = [0] * S
    errors = {}
    rows = list(range(S))           # members still iterating
    mid = None      # (u_m, v_m) per row, once rows settle at different iterations
    unstarted = []  # rows whose start is not finite
    u0 = U0
    base_rhs = (2.0 / dt) * (ops.m_diag * V0) - block_matvec(cache.K_lin, U0)
    u_m = U0 + h * V0
    v_m = V0
    # Newton's warm start: the speed at the start of the step
    rho = None if cache.gain_constant else np.sqrt(np.maximum(ops.l2_norm_sq(V0), 0.0))
    last = [math.inf] * S
    for it in range(1, plan.fp_maxiter + 1):
        load = cache.residual_load(u_m) if cache.has_nl_load else None
        r_modal = block_vecmat(base_rhs if load is None else base_rhs + load, cache.phi)
        rho = solve_midpoint_speed(r_modal, cache, guess=rho)
        denom = (cache.base0 if cache.gain_constant
                 else cache.base + damping_gains(rho, cfg)[:, None])
        w = r_modal / denom
        v_new = block_matvec(cache.phi, w)
        u_new = u0 + h * v_new
        if load is None:    # linear load: the first iterate is exact (NaN where rho is)
            change = (0.0 * rho).tolist()
        else:
            change = (2.0 * np.sqrt(np.maximum(
                ops.state_norm_sq(u_new - u_m, v_new - v_m), 0.0))).tolist()
        u_m, v_m = u_new, v_new
        # non-finite rows fail below; at k = 1 last is inf, so L <= 0.5 cannot hold
        done = [not c > plan.fp_tol
                or c <= 0.5 * lc < math.inf and c * c / (lc - c) <= plan.fp_tol
                for c, lc in zip(change, last)]
        stalled = [i for i, (c, lc, d) in enumerate(zip(change, last, done))
                   if not d and c >= lc]
        if stalled:     # at its roundoff floor the change stops shrinking
            floor = STALL * np.finfo(float).eps * np.sqrt(
                ops.state_norm_sq(u_m[stalled], v_m[stalled]))
            for i, f in zip(stalled, floor.tolist()):
                done[i] = change[i] <= f < math.inf     # no floor from an overflow
        # a non-finite start, an overflowed load or a NaN speed makes the
        # change non-finite; such a row fails, and settles as NaN
        if not math.isfinite(sum(change)):
            load_ok = [True] * len(rows) if load is None else np.isfinite(load).all(axis=1)
            start_ok = ([True] * len(rows) if it > 1 else
                        (np.isfinite(U0).all(axis=1) & np.isfinite(V0).all(axis=1)).tolist())
            for i, (fin, ok, speed) in enumerate(zip(start_ok, load_ok, rho.tolist())):
                if not fin:
                    errors[rows[i]] = f"non-finite state at t = {state.t}"
                    unstarted.append(rows[i])
                elif not ok or math.isnan(speed):
                    errors[rows[i]] = (
                        f"speed solve did not converge in {SPEED_MAXITER} iterations" if ok
                        else f"load evaluation overflowed at t = {state.t}")
                else:
                    continue
                u_m[i] = v_m[i] = np.nan
                done[i] = True
        if any(done):
            if mid is None and all(done):   # every row settles at once
                its, rows = [it] * S, []
                break
            if mid is None:
                mid = np.full((2, S, n), np.nan)
            for i, j in enumerate(rows):
                if done[i]:
                    mid[0, j], mid[1, j], its[j] = u_m[i], v_m[i], it
            rows = [j for j, d in zip(rows, done) if not d]
            if not rows:
                break
            keep = [not d for d in done]
            change = [c for c, k in zip(change, keep) if k]
            u0, base_rhs, u_m, v_m, rho = (a[keep] for a in (u0, base_rhs, u_m, v_m, rho))
        last = change
    for j, c in zip(rows, last):
        errors[j] = (f"fixed point did not converge in {plan.fp_maxiter} iterations "
                     f"(last change {c:.3e} in the phase-space norm); reduce dt")
        its[j] = plan.fp_maxiter
    for j in unstarted:
        its[j] = 0
    if iterations is not None:
        iterations[:] = its
    if rows and mid is None:        # no row converged
        mid = np.full((2, S, n), np.nan)
    UM, VM = (u_m, v_m) if mid is None else mid
    U1 = 2.0 * UM - U0
    V1 = 2.0 * VM - V0
    # a non-finite entry makes the product non-finite; an overflow of finite
    # entries costs only the row check
    if errors or not math.isfinite(np.vdot(U1, V1)):
        finite = (np.isfinite(U1).all(axis=1) & np.isfinite(V1).all(axis=1)).tolist()
        for j in range(S):
            if not finite[j]:
                errors.setdefault(j, f"state blew up during the step at t = {state.t}")
    if errors:
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
        u = ops.from_modal(rng.standard_normal(n) / (1.0 + ops.mu))
        v = ops.from_modal(rng.standard_normal(n) / (1.0 + np.sqrt(ops.mu)))
        nrm = np.sqrt(ops.state_norm_sq(u, v))
        if radius == 0.0 or nrm == 0.0:
            return State(np.zeros(n), np.zeros(n), 0.0)
        return State(u * (radius / nrm), v * (radius / nrm), 0.0)
    if kind == "stationary_kick":
        _, kick = spec
        rng = np.random.default_rng(seed)
        guess = ops.from_modal(rng.standard_normal(n) / (1.0 + ops.mu))
        res = solve_stationary(cfg, ops, guess)
        v = ops.from_modal(rng.standard_normal(n) / (1.0 + np.sqrt(ops.mu)))
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
                 cert: SourceCertificate | None = None) -> list:
    """Advance S initial conditions to T together, as one member stack (S, n).

    One `step` call per time step advances every member, and a member's
    trajectory has the same bits whatever other members share the stack.
    Returns one entry per member, in order: its Trajectory, with the energy
    ledger and, in meta["fp_iterations"], the histogram {iterations: steps}
    of its fixed-point iteration counts, or the IntegratorError that ended
    it, whose `partial` holds the snapshots recorded before the failure.
    A failure in a step ends only the member that caused it, which keeps
    its row of the stack as NaN; the others continue with their own bits.
    A failure of the shared set-up (time step too large, source not
    certified; `partial` is None) ends every member.  Initial conditions
    are materialised with plan.seed and must share their start time.  The
    damping and flux time integrals are the per-step trapezoid rule, so
    each ledger's identity residual is scheme-consistent.  They are taken
    per block of buffered steps: the end states of up to
    max(1, ROW_BLOCK_BYTES // (8 S n)) steps, at most 2 ROW_BLOCK_BYTES
    for u and v, get their integrands in one call, and one cumulative sum
    adds the increments in step order, with the bits of per-step sums; the
    snapshots among them are filled at the same time.
    """
    try:
        cert = cert or certify_source(cfg)
        if not cert.ok:
            raise IntegratorError(f"source certificate failed: {cert.message}")
        cache = SolverCache(ops, cfg, plan)
    except IntegratorError as exc:
        return [IntegratorError(str(exc)) for _ in initials]
    starts = [initial_state(x, ops, cfg, plan.seed) for x in initials]
    if not starts:
        return []
    if any(st.t != starts[0].t for st in starts):
        raise ValueError("ensemble members must share their start time")

    steps = plan.snapshot_steps()
    n_steps, n_snap = int(steps[-1]), steps.size
    S, n = len(starts), ops.n
    times = np.empty(n_snap)
    us, vs = np.empty((S, n_snap, n)), np.empty((S, n_snap, n))
    damp, flux = np.empty((S, n_snap)), np.empty((S, n_snap))
    errors = {}                             # member -> (message, step that failed)
    fp_hist = [[0] * (plan.fp_maxiter + 1) for _ in range(S)]
    its = []                                # fixed-point iterations per member
    block = max(1, ROW_BLOCK_BYTES // (8 * S * n))
    ub, vb = np.empty((2, block, S, n))     # end states of the buffered steps
    tb = np.empty(block)
    coeffs = (0.5 * plan.dt, -cfg.beta * 0.5 * plan.dt)

    def integrands(u, v):
        # damping g(||v||) ||v||^2 and (u_y, u_t) per row; the ledger
        # stores -beta times the time integral of the second
        sp2 = ops.l2_norm_sq(v)
        return (damping_gains(np.sqrt(np.maximum(sp2, 0.0)), cfg) * sp2,
                bilinear_form(ops.dy_blocks, u, v))

    state = State(np.array([st.u for st in starts]), np.array([st.v for st in starts]),
                  starts[0].t)
    times[0] = state.t
    us[:, 0], vs[:, 0] = state.u, state.v
    damp[:, 0] = flux[:, 0] = 0.0
    last = integrands(state.u, state.v)     # at the step before the buffer
    totals = (damp[:, 0], flux[:, 0])

    def flush(k, b):
        """Add the trapezoid increments of the b buffered steps that end at
        step k, each in turn, and fill the snapshots among them."""
        nonlocal last, totals
        now = integrands(ub[:b].reshape(-1, n), vb[:b].reshape(-1, n))
        sums = []
        for c, x0, x, acc in zip(coeffs, last, now, totals):
            x = np.concatenate([x0, x]).reshape(b + 1, S)
            inc = c * (x[:-1] + x[1:])
            sums.append(np.cumsum(np.concatenate([acc[None], inc]), axis=0))
        last = tuple(x[-S:] for x in now)
        totals = tuple(x[-1] for x in sums)
        lo, hi = np.searchsorted(steps, (k - b + 1, k + 1))
        j = steps[lo:hi] - (k - b + 1)
        times[lo:hi] = tb[j]
        us[:, lo:hi], vs[:, lo:hi] = ub[j].swapaxes(0, 1), vb[j].swapaxes(0, 1)
        damp[:, lo:hi], flux[:, lo:hi] = sums[0][j + 1].T, sums[1][j + 1].T

    b = 0                                   # steps in the buffer
    # an overflow or a NaN row is a member's failure, reported by its message
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            failed = {}
            state = step(state, cache, failed, its)
            for m, i in enumerate(its):
                fp_hist[m][i] += 1
            if failed:
                # step reports a non-finite row again at every later step
                new = [m for m in failed if m not in errors]
                for m in new:
                    errors[m] = (failed[m], k)
                if len(errors) == S:
                    flush(k - 1, b)
                    break
                state.u[new] = np.nan
                state.v[new] = np.nan
            ub[b], vb[b], tb[b] = state.u, state.v, state.t
            b += 1
            if b == block or k == n_steps:
                flush(k, b)
                b = 0

    out = []
    for m in range(S):
        meta = {"plan": plan, "Mx": ops.basis.Mx, "Ny": ops.basis.Ny}
        if m in errors:
            msg, k = errors[m]
            end = np.searchsorted(steps, k)     # the snapshots before step k
            out.append(IntegratorError(msg, Trajectory(times=times[:end].copy(), us=us[m, :end],
                                                       vs=vs[m, :end], ledger=None, meta=meta)))
            continue
        ledger = _build_ledger(times, us[m], vs[m], damp[m], flux[m], ops, cfg, cert)
        meta["fp_iterations"] = {k: c for k, c in enumerate(fp_hist[m]) if c}
        out.append(Trajectory(times=times.copy(), us=us[m], vs=vs[m], ledger=ledger, meta=meta))
    return out


def run(ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan, initial,
        cert: SourceCertificate | None = None) -> Trajectory:
    """Advance from the initial condition to T, recording the energy ledger.

    The one-member case of `run_ensemble`.  Deterministic for fixed (cfg,
    plan, seed).  A failure raises the member's IntegratorError, whose
    `partial` holds the snapshots recorded before it.
    """
    (out,) = run_ensemble(ops, cfg, plan, [initial], cert)
    if isinstance(out, IntegratorError):
        raise out
    return out


def _build_ledger(times, us, vs, damp, flux, ops, cfg, cert) -> energy_mod.EnergyLedger:
    def columns(u, v):
        return (0.5 * ops.l2_norm_sq(v), 0.5 * ops.bending_norm_sq(u),
                energy_mod.potential_energy(u, ops, cfg), ops.l2_norm_sq(u))

    kin, bend, pi, u_sq = in_row_blocks(ops, columns, us, vs)
    pi0, pi1 = energy_mod.split_from_potential(pi, u_sq, cfg, cert)
    E = kin + bend + pi0
    Etot = E + pi1
    residual = (Etot - Etot[0]) + (damp - damp[0]) - (flux - flux[0])
    return energy_mod.EnergyLedger(t=times, kinetic=kin, bending=bend, Pi=pi,
                                   Pi0=pi0, Pi1=pi1, E=E, Etot=Etot,
                                   damping_integral=damp, flux_integral=flux,
                                   identity_residual=residual)
