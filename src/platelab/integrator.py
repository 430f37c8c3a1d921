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
modal coordinates every solve is diagonal.  The nonlocal damping is
closed implicitly by a scalar root solve for rho = ||v_m||_0 (none for
a constant gain).  A linear load settles in one midpoint solve; the
nonlinear loads (stretching, stays, source, flow term) take an outer
fixed-point iteration.  With D_k the change of the end state at
iteration k and L = D_k/D_{k-1} its measured contraction, a step stops
once D_k <= fp_tol, once the a-posteriori bound L/(1 - L) D_k is, with
L <= 0.5, or once D_k stops shrinking at its roundoff floor (STALL eps
||(u_m, v_m)||); it fails after fp_maxiter iterations, or at once when
its iterate is not finite.

On the purely linear conservative subsystem the scheme conserves the
discrete quadratic energy exactly (up to roundoff); with nonlinearities
the energy-identity defect is O(dt^2) per unit time.

`step` advances a member stack (S, n) row by row, each row with the bits
it has alone, and returns each row's outcome: its failure, if any, and
its fixed-point iterations.  `run_ensemble` drives S members with one
`step` call per time step, step k ending at t0 + k dt (the plan's clock,
not a running sum), and `run` is its one-member case.  A member
ends with its Trajectory or with the IntegratorError that stopped it (a
failed step, or a ledger that cannot be built), which carries the
snapshots recorded before the failure; this module writes no files.
The ledger's damping and flux integrals are the per-step trapezoid rule
of `energy.rates`, taken in one pass over blocks of buffered steps (row 0
of the buffer holds the state they start from; at most 2 (ROW_BLOCK_BYTES
+ 8 S n) bytes), and `energy.build_ledger` builds the ledger from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import energy as energy_mod
from .discretization import DiscreteOperators, block_eigh, block_matvec, block_vecmat
from .model import (PlateConfig, SourceCertificate, State, certify_source, ROW_BLOCK_BYTES,
                    damping_gains, force_load, horner, solve_stationary)


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
        if self.T / self.dt > 2 ** 53:     # the largest step count a float holds exactly
            raise ValueError(f"t/dt = {self.T / self.dt:.6g} steps exceeds 2**53")

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
        self.base0 = self.base + cfg.b0
        if np.any(self.base0 <= 0.0):
            raise IntegratorError(
                "time step too large for the negative-stiffness modes "
                f"(min base {self.base.min():.3e}); reduce dt")
        self.load_cfg = replace(cfg, alpha=0.0)     # alpha Gx is inside K_lin
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


def solve_midpoint_speed(R: np.ndarray, cache: SolverCache, guess=None) -> np.ndarray:
    """Root of rho = ||v_m(rho)||_0 closing the implicit nonlocal damping,
    one per row of the modal right-hand sides R (S, n).

    v_m(rho)_i = r_i / (base_i + g(rho)) in modal coordinates.  The gap
    ||v_m(rho)|| - rho is strictly decreasing for nonnegative damping
    coefficients, with derivative -g'(rho) sum_i r_i^2/(base_i + g)^3 /
    ||v_m|| - 1, so the root is unique and lies in [0, rho0], rho0 =
    ||v_m(0)||.  Newton's method runs from `guess` (one per row, default
    rho0), bisecting the bracket whenever a step leaves it, until a step is
    at most SPEED_TOL (1 + rho0).

    Each Newton iteration evaluates the gap and its derivative for every
    unfinished row in one pass over the stack; the scalar update runs per
    row, and a row stops at its own tolerance, so its result has the same
    bits whatever rows share the stack.  A row with no root after
    SPEED_MAXITER iterations, with a non-finite r, or whose gain g
    overflows, gets NaN; nothing is raised.
    """
    w = R / cache.base0
    out = np.sqrt(np.vecdot(w, w)).tolist()     # rho0 = 0 (or NaN) is its own answer
    xtol = [SPEED_TOL * (1.0 + h) for h in out]
    hi = list(out)
    lo = [0.0] * len(hi)
    rho = list(hi) if guess is None else [min(h, g) for g, h in      # NaN: rho0
                                           zip(guess.tolist(), hi)]
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
            # nw = 0 at r != 0: g(xi) overflowed, and the speed is lost
            new = xi - gap / (-horner(slope_coeffs, xi) * c / nw - 1.0) if nw else math.nan
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
    return np.array(out)


def _midpoint(rhs: np.ndarray, u0: np.ndarray, rho: np.ndarray, cache: SolverCache):
    """(u_m, v_m, rho): the midpoints of the rows of nodal right-hand sides
    rhs (S, n) from start displacements u0, with the damping gain g(rho) at
    their speeds rho, which go in as the speed solve's warm start and come
    out as its roots; a constant gain g = b_0 needs no root and keeps them."""
    r_modal = block_vecmat(rhs, cache.phi)
    if cache.gain_constant:
        w = r_modal / cache.base0
    else:
        rho = solve_midpoint_speed(r_modal, cache, guess=rho)
        w = r_modal / (cache.base + damping_gains(rho, cache.cfg)[:, None])
    v_m = block_matvec(cache.phi, w)
    return u0 + 0.5 * cache.plan.dt * v_m, v_m, rho


def step(state: State, cache: SolverCache) -> tuple[State, dict, list]:
    """One implicit-midpoint step of a member stack (S, n) of the system of
    `cache`: its operators, config, dt and fixed-point stop.

    Returns (State, failures, iterations): the end states, the message of
    each failed row under its row index, and each row's number of
    fixed-point iterations.  A linear load (no stretching, stays, source
    or flow term) settles in one midpoint solve, as its first iterate is
    exact.  Otherwise every row runs its own fixed-point iteration and
    convergence test; a converged row is written into the result and
    frozen while the others iterate, so each row has the same bits
    whatever rows share the stack.  Let D_k be the change of a row's end
    state between iterations k - 1 and k, in the phase-space norm, and L =
    D_k / D_{k-1} its measured contraction.  The row converges at
    iteration k when D_k is at most fp_tol; when the a-posteriori (Banach)
    bound L/(1 - L) D_k on its distance to the fixed point is, a test used
    only for k >= 2 and L <= 0.5; or when D_k stops shrinking at its
    roundoff floor, STALL * eps * ||(u_m, v_m)|| or less.  No other rule
    applies: a row that meets none of these by iteration fp_maxiter fails.

    A row fails on its own, and nothing is raised, in one of three ways: a
    non-finite start (0 iterations); a non-finite iterate (a change that is
    not finite, because its load, its speed or its state left the
    floating-point range, or an end state that overflows), a message that
    names t and says to reduce dt; or no convergence within fp_maxiter
    iterations.  Its row of the result is NaN, and the other rows are
    unaffected.
    """
    ops, plan = cache.ops, cache.plan
    U0, V0 = state.u, state.v
    S, n = U0.shape
    errors = {}
    base_rhs = (2.0 / plan.dt) * (ops.m_diag * V0) - block_matvec(cache.K_lin, U0)
    # Newton's warm start: the speed at the start of the step
    rho = np.sqrt(ops.l2_norm_sq(V0))
    if not cache.has_nl_load:      # the first iterate is exact
        UM, VM, _ = _midpoint(base_rhs, U0, rho, cache)
        its = [1] * S
    else:
        its = [0] * S
        rows = list(range(S))           # rows still iterating
        mid = None      # (u_m, v_m) per row, once rows settle at different iterations
        u0, u_m, v_m = U0, U0 + 0.5 * plan.dt * V0, V0
        last = [math.inf] * S
        for it in range(1, plan.fp_maxiter + 1):
            u_new, v_new, rho = _midpoint(base_rhs + cache.residual_load(u_m), u0, rho, cache)
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
            # a non-finite start, load, speed or state makes the change
            # non-finite; such a row settles as NaN and fails in the scan below
            for i, c in enumerate(change):
                if not math.isfinite(c):
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
        UM, VM = (u_m, v_m) if mid is None else mid
    U1, V1 = 2.0 * UM - U0, 2.0 * VM - V0
    # a non-finite entry makes the product non-finite; an overflow of finite
    # entries costs only the row scan
    if errors or not math.isfinite(np.vdot(U1, V1)):
        start, end = ((np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)).tolist()
                      for u, v in ((U0, V0), (U1, V1)))
        for j in range(S):
            if not start[j]:
                errors[j], its[j] = f"non-finite state at t = {state.t}", 0
            elif not end[j]:
                errors.setdefault(j, f"non-finite iterate at t = {state.t}; reduce dt")
        U1[list(errors)] = V1[list(errors)] = np.nan
    return State(U1, V1, state.t + plan.dt), errors, its


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
    A failure in a step ends only the member that caused it, whose row of
    the stack `step` leaves NaN; the others continue with their own bits.
    So does a ledger with a non-finite entry or a negative Pi0: its error
    names the time of the first bad snapshot, and `partial` holds the
    snapshots before that one.
    A failure of the shared set-up (time step too large, source not
    certified; `partial` is None) ends every member.  Initial conditions
    are materialised with plan.seed and must share their start time t0.
    Step k ends at t0 + k dt, the time the next step's failure names, and
    the snapshot times, each member's own array, are t0 + dt *
    plan.snapshot_steps().  The time integrals of `energy.rates` are the
    per-step trapezoid rule, so each ledger's identity residual is
    scheme-consistent.  They are taken per block of b <= max(1,
    ROW_BLOCK_BYTES // (8 S n)) steps, which ends when full, at the last
    step or at the step where the last member fails.  Row 0 of its buffer
    holds the state the block starts from, rows 1..b the steps' end states
    (at most 2 (ROW_BLOCK_BYTES + 8 S n) bytes for u and v); one call gives
    their integrands, one cumulative sum adds the increments in step order
    with the bits of per-step sums, and the snapshots among them are filled.
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
    t0 = starts[0].t
    times = t0 + plan.dt * steps
    snaps = np.empty((2, S, n_snap, n))     # u and v of every member's snapshots
    integ = np.zeros((2, S, n_snap))        # their damping and flux integrals
    errors = {}                     # member -> (message, the snapshots it keeps)
    fp_hist = [[0] * (plan.fp_maxiter + 1) for _ in range(S)]
    block = max(1, ROW_BLOCK_BYTES // (8 * S * n))
    # row 0: the state the buffered steps start from; row b: the end of the b-th
    buf = np.empty((2, block + 1, S, n))
    # the ledger stores the time integrals of the damping rate and of -beta times the flux
    coeffs = np.array([0.5 * plan.dt, -cfg.beta * 0.5 * plan.dt])[:, None, None]
    acc = integ[:, :, 0]                    # the integrals at the step before the buffer

    state = State(np.array([st.u for st in starts]), np.array([st.v for st in starts]), t0)
    snaps[:, :, 0] = buf[:, 0] = state.u, state.v
    b = 0                                   # steps in the buffer
    # an overflow or a NaN row is a member's failure, reported by its message
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            state, failed, its = step(state, cache)
            state.t = t0 + k * plan.dt
            for m, i in enumerate(its):
                fp_hist[m][i] += 1
            for m, msg in failed.items():
                if m not in errors:     # a failed (NaN) row fails again at every later step
                    errors[m] = (msg, np.searchsorted(steps, k))    # the snapshots before k
            b += 1
            buf[0, b], buf[1, b] = state.u, state.v
            if b < block and k < n_steps and len(errors) < S:
                continue
            # the integrands of rows 0..b, and their trapezoid increments summed in step order
            x = np.reshape(energy_mod.rates(*buf[:, :b + 1].reshape(2, -1, n), ops, cfg),
                           (2, b + 1, S))
            sums = np.cumsum(np.concatenate([acc[:, None], coeffs * (x[:, :-1] + x[:, 1:])],
                                            axis=1), axis=1)
            lo, hi = np.searchsorted(steps, (k - b + 1, k + 1))
            j = steps[lo:hi] - (k - b)              # the snapshots' rows of the buffer
            snaps[:, :, lo:hi] = buf[:, j].swapaxes(1, 2)
            integ[:, :, lo:hi] = sums[:, j].swapaxes(1, 2)
            buf[:, 0], acc, b = buf[:, b], sums[:, -1], 0
            if len(errors) == S:
                break

        out = []
        for m in range(S):
            meta = {"plan": plan, "Mx": ops.basis.Mx, "Ny": ops.basis.Ny}
            if m not in errors:
                own = times.copy()      # the member's times, shared by its ledger
                try:
                    ledger = energy_mod.build_ledger(own, *snaps[:, m], *integ[:, m], ops, cfg,
                                                     cert)
                except energy_mod.EnergyError as exc:
                    errors[m] = (f"energy ledger fails at t = {times[exc.row]}: {exc}", exc.row)
                else:
                    meta["fp_iterations"] = {k: c for k, c in enumerate(fp_hist[m]) if c}
                    out.append(Trajectory(own, *snaps[:, m], ledger=ledger, meta=meta))
                    continue
            msg, end = errors[m]
            out.append(IntegratorError(msg, Trajectory(times[:end].copy(), *snaps[:, m, :end],
                                                       ledger=None, meta=meta)))
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

