"""Long-time-behavior experiments: absorption, pair squeezing, dimension.

Every driver is deterministic given its seed, aggregates results in a
fixed order, and reports verdicts
plus the fitted constants that produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import DiscreteOperators
from .integrator import IntegratorError, SimPlan, Trajectory, initial_state, run_ensemble
from .model import (PlateConfig, SourceCertificate, certify_source,
                    damping_gains, force_load, solve_stationary)


class ExperimentError(RuntimeError):
    pass


def _sample_seed(base: int, radius_idx: int, sample_idx: int) -> int:
    return (base * 1000003 + radius_idx * 10007 + sample_idx * 101) % (2 ** 63 - 1)


# ---------------------------------------------------------------------------
# dissipativity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan:
    radii: tuple[float, ...] = (1.0, 5.0, 25.0)
    samples_per_radius: int = 3
    T: float = 80.0
    tail_fraction: float = 0.5
    seed: int = 0
    dt: float = 2e-3
    snapshot_every: int = 10

    def __post_init__(self):
        if not all(r >= 0 for r in self.radii) or list(self.radii) != sorted(self.radii):
            raise ExperimentError(f"radii must be nonnegative and increasing: {self.radii}")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ExperimentError(f"tail_fraction must lie in (0,1): {self.tail_fraction}")
        if self.samples_per_radius < 1:
            raise ExperimentError(
                f"samples_per_radius must be >= 1, got {self.samples_per_radius}")

    def sim_plan(self, seed: int) -> SimPlan:
        return SimPlan(dt=self.dt, T=self.T, snapshot_every=self.snapshot_every,
                       seed=seed)


@dataclass
class SweepReport:
    radii: tuple[float, ...]
    tail_sups: list[list[float]]       # per radius, per sample (phase-space norm)
    radius_bounds: list[float]
    spread: float
    R0: float
    blowups: list[tuple[int, int]]     # (radius_idx, sample_idx)
    verdict: str
    meta: dict = field(default_factory=dict)


def _tail_norm_sup(traj: Trajectory, ops: DiscreteOperators, tail_fraction: float) -> float:
    norms = np.sqrt(ops.state_norm_sq(traj.us, traj.vs))
    t0 = traj.times[-1] * (1.0 - tail_fraction)
    mask = traj.times >= t0
    return float(np.max(norms[mask]))


def _random_start(ops, cfg, base_seed: int, radius: float, radius_idx: int,
                  sample_idx: int):
    return initial_state(("random", radius), ops, cfg,
                         _sample_seed(base_seed, radius_idx, sample_idx))


def _finished(results: list) -> list[Trajectory]:
    """The trajectories of run_ensemble, or its first failure in member order."""
    for res in results:
        if isinstance(res, IntegratorError):
            raise res
    return results


def dissipativity_sweep(ops: DiscreteOperators, cfg: PlateConfig, plan: SweepPlan,
                        threads: int = 1) -> SweepReport:
    """Tail sup of the phase-space norm per initial radius.

    All radius x sample members advance in this process as one ensemble;
    threads is accepted for compatibility and ignored.  A member whose
    step fails counts as a blow-up, and so does every member when the
    integrator cannot be set up.

    PASS iff no sample blows up and either the per-radius bounds agree
    within 25% relative spread (a single absorbing radius R0 emerges), or
    their largest, R0, is below the smallest positive initial radius, so
    every tested ball ends inside the smallest one (a point attractor).
    """
    members = [(i, j) for i in range(len(plan.radii))
               for j in range(plan.samples_per_radius)]
    starts = [_random_start(ops, cfg, plan.seed, plan.radii[i], i, j) for i, j in members]
    try:
        results = run_ensemble(ops, cfg, plan.sim_plan(plan.seed), starts)
    except IntegratorError:
        # the set-up failed (time step too large, source not certified):
        # no member can be advanced
        results = [None] * len(members)

    sups = [[math.nan] * plan.samples_per_radius for _ in plan.radii]
    blowups = []
    for (radius_idx, sample_idx), res in zip(members, results):
        if isinstance(res, Trajectory):
            sups[radius_idx][sample_idx] = _tail_norm_sup(res, ops, plan.tail_fraction)
        else:
            blowups.append((radius_idx, sample_idx))
    bounds = [max(row) if not any(map(math.isnan, row)) else math.inf for row in sups]
    finite = [b for b in bounds if math.isfinite(b)]
    if blowups or not finite:
        verdict = "FAIL"
        spread = math.inf
        R0 = math.inf
    else:
        R0 = max(finite)
        spread = (max(finite) - min(finite)) / max(finite) if max(finite) > 0 else 0.0
        contracted = R0 < min((r for r in plan.radii if r > 0), default=0.0)
        verdict = "PASS" if spread <= 0.25 or contracted else "FAIL"
    return SweepReport(radii=plan.radii, tail_sups=sups, radius_bounds=bounds,
                       spread=spread, R0=R0, blowups=blowups, verdict=verdict,
                       meta={"T": plan.T, "dt": plan.dt,
                             "samples_per_radius": plan.samples_per_radius})


@dataclass
class AbsorbingReport:
    t0: float                       # max entry time over samples
    entries: list[float]
    retained: list[tuple[int, Trajectory]]   # never-entered samples, kept
                                             # for inspection


def absorbing_time(ops: DiscreteOperators, cfg: PlateConfig, plan: SweepPlan,
                   radius: float, R0: float) -> AbsorbingReport:
    """Entry time into the ball of radius R0, maximised over samples.

    A sample's entry time is the first snapshot time after which the
    phase-space norm stays below R0 for every later recorded time; a
    sample that never settles inside reports +inf and its trajectory is
    retained in the report.
    """
    starts = [_random_start(ops, cfg, plan.seed, radius, 0, j)
              for j in range(plan.samples_per_radius)]
    trajs = _finished(run_ensemble(ops, cfg, plan.sim_plan(plan.seed), starts))
    entries = []
    retained = []
    for j, traj in enumerate(trajs):
        norms = np.sqrt(ops.state_norm_sq(traj.us, traj.vs))
        inside = norms <= R0
        if inside.all():
            entries.append(0.0)
            continue
        bad = np.where(~inside)[0]
        last_bad = int(bad[-1])
        if last_bad + 1 >= len(norms):
            entries.append(math.inf)
            retained.append((j, traj))
        else:
            entries.append(float(traj.times[last_bad + 1]))
    return AbsorbingReport(t0=max(entries), entries=entries, retained=retained)


# ---------------------------------------------------------------------------
# quasi-stability on trajectory pairs
# ---------------------------------------------------------------------------

@dataclass
class PairStats:
    times: np.ndarray
    separation: np.ndarray          # squared phase-space distance
    lower_order: np.ndarray         # running sup of the squared L2 gap
    fitted_rate: float              # omega of the exponential part
    fitted_C: float
    fitted_d: float
    violations: int
    certified: bool
    note: str = ""


def quasistability_pair(ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan,
                        y1, y2, cert: SourceCertificate | None = None) -> PairStats:
    """Fit sep(t) <= C e^{-omega t} sep(0) + d * sup_{s<=t} ||z(s)||_0^2.

    The lower-order seminorm is the plain L2 norm of the displacement
    gap (the spectral order-0 surrogate).  Certification demands a fit
    with omega > 0, zero pointwise violations, enough horizon for the
    exponential part to actually decay (omega * T >= 2), and a
    separation that keeps decaying exponentially over the late window
    (or has already collapsed to 1e-6 of its initial value).
    Degenerate-at-rest damping (b_0 = 0) typically stalls the
    separation at a plateau, whose slower-than-exponential tail this
    rule declines to certify.
    """
    cert = cert or certify_source(cfg)
    t1, t2 = _finished(run_ensemble(ops, cfg, plan, [y1, y2], cert))
    times = t1.times
    m = len(times)
    du = t1.us - t2.us
    sep = ops.state_norm_sq(du, t1.vs - t2.vs)
    lower = np.maximum.accumulate(ops.l2_norm_sq(du))

    sep0 = sep[0]
    if sep0 == 0.0:
        return PairStats(times=times, separation=sep, lower_order=lower,
                         fitted_rate=1.0, fitted_C=0.0, fitted_d=0.0,
                         violations=0, certified=True, note="identical pair")

    horizon = float(times[-1]) if times[-1] > 0 else 1.0
    tail = lower[m // 2:]
    ratios = sep[m // 2:][tail > 0] / tail[tail > 0]
    d_cands = [0.0]
    if ratios.size:
        d_cands += [float(q) * 1.0001 for q in np.quantile(ratios, [0.0, 0.5, 1.0])]
    best = None
    for d in sorted(set(d_cands)):
        resid = sep - d * lower
        pos = resid > 1e-14 * sep0
        pos[0] = False
        if not np.any(pos):
            cand = (10.0 / horizon, 1.0, d, 0)
        else:
            tt, rr = times[pos], resid[pos]
            slope = _ls_slope(tt, np.log(rr))
            omega = -slope
            if omega <= 0.0:
                continue
            # envelope constant in log space (exp(omega t) can overflow);
            # points with resid below the violation slack need no cover
            log_c = float(np.max(np.log(rr) + omega * tt)) - math.log(sep0)
            C = max(math.exp(min(log_c, 700.0)), 1.0)
            cand = (omega, C, d, 0)
        if best is None or cand[0] > best[0]:
            best = cand
    if best is None:
        return PairStats(times=times, separation=sep, lower_order=lower,
                         fitted_rate=0.0, fitted_C=math.inf, fitted_d=0.0,
                         violations=m, certified=False,
                         note="no exponential fit with positive rate")
    omega, C, d, _ = best
    bound = C * sep0 * np.exp(-omega * times) + d * lower
    violations = int(np.sum(sep > bound * (1.0 + 1e-9) + 1e-14 * sep0))
    tail_vanished = sep[-1] <= 1e-6 * sep0
    mid = m // 2
    if sep[-1] <= 0.0 or times[-1] <= times[mid]:
        late_rate = math.inf if tail_vanished else 0.0
    else:
        late_rate = math.log(max(sep[mid], 1e-300) / sep[-1]) \
            / (times[-1] - times[mid])
    certified = (violations == 0 and omega * horizon >= 2.0
                 and (tail_vanished or late_rate >= 0.1 * omega))
    note = "" if certified else "quasi-stability not certified"
    return PairStats(times=times, separation=sep, lower_order=lower,
                     fitted_rate=omega, fitted_C=C, fitted_d=d,
                     violations=violations, certified=certified, note=note)


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    xm, ym = x.mean(), y.mean()
    den = float(np.sum((x - xm) ** 2))
    if den == 0.0:
        return 0.0
    return float(np.sum((x - xm) * (y - ym)) / den)


# ---------------------------------------------------------------------------
# correlation dimension
# ---------------------------------------------------------------------------

@dataclass
class DimensionReport:
    embed_dims: tuple[int, ...]
    estimates: list[float]
    n_points: int
    saturated: bool
    meta: dict = field(default_factory=dict)


def correlation_dimension(traj: Trajectory, ops: DiscreteOperators,
                          embed_dims=(2, 4, 8), theiler: int = 20,
                          tail_fraction: float = 0.5,
                          min_points: int = 2000) -> DimensionReport:
    """Grassberger-Procaccia correlation-dimension estimates on the tail.

    Snapshot states are projected to the leading embed_dim stiffness
    modes (displacement scaled into the bending norm, velocity in L2),
    pairs closer than `theiler` snapshots are excluded, and the slope of
    log C(r) against log r is fitted over the lower quantile range of the
    pairwise distances.  A cloud that has collapsed to a point (diameter
    below 1e-8 of the trajectory scale) reports dimension 0.
    """
    tail = traj.times >= traj.times[-1] * (1.0 - tail_fraction)
    n_points = int(np.count_nonzero(tail))
    if n_points < min_points:
        raise ExperimentError(
            f"need at least {min_points} tail snapshots, got {n_points}")

    cu = ops.modal_coords(traj.us[tail]) * np.sqrt(ops.mu)
    cv = ops.modal_coords(traj.vs[tail])
    scale = float(np.max(np.sqrt(np.sum(cu ** 2 + cv ** 2, axis=1))))
    scale = max(scale, 1e-300)

    estimates = []
    for d in embed_dims:
        X = np.hstack([cu[:, :d], cv[:, :d]])
        estimates.append(_gp_estimate(X, theiler, scale))
    spread = max(estimates) - min(estimates)
    return DimensionReport(embed_dims=tuple(embed_dims), estimates=estimates,
                           n_points=n_points, saturated=spread < 0.5,
                           meta={"theiler": theiler, "tail_fraction": tail_fraction})


def _gp_estimate(X: np.ndarray, theiler: int, scale: float) -> float:
    """Slope of log C(r) over pairs more than `theiler` rows apart.

    Distances are built lag by lag into one array sorted in place (8 bytes
    per pair); quantiles are read off it and each count is a binary search.
    """
    n = X.shape[0]
    lags = range(max(theiler, 0) + 1, n)
    dists = np.empty(sum(n - k for k in lags))
    start = 0
    for k in lags:
        diff = X[k:] - X[:-k]
        dists[start:start + n - k] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        start += n - k
    dists.sort()
    diameter = float(dists[-1]) if dists.size else 0.0
    if diameter < 1e-8 * scale:
        return 0.0
    pos = dists[np.searchsorted(dists, 0.0, side="right"):]
    if pos.size < 100:
        return 0.0
    r_lo = _sorted_quantile(pos, 0.02)
    r_hi = _sorted_quantile(pos, 0.4)
    if not r_hi > r_lo > 0:
        return 0.0
    rs = np.geomspace(r_lo, r_hi, 12)
    log_c = np.log(np.searchsorted(dists, rs) / dists.size)
    return max(0.0, _ls_slope(np.log(rs), log_c))


def _sorted_quantile(x: np.ndarray, q: float) -> float:
    """np.quantile's default (linear) rule on an already sorted array."""
    h = (x.size - 1) * q
    i = min(int(h), x.size - 2)
    return float(x[i] + (h - i) * (x[i + 1] - x[i]))


# ---------------------------------------------------------------------------
# regularity probe
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    sup_velocity_bending: float      # sup ||u_t||_{2,*}^2 over the later window
    sup_accel_l2: float              # sup ||u_tt||_0^2 over the later window
    half_window: tuple[float, float]
    quarter_window: tuple[float, float]
    verdict: str


def regularity_probe(traj: Trajectory, ops: DiscreteOperators,
                     cfg: PlateConfig) -> RegularityReport:
    """Bound ||u_t||_{2,*} and the reconstructed ||u_tt||_0 on the tail.

    The acceleration comes from the equation itself:
    u_tt = M^{-1} (load - K u - g(||v||) M v).  The verdict is PASS when
    both sups are finite and extending the window from the last quarter
    to the last half moves them by no more than 20%.
    """
    t_end = traj.times[-1]
    half = traj.times >= 0.5 * t_end
    us, vs = traj.us[half], traj.vs[half]
    sp2 = ops.l2_norm_sq(vs)
    gain = damping_gains(np.sqrt(np.maximum(sp2, 0.0)), cfg)
    rhs = (force_load(us, ops, cfg) - us @ ops.K
           - gain[:, None] * (vs @ ops.M))
    sv = ops.bending_norm_sq(vs)
    sa = ops.l2_norm_sq(np.linalg.solve(ops.M, rhs.T).T)
    quarter = traj.times[half] >= 0.75 * t_end
    svh, sah = float(np.max(sv)), float(np.max(sa))
    svq, saq = float(np.max(sv[quarter])), float(np.max(sa[quarter]))
    finite = all(map(math.isfinite, (svh, sah)))
    floor = 1e-12
    stable = (abs(svh - svq) <= 0.2 * max(svq, floor)
              and abs(sah - saq) <= 0.2 * max(saq, floor))
    verdict = "PASS" if finite and stable else ("NOT_STABLE" if finite else "FAIL")
    return RegularityReport(sup_velocity_bending=svh, sup_accel_l2=sah,
                            half_window=(0.5 * t_end, t_end),
                            quarter_window=(0.75 * t_end, t_end),
                            verdict=verdict)


# ---------------------------------------------------------------------------
# gradient-case convergence to stationary states
# ---------------------------------------------------------------------------

@dataclass
class StationarySample:
    seed: int
    final_speed: float
    distance: float
    newton_residual: float
    ok: bool


@dataclass
class StationaryReport:
    samples: list[StationarySample]
    verdict: str
    note: str = ""


def stationary_convergence(ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan,
                           samples: int = 10, radius: float = 2.0,
                           speed_tol: float = 1e-4, dist_tol: float = 1e-3,
                           newton_tol: float = 1e-10) -> StationaryReport:
    """Check that gradient-case trajectories land on Newton-certified equilibria.

    Requires beta = 0 (no flow term) and g(0) > 0; with beta != 0 the
    gradient structure is absent and the test is skipped with a note.
    """
    if cfg.beta != 0.0:
        return StationaryReport(samples=[], verdict="SKIPPED",
                                note="beta != 0: no gradient structure, "
                                     "stationary convergence not applicable")
    if cfg.b0 <= 0.0:
        return StationaryReport(samples=[], verdict="SKIPPED",
                                note="b_0 = 0: damping degenerate at rest")
    seeds = [_sample_seed(plan.seed, 7, j) for j in range(samples)]
    starts = [initial_state(("random", radius), ops, cfg, seed) for seed in seeds]
    sim = SimPlan(dt=plan.dt, T=plan.T, snapshot_every=plan.snapshot_every, seed=plan.seed)
    trajs = _finished(run_ensemble(ops, cfg, sim, starts, certify_source(cfg)))
    out = []
    for seed, traj in zip(seeds, trajs):
        uT, vT = traj.us[-1], traj.vs[-1]
        speed = math.sqrt(max(ops.l2_norm_sq(vT), 0.0))
        res = solve_stationary(cfg, ops, uT, tol=newton_tol)
        dist = math.sqrt(max(ops.bending_norm_sq(uT - res.u), 0.0))
        ok = (speed <= speed_tol and res.converged
              and res.residual <= newton_tol and dist <= dist_tol)
        out.append(StationarySample(seed=seed, final_speed=speed, distance=dist,
                                    newton_residual=res.residual, ok=ok))
    verdict = "PASS" if out and all(s.ok for s in out) else "FAIL"
    return StationaryReport(samples=out, verdict=verdict)
