"""Long-time-behavior experiments: absorption, pair squeezing, dimension.

Every driver is deterministic given its seed, aggregates results in a
fixed order, and reports verdicts
plus the fitted constants that produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .discretization import DiscreteOperators
from .integrator import IntegratorError, SimPlan, Trajectory, initial_state, run_ensemble
from .model import (PlateConfig, SourceCertificate, State, acceleration, in_row_blocks,
                    solve_stationary)


class ExperimentError(RuntimeError):
    pass


def _sample_seed(base: int, radius_idx: int, sample_idx: int) -> int:
    return (base * 1000003 + radius_idx * 10007 + sample_idx * 101) % (2 ** 63 - 1)


# ---------------------------------------------------------------------------
# dissipativity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan(SimPlan):
    T: float = 80.0
    dt: float = 2e-3
    snapshot_every: int = 10
    radii: tuple[float, ...] = (1.0, 5.0, 25.0)
    samples_per_radius: int = 3
    tail_fraction: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not all(r >= 0 for r in self.radii) or list(self.radii) != sorted(self.radii):
            raise ExperimentError(f"radii must be nonnegative and increasing: {self.radii}")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ExperimentError(f"tail_fraction must lie in (0,1): {self.tail_fraction}")
        if self.samples_per_radius < 1:
            raise ExperimentError(
                f"samples_per_radius must be >= 1, got {self.samples_per_radius}")

    def sim_plan(self, seed: int) -> SimPlan:
        return replace(self, seed=seed)


@dataclass
class SweepReport:
    """Its fields, in order, are the keys of sweep_report.json."""
    verdict: str
    R0: float
    spread: float
    radii: tuple[float, ...]
    radius_bounds: list[float]
    # per radius, per sample; NaN (regularity: FAIL) for a member that blew up
    tail_sups: list[list[float]]                # phase-space norm
    entry_times: list[list[float]]              # into the ball of radius meta["r_min"]
    sup_velocity_bending: list[list[float]]     # regularity_probe of each member
    sup_accel_l2: list[list[float]]
    regularity: list[list[str]]
    blowups: list[tuple[int, int]]              # (radius_idx, sample_idx)
    failures: list[dict]                        # per blow-up: "message", "t" (last snapshot)
    meta: dict = field(default_factory=dict)


def tail_start(times: np.ndarray, fraction: float) -> int:
    """The index of the first of the increasing times t >= (1 - fraction) times[-1]."""
    return int(np.searchsorted(times, times[-1] * (1.0 - fraction)))


def _entry_time(norms: np.ndarray, times: np.ndarray, radius: float) -> float:
    """The first snapshot time after which the norm stays in the closed ball
    of this radius, or +inf if the last snapshot lies outside it."""
    outside = np.flatnonzero(~(norms <= radius))
    k = int(outside[-1]) + 1 if outside.size else 0
    return float(times[k]) if k < len(times) else math.inf


def fp_histogram(runs) -> dict:
    """The fixed-point histograms {iterations: steps} in the meta of runs
    (trajectories or pairs), summed, keys ascending."""
    total = {}
    for r in runs:
        for its, steps in r.meta["fp_iterations"].items():
            total[its] = total.get(its, 0) + steps
    return dict(sorted(total.items()))


def _finished(results: list) -> list[Trajectory]:
    """The trajectories of run_ensemble, or its first failure in member order."""
    for res in results:
        if isinstance(res, IntegratorError):
            raise res
    return results


def dissipativity_sweep(ops: DiscreteOperators, cfg: PlateConfig, plan: SweepPlan,
                        threads: int = 1,
                        cert: SourceCertificate | None = None) -> SweepReport:
    """Per member: the tail sup of the phase-space norm, the entry time into
    the ball of radius r_min (the smallest positive radius, or 0), and
    `regularity_probe`'s sups and verdict.

    All radius x sample members advance in this process as one ensemble;
    threads is accepted for compatibility and ignored.  A member whose
    step fails counts as a blow-up, and only that member: the others keep
    the results they have alone.  Every member counts as one when the
    integrator cannot be set up.  `failures` holds a record per blow-up:
    its "message" and "t", its last snapshot time (None without one).
    meta["fp_iterations"] sums the fixed-point histograms {iterations:
    steps} of the finished members.

    PASS iff no sample blows up and either the per-radius bounds agree
    within 25% relative spread (a single absorbing radius R0 emerges), or
    their largest, R0, is below r_min, so every tested ball ends inside
    the smallest one (a point attractor).
    """
    members = [(i, j) for i in range(len(plan.radii))
               for j in range(plan.samples_per_radius)]
    starts = [initial_state(("random", plan.radii[i]), ops, cfg,
                            _sample_seed(plan.seed, i, j)) for i, j in members]
    r_min = min((r for r in plan.radii if r > 0), default=0.0)
    sups, entries, sup_v, sup_a, regularity = ([[x] * plan.samples_per_radius for _ in plan.radii]
                                               for x in (*[math.nan] * 4, "FAIL"))
    blowups, failures, finished = [], [], []
    for (i, j), res in zip(members, run_ensemble(ops, cfg, plan, starts, cert)):
        if isinstance(res, IntegratorError):
            blowups.append((i, j))
            failures.append({"message": str(res),
                             "t": float(res.partial.times[-1]) if res.partial else None})
            continue
        norms = np.sqrt(2.0 * (res.ledger.kinetic + res.ledger.bending))   # phase-space norm
        sups[i][j] = float(np.max(norms[tail_start(res.times, plan.tail_fraction):]))
        entries[i][j] = _entry_time(norms, res.times, r_min)
        reg = regularity_probe(res, ops, cfg)
        sup_v[i][j], sup_a[i][j], regularity[i][j] = \
            reg.sup_velocity_bending, reg.sup_accel_l2, reg.verdict
        finished.append(res)
    bounds = [max(row) if not any(map(math.isnan, row)) else math.inf for row in sups]
    finite = [b for b in bounds if math.isfinite(b)]
    if blowups or not finite:
        verdict, spread, R0 = "FAIL", math.inf, math.inf
    else:
        R0 = max(finite)
        spread = (max(finite) - min(finite)) / max(finite) if max(finite) > 0 else 0.0
        verdict = "PASS" if spread <= 0.25 or R0 < r_min else "FAIL"
    return SweepReport(verdict=verdict, R0=R0, spread=spread, radii=plan.radii,
                       radius_bounds=bounds, tail_sups=sups, entry_times=entries,
                       sup_velocity_bending=sup_v, sup_accel_l2=sup_a,
                       regularity=regularity, blowups=blowups, failures=failures,
                       meta={"T": plan.T, "dt": plan.dt,
                             "samples_per_radius": plan.samples_per_radius,
                             "r_min": r_min, "fp_iterations": fp_histogram(finished)})


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
    meta: dict = field(default_factory=dict)   # fp_iterations: the two members' histogram


def make_nearby_pair(ops: DiscreteOperators, cfg: PlateConfig, radius: float,
                     gap: float, seed: int):
    """Random base state plus a random phase-space perturbation of norm gap."""
    base = initial_state(("random", radius), ops, cfg, seed)
    pert = initial_state(("random", gap), ops, cfg, seed + 1)
    return base, State(base.u + pert.u, base.v + pert.v, base.t)


def quasistability_pairs(ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan,
                         pairs, cert: SourceCertificate | None = None) -> list[PairStats]:
    """Fit sep(t) <= C e^{-omega t} sep(0) + d * sup_{s<=t} ||z(s)||_0^2 per pair.

    All pairs (y1, y2) advance as one ensemble; its first member failure,
    in member order, is raised.  The lower-order seminorm is the plain L2
    norm of the displacement gap (the spectral order-0 surrogate).
    Certification demands a fit with omega > 0, zero pointwise
    violations, enough horizon for the exponential part to actually decay
    (omega * T >= 2), and a separation that keeps decaying exponentially
    over the late window (or has already collapsed to 1e-6 of its initial
    value).  Degenerate-at-rest damping (b_0 = 0) typically stalls the
    separation at a plateau, whose slower-than-exponential tail this
    rule declines to certify.
    """
    trajs = _finished(run_ensemble(ops, cfg, plan, [y for pair in pairs for y in pair],
                                   cert))
    return [replace(_fit_pair(ops, t1, t2), meta={"fp_iterations": fp_histogram([t1, t2])})
            for t1, t2 in zip(trajs[::2], trajs[1::2])]


def _fit_pair(ops: DiscreteOperators, t1: Trajectory, t2: Trajectory) -> PairStats:
    times = t1.times
    mid = tail_start(times, 0.5)        # the late half: the d-fit window and late rate

    def columns(u1, v1, u2, v2):
        du = u1 - u2
        return ops.state_norm_sq(du, v1 - v2), ops.l2_norm_sq(du)

    sep, gap = in_row_blocks(ops, columns, t1.us, t1.vs, t2.us, t2.vs)
    lower = np.maximum.accumulate(gap)

    sep0 = sep[0]
    if sep0 == 0.0:
        return PairStats(times=times, separation=sep, lower_order=lower,
                         fitted_rate=1.0, fitted_C=0.0, fitted_d=0.0,
                         violations=0, certified=True, note="identical pair")

    horizon = float(times[-1]) if times[-1] > 0 else 1.0
    tail = lower[mid:]
    ratios = sep[mid:][tail > 0] / tail[tail > 0]
    d_cands = [0.0]
    if ratios.size:
        d_cands += [float(q) * 1.0001 for q in np.quantile(ratios, [0.0, 0.5, 1.0])]
    best = None
    for d in sorted(set(d_cands)):
        resid = sep - d * lower
        pos = resid > 1e-14 * sep0
        pos[0] = False
        if not np.any(pos):
            cand = (10.0 / horizon, 1.0, d)
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
            cand = (omega, C, d)
        if best is None or cand[0] > best[0]:
            best = cand
    if best is None:
        return PairStats(times=times, separation=sep, lower_order=lower,
                         fitted_rate=0.0, fitted_C=math.inf, fitted_d=0.0,
                         violations=len(times), certified=False,
                         note="no exponential fit with positive rate")
    omega, C, d = best
    bound = C * sep0 * np.exp(-omega * times) + d * lower
    violations = int(np.sum(sep > bound * (1.0 + 1e-9) + 1e-14 * sep0))
    tail_vanished = sep[-1] <= 1e-6 * sep0
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

MIN_PAIRS = 100                         # pairs beyond the Theiler window a fit needs
_OCTAVES, _PER_OCTAVE = 48, 4096        # pass 1's buckets: 1.6 MB of counts


@dataclass
class DimensionReport:
    """Its fields, in order, are the keys of dimension_report.json."""
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

    Snapshot states are projected to the leading min(embed_dim, n)
    stiffness modes (displacement scaled into the bending norm, velocity
    in L2; meta["modes"] lists those counts), pairs closer than `theiler`
    snapshots are excluded, and the slope of log C(r) against log r is
    fitted over the lower quantile range of the pairwise distances.  A
    cloud that has collapsed to a point (diameter below 1e-8 of the
    trajectory scale) reports dimension 0.  A tail shorter than min_points,
    or with fewer than MIN_PAIRS pairs beyond the window, is an error.
    """
    start = tail_start(traj.times, tail_fraction)
    n_points = len(traj.times) - start
    if problems := dimension_shortfalls(n_points, min_points, theiler):
        raise ExperimentError("; ".join(problems))

    cu = ops.modal_coords(traj.us[start:]) * np.sqrt(ops.mu)
    cv = ops.modal_coords(traj.vs[start:])
    scale = float(np.max(np.sqrt(np.sum(cu ** 2 + cv ** 2, axis=1))))
    scale = max(scale, 1e-300)

    estimates = []
    for d in embed_dims:
        X = np.hstack([cu[:, :d], cv[:, :d]])
        estimates.append(_gp_estimate(X, theiler, scale))
    spread = max(estimates) - min(estimates)
    return DimensionReport(embed_dims=tuple(embed_dims), estimates=estimates,
                           n_points=n_points, saturated=spread < 0.5,
                           meta={"theiler": theiler, "tail_fraction": tail_fraction,
                                 "modes": [min(d, ops.n) for d in embed_dims]})


def dimension_shortfalls(n_points: int, min_points: int, theiler: int) -> list[str]:
    """Why a tail of n_points snapshots cannot give a dimension estimate, if
    it cannot (an empty list if it can)."""
    lags = max(n_points - theiler - 1, 0)           # the lags theiler + 1 .. n_points - 1
    pairs = lags * (lags + 1) // 2
    problems = []
    if n_points < min_points:
        problems.append(f"min_points = {min_points} exceeds the {n_points} tail snapshots")
    if theiler < 0:
        problems.append(f"theiler = {theiler} must be >= 0")
    elif pairs < MIN_PAIRS:
        problems.append(f"theiler = {theiler} leaves {pairs} pairs beyond it, fewer than "
                        f"{MIN_PAIRS}, among the {n_points} tail snapshots")
    return problems


def tail_points(plan: SimPlan, tail_fraction: float) -> int:
    """The exact number of tail snapshots of a run of this plan from t = 0,
    known before it runs: its snapshot times are dt * plan.snapshot_steps()."""
    times = plan.dt * plan.snapshot_steps()
    return len(times) - tail_start(times, tail_fraction)


def _gp_estimate(X: np.ndarray, theiler: int, scale: float) -> float:
    """Slope of log C(r) over pairs more than `theiler` rows apart, in memory
    that does not grow with the number of pairs.

    The fit reads the zero count, the 2% and 40% quantiles of the positive
    distances and 12 counts between them.  A correctly rounded sqrt is
    monotone, so a quantile is the sqrt of the same order statistics of the
    squared distances d^2, and #{d < r} = #{d^2 < t(r)} (`_sq_threshold`).
    Positive doubles order as their bits, so pass 1 counts each lag's d^2
    into buckets named by the exponent and top 12 mantissa bits, over the 48
    octaves below 4 max |x - mean|^2, which bounds every d^2 (the end
    buckets take what falls outside).  Pass 2 recomputes only the lags whose
    [min, max] meets a bucket that holds an order statistic or, by those
    buckets' edges, may hold a t(r), and keeps their d^2 in those buckets.
    The estimate equals that of sorting every distance.
    """
    n, nb = X.shape[0], _OCTAVES * _PER_OCTAVE
    lags = np.arange(theiler + 1, n)
    top = np.float64(4.0 * np.max(np.sum((X - X.mean(axis=0)) ** 2, axis=1)))
    base = max(int(top.view(np.int64) >> 40) - nb + 1, 0)

    def bucket(d2):
        b = (d2.view(np.int64) >> 40) - base
        return np.minimum(np.maximum(b, 0, out=b), nb - 1, out=b)

    def edge(b):                        # the least double of bucket b
        return ((base + b) << 40).view(np.float64)

    hist = np.zeros(nb, dtype=np.int64)
    lo, hi = np.zeros(lags.size), np.zeros(lags.size)
    zeros = 0
    for j, k in enumerate(lags):
        d2 = _sq_dists(X, k)
        lo[j], hi[j] = d2.min(), d2.max()
        zeros += d2.size - np.count_nonzero(d2)
        np.add.at(hist, bucket(d2), 1)
    hist[0] -= zeros                    # zeros are counted apart
    if math.sqrt(np.max(hi, initial=0.0)) < 1e-8 * scale:      # the diameter
        return 0.0
    cum = np.cumsum(hist, out=hist)     # in place: hist is gone from here on
    P = int(cum[-1])                    # positive distances
    if P < MIN_PAIRS:
        return 0.0

    h = (P - 1) * np.array([0.02, 0.4])             # np.quantile's linear rule
    i = np.minimum(h.astype(np.int64), P - 2)
    ranks = np.stack([i, i + 1], axis=1).ravel()    # among the positive d^2
    ob = np.searchsorted(cum, ranks, side="right")
    lower = np.where(ob > 0, edge(ob), 5e-324)
    upper = np.where(ob < nb - 1, edge(ob + 1), hi.max())
    keep = np.zeros(nb, dtype=bool)
    keep[ob] = True
    for a, b in zip(bucket(np.geomspace(lower[0], lower[2], 12) * (1 - 1e-9)),
                    bucket(np.geomspace(upper[1], upper[3], 12) * (1 + 1e-9))):
        keep[a:b + 1] = True
    kb = np.flatnonzero(keep)
    meets = np.searchsorted(kb, bucket(lo)) < np.searchsorted(kb, bucket(hi), side="right")
    v = np.empty(int(np.sum(cum[kb] - np.where(kb > 0, cum[kb - 1], 0))))  # kept d^2 > 0
    end = 0
    for k in lags[meets]:               # the lags whose [min, max] meets a kept bucket
        d2 = _sq_dists(X, k)
        sel = d2[keep[bucket(d2)] & (d2 > 0)]
        v[end:end + sel.size] = sel
        end += sel.size
    assert end == v.size, "pass 2 kept other values than pass 1 counted"
    v.sort()

    def shift(b):                       # index in v of a rank in bucket b, minus the rank
        return np.searchsorted(bucket(v), b) - np.where(b > 0, cum[b - 1], 0)

    s = np.sqrt(v[ranks + shift(ob)])
    r_lo, r_hi = s[0::2] + (h - i) * (s[1::2] - s[0::2])
    if not r_hi > r_lo > 0:
        return 0.0
    rs = np.geomspace(r_lo, r_hi, 12)
    t = _sq_threshold(rs)
    assert keep[bucket(t)].all(), "a threshold missed the kept buckets"
    log_c = np.log((zeros + np.searchsorted(v, t) - shift(bucket(t))) / (P + zeros))
    return max(0.0, _ls_slope(np.log(rs), log_c))


def _sq_dists(X: np.ndarray, k: int) -> np.ndarray:
    diff = X[k:] - X[:-k]
    return np.einsum("ij,ij->i", diff, diff)


def _sq_threshold(r: np.ndarray) -> np.ndarray:
    """The least doubles t with sqrt(t) >= r, a few ulps from r * r."""
    t = r * r
    while (up := np.sqrt(t) < r).any():
        t = np.where(up, np.nextafter(t, np.inf), t)
    while (down := np.sqrt(np.nextafter(t, 0.0)) >= r).any():
        t = np.where(down, np.nextafter(t, 0.0), t)
    return t


# ---------------------------------------------------------------------------
# regularity probe
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    sup_velocity_bending: float      # sup ||u_t||_{2,*}^2 over the later window
    sup_accel_l2: float              # sup ||u_tt||_0^2 over the later window
    verdict: str


def regularity_probe(traj: Trajectory, ops: DiscreteOperators,
                     cfg: PlateConfig) -> RegularityReport:
    """Bound ||u_t||_{2,*} and the reconstructed ||u_tt||_0 on the tail.

    The acceleration comes from the equation itself (`model.acceleration`).
    The sups are those of the last half of the run.  The verdict is PASS
    when both are finite and neither grows: for each, the sup over the
    last quarter is at most 1.2 times the sup over the quarter before,
    floored at 1e-12 (the floor too when that quarter has no snapshot).
    """
    half = tail_start(traj.times, 0.5)

    def columns(u, v):
        return ops.bending_norm_sq(v), ops.l2_norm_sq(acceleration(u, v, ops, cfg))

    sv, sa = in_row_blocks(ops, columns, traj.us[half:], traj.vs[half:])
    late = tail_start(traj.times, 0.25) - half      # the last quarter's first row
    svh, sah = float(np.max(sv)), float(np.max(sa))
    finite = all(map(math.isfinite, (svh, sah)))
    stable = all(np.max(x[late:]) <= 1.2 * np.max(x[:late], initial=1e-12) for x in (sv, sa))
    verdict = "PASS" if finite and stable else ("NOT_STABLE" if finite else "FAIL")
    return RegularityReport(sup_velocity_bending=svh, sup_accel_l2=sah, verdict=verdict)


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
    """Its fields, in order, are the keys of stationary_report.json, and
    those of each sample's record are StationarySample's."""
    verdict: str
    note: str = ""
    samples: list[StationarySample] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def stationary_convergence(ops: DiscreteOperators, cfg: PlateConfig, plan: SimPlan,
                           samples: int = 10, radius: float = 2.0,
                           speed_tol: float = 1e-4, dist_tol: float = 1e-3,
                           newton_tol: float = 1e-10,
                           cert: SourceCertificate | None = None) -> StationaryReport:
    """Check that gradient-case trajectories land on Newton-certified equilibria.

    Requires beta = 0 (no flow term) and g(0) > 0; with beta != 0 the
    gradient structure is absent and the test is skipped with a note (and
    an empty meta).  meta["fp_iterations"] sums the members' fixed-point
    histograms {iterations: steps}.
    """
    if cfg.beta != 0.0:
        return StationaryReport(verdict="SKIPPED",
                                note="beta != 0: no gradient structure, "
                                     "stationary convergence not applicable")
    if cfg.b0 <= 0.0:
        return StationaryReport(verdict="SKIPPED", note="b_0 = 0: damping degenerate at rest")
    seeds = [_sample_seed(plan.seed, 7, j) for j in range(samples)]
    starts = [initial_state(("random", radius), ops, cfg, seed) for seed in seeds]
    trajs = _finished(run_ensemble(ops, cfg, plan, starts, cert))
    out = []
    for seed, traj in zip(seeds, trajs):
        uT, vT = traj.us[-1], traj.vs[-1]
        speed = math.sqrt(ops.l2_norm_sq(vT))
        res = solve_stationary(cfg, ops, uT, tol=newton_tol)
        dist = math.sqrt(max(ops.bending_norm_sq(uT - res.u), 0.0))
        ok = (speed <= speed_tol and res.converged
              and res.residual <= newton_tol and dist <= dist_tol)
        out.append(StationarySample(seed=seed, final_speed=speed, distance=dist,
                                    newton_residual=res.residual, ok=ok))
    verdict = "PASS" if out and all(s.ok for s in out) else "FAIL"
    return StationaryReport(verdict=verdict, samples=out,
                            meta={"fp_iterations": fp_histogram(trajs)})
