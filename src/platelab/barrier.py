"""Scalar barrier toolkit for auditing ultimate dissipativity.

The machinery revolves around the perturbed energy V_eps = Etot +
eps (u_t, u) and a decay inequality of the form

    dV/dt + eps V <= d0 {eps + b(d1/eps)}
                     + d2 {eps [1 + E]^gamma - d3} (D u_t, u_t),

where gamma = q / (2(q+1)) < 1/2 measures the damping growth and b is
the power-law balancing function.  Choosing eps = 1/sigma(E(s)) with
sigma the positive root of

    [1 + (C2/C1) E + 2c/C1 + d0 {1 + sigma b(d1 sigma)}]^gamma = d3 sigma / 2

keeps the damping bracket nonpositive along the whole trajectory, so V
decays to a level set whose limit (the K_R / W_R iteration) is
independent of the initial radius.  Constants can be supplied by hand
or fitted from trajectory data; the fit mode is recorded in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import energy as energy_mod
from .discretization import DiscreteOperators, bilinear_form
from .model import (PlateConfig, SourceCertificate, acceleration, damping_gains,
                    in_row_blocks)


class BarrierError(RuntimeError):
    pass


def damping_growth_exponent(q: int) -> float:
    """gamma = q / (2 (q + 1)); strictly below 1/2 for every q >= 1."""
    if q < 1:
        raise BarrierError(f"damping degree must be >= 1, got {q}")
    return q / (2.0 * (q + 1.0))


def balance_exponent(q: int) -> float:
    """Power of the balancing function: (q+2)/(7q+6) * (1 + 16(q+1)/(5q+2))."""
    if q < 1:
        raise BarrierError(f"damping degree must be >= 1, got {q}")
    return (q + 2.0) / (7.0 * q + 6.0) * (1.0 + 16.0 * (q + 1.0) / (5.0 * q + 2.0))


def balance_function(s: float, exponent: float, c_eta: float = 1.0) -> float:
    """b(s) = c_eta * s^exponent for s > 0."""
    if s <= 0:
        raise BarrierError(f"balance function needs s > 0, got {s}")
    return c_eta * s ** exponent


@dataclass(frozen=True)
class BalancingReport:
    verdict: str                  # "PASS" | "FAIL" | "SKIPPED"

    @property
    def passed(self) -> bool:
        return self.verdict in ("PASS", "SKIPPED")


def balancing_check(gamma: float, b) -> BalancingReport:
    """Check x^(1 - 1/gamma) b(x) -> 0 on 4 log-spaced samples per decade of
    [1, 1e16].

    PASS requires the sampled sequence to become strictly decreasing and
    the final value to drop below 1e-6 of the first.  gamma = 0 (linear
    damping) skips the check: it holds automatically.
    """
    if gamma == 0.0:
        return BalancingReport(verdict="SKIPPED")
    if not 0.0 < gamma < 1.0:
        raise BarrierError(f"gamma must lie in [0, 1), got {gamma}")
    xs = np.logspace(0.0, 16.0, 65)
    vals = np.array([x ** (1.0 - 1.0 / gamma) * b(x) for x in xs])
    tail = vals[len(vals) // 2:]
    decreasing = bool(np.all(np.diff(tail) < 0.0))
    small = vals[-1] < 1e-6 * vals[0]
    return BalancingReport(verdict="PASS" if (decreasing and small) else "FAIL")


@dataclass(frozen=True)
class BarrierConstants:
    """Scalar constant set feeding the barrier procedure.

    b_c_eta/b_exponent parameterise the balancing function; C1, C2, c
    are the sandwich constants C1 E - c <= V_eps <= C2 E + c.  The mode
    field records whether the set was hand-supplied or fitted.
    """

    c0: float = 0.0
    c1: float = 1.0
    eta: float = 0.5
    c2: float = 2.0
    c3: float = 0.0
    c4: float = 1.0
    gamma: float = 0.25
    kappa_damp: float = 1.0
    d0: float = 1.0
    d1: float = 1.0
    d2: float = 1.0
    d3: float = 2.0
    b_c_eta: float = 1.0
    b_exponent: float = 1.0
    C1: float = 1.0
    C2: float = 1.0
    c: float = 0.0
    eps_struct: float = 0.25
    mode: str = "manual"

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise BarrierError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not 0.0 <= self.eta < 1.0:
            raise BarrierError(f"eta must lie in [0, 1), got {self.eta}")
        if self.d3 <= 0 or self.C1 <= 0 or self.C2 <= 0:
            raise BarrierError("d3, C1, C2 must be positive")

    def b(self, x: float) -> float:
        return balance_function(x, self.b_exponent, self.b_c_eta)

    def to_dict(self) -> dict:
        return asdict(self)


def toy_constants() -> BarrierConstants:
    """Hand-set documentation constants: sigma(E=1) solves s^2 - s^(3/2) = 3."""
    return BarrierConstants(gamma=0.5, d0=1.0, d1=1.0, d2=1.0, d3=2.0,
                            b_c_eta=1.0, b_exponent=0.5,
                            C1=1.0, C2=1.0, c=0.0, mode="manual")


# ---------------------------------------------------------------------------
# sigma equation
# ---------------------------------------------------------------------------

def solve_barrier_scale(E_level: float, bc: BarrierConstants) -> float:
    """Unique positive root sigma of the barrier fixed-point equation.

    Bisection on an expanding bracket [1e-8, hi] to a relative width of
    1e-12; the left side grows slower than the right (gamma < 1 plus the
    balancing condition), so exactly one sign change exists.  gamma = 0
    reduces to sigma = 2/d3.
    """
    if E_level < 0:
        raise BarrierError(f"energy level must be >= 0, got {E_level}")
    if bc.gamma == 0.0:
        return 2.0 / bc.d3

    def gap(sig):
        lhs = (1.0 + (bc.C2 / bc.C1) * E_level + 2.0 * bc.c / bc.C1
               + bc.d0 * (1.0 + sig * bc.b(bc.d1 * sig))) ** bc.gamma
        return lhs - 0.5 * bc.d3 * sig

    lo, hi = 1e-8, 1.0
    if gap(lo) <= 0.0:
        raise BarrierError("inconsistent constants: no positive gap at sigma -> 0")
    expansions = 0
    while gap(hi) > 0.0:
        hi *= 2.0
        expansions += 1
        if expansions > 400:
            raise BarrierError(
                "bracket expansion failed: right side never overtakes the left "
                "(check the balancing condition and d3)")
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decay_rate_at_energy(E_level: float, bc: BarrierConstants) -> float:
    """eps = 1 / sigma(E); positive and nonincreasing in the energy level."""
    return 1.0 / solve_barrier_scale(E_level, bc)


# ---------------------------------------------------------------------------
# sandwich of V_eps = Etot + eps (v, u)_{L2}
# ---------------------------------------------------------------------------

def sandwich_for_eps(eps: float, lam: float) -> tuple[float, float]:
    """(C1, C2) with C1 E - c <= V_eps <= C2 E + c, from the embedding constant
    (c is the offset of energy.sandwich_constants, which eps does not change).

    |eps (v, u)| <= eps max(1, lam) E, so C1 = 1/2 - eps max(1, lam) must
    stay positive for the lower bound to be useful.
    """
    m = max(1.0, lam)
    return 0.5 - eps * m, 2.0 + eps * m


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------

def fit_barrier_constants(trajectories, ops: DiscreteOperators, cfg: PlateConfig,
                          cert: SourceCertificate) -> BarrierConstants:
    """Fit the constant set from trajectory snapshots (least max-violation),
    with the equipartition weights eta = 1/2 and c2 = 2.

    Velocity control (c0, c1) is exact when b_0 > 0; the equipartition
    pair (c3, c4) and the balancing prefactor are fitted so the sampled
    inequalities hold with zero violations.
    """
    eta, c2 = 0.5, 2.0
    q_eff = cfg.q_eff
    gamma = damping_growth_exponent(q_eff) if q_eff >= 1 else 0.0
    b_exp = balance_exponent(max(q_eff, 1))

    def columns(u, v):
        sp2 = ops.l2_norm_sq(v)
        gain = damping_gains(np.sqrt(np.maximum(sp2, 0.0)), cfg)
        return (sp2,
                gain * sp2,                                     # (D u_t, u_t)
                gain * np.vecdot(ops.m_diag * v, u),            # (D u_t, u)
                -cfg.beta * bilinear_form(ops.dy_blocks, u, u),  # (N(u), u)
                -cfg.beta * bilinear_form(ops.dy_blocks, u, v),  # (N(u), u_t)
                ops.bending_norm_sq(u))

    per_traj = [in_row_blocks(ops, columns, traj.us, traj.vs) for traj in trajectories]
    sp2, ddot, du_u, flow_u, flow_ut, bend2 = map(np.concatenate, zip(*per_traj))
    E = np.concatenate([traj.ledger.E for traj in trajectories])
    pi0 = np.concatenate([traj.ledger.Pi0 for traj in trajectories])

    # (A1)-type velocity control
    if cfg.b0 > 0.0:
        c0, c1 = 0.0, 1.0 / cfg.b0
    else:
        c1 = 1.0
        c0 = float(max(0.0, np.max(sp2 - c1 * ddot)))

    # equipartition: -(Du_t, u) + (N(u), u) <= eta a(u,u) - c2 Pi0 + c3 + c4 w.
    # c4 is floored at 1 (the scale of the Young constant behind the
    # damping-growth term); a zero c4 would make d3 = d3'/d2 degenerate.
    needed = (-du_u + flow_u) - eta * bend2 + c2 * pi0
    w = (1.0 + E) ** gamma * ddot
    c3, c4 = _fit_offset_slope(needed, w)
    c4 = max(c4, 1.0)

    # balancing prefactor: (N(u), u_t) <= eta~ k ddot + delta E + c_eta delta^-e
    eta_tilde = 0.5
    deltas = np.logspace(-3, 0, 13)
    resid = flow_ut - eta_tilde * ddot
    c_eta = 0.0
    for d in deltas:
        vals = (resid - d * E) * d ** b_exp
        c_eta = max(c_eta, float(np.max(vals)) if len(vals) else 0.0)
    c_eta = max(c_eta * 1.05, 1e-6)

    lam = 1.0 / ops.lambda_min
    sc = energy_mod.sandwich_constants(ops, cfg, cert)
    kappa_damp = 1.0
    eps_struct = min(kappa_damp * (1.0 - eta) / (4.0 * c1), 1.0 / (4.0 * max(1.0, lam)))
    C1, C2 = sandwich_for_eps(eps_struct, lam)
    d3_prime = kappa_damp * (1.0 - eta) - 2.0 * eps_struct * c1
    d0_prime = 2.0 * c0 + c3
    d2 = c4
    d0 = sc.C + d0_prime
    d1 = max(1.0, d0 ** (-1.0 / b_exp)) if 0.0 < d0 < 1.0 else 1.0
    return BarrierConstants(c0=c0, c1=c1, eta=eta, c2=c2, c3=c3, c4=c4,
                            gamma=gamma, kappa_damp=kappa_damp,
                            d0=d0, d1=d1, d2=d2, d3=d3_prime / d2,
                            b_c_eta=c_eta, b_exponent=b_exp,
                            C1=C1, C2=C2, c=sc.C, eps_struct=eps_struct,
                            mode="fitted")


def _fit_offset_slope(needed: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Smallest (offset, slope >= 0) with needed <= offset + slope * w pointwise."""
    pos = w > 0
    cands = [0.0]
    if np.any(pos):
        ratio = needed[pos] / w[pos]
        cands.extend(float(q) for q in np.quantile(ratio, [0.5, 0.9, 0.99, 1.0]) if q > 0)
    best = None
    w_scale = float(np.mean(w)) if len(w) else 0.0
    for c4 in cands:
        c3 = float(max(0.0, np.max(needed - c4 * w)))
        cost = c3 + c4 * w_scale
        if best is None or cost < best[0]:
            best = (cost, c3, c4)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# decay audit
# ---------------------------------------------------------------------------

@dataclass
class DecayAudit:
    eps: float
    times: np.ndarray
    lhs: np.ndarray                 # dV/dt + eps V
    rhs: np.ndarray
    margins: np.ndarray             # rhs - lhs
    fd_allowance: np.ndarray        # roundoff allowance 1e-12 (1 + |V|)
    bracket: np.ndarray             # eps (1 + E)^gamma - d3
    violations: int
    bracket_violations: int


def decay_audit(traj, ops: DiscreteOperators, cfg: PlateConfig,
                cert: SourceCertificate, bc: BarrierConstants,
                eps: float | None = None) -> DecayAudit:
    """Audit dV/dt + eps V against the barrier right-hand side at each snapshot.

    eps defaults to 1/sigma at the initial energy.  dV/dt comes from the
    semidiscrete equation, -(D u_t, u_t) - beta (u_y, u_t) + eps (||u_t||_0^2
    + (M u_tt, u)), so the audit holds or fails at each snapshot whatever
    the snapshot stride; a margin below -1e-12 (1 + |V|) is a violation.
    """
    led = traj.ledger
    if eps is None:
        eps = decay_rate_at_energy(float(led.E[0]), bc)

    def columns(u, v):
        return (np.vecdot(ops.m_diag * v, u), ops.l2_norm_sq(v),
                bilinear_form(ops.dy_blocks, u, v),
                np.vecdot(ops.m_diag * acceleration(u, v, ops, cfg), u))

    vu, sp2, uy_ut, acc_u = in_row_blocks(ops, columns, traj.us, traj.vs)
    V = led.Etot + eps * vu
    ddot = damping_gains(np.sqrt(np.maximum(sp2, 0.0)), cfg) * sp2
    dV = -ddot - cfg.beta * uy_ut + eps * (sp2 + acc_u)
    lhs = dV + eps * V
    bracket = eps * (1.0 + led.E) ** bc.gamma - bc.d3
    rhs = bc.d0 * (eps + bc.b(bc.d1 / eps)) + bc.d2 * bracket * ddot
    margins = rhs - lhs
    fd_allowance = 1e-12 * (1.0 + np.abs(V))

    violations = int(np.sum(margins < -fd_allowance))
    bracket_violations = int(np.sum(bracket > 0.0))
    return DecayAudit(eps=eps, times=traj.times, lhs=lhs, rhs=rhs, margins=margins,
                      fd_allowance=fd_allowance, bracket=bracket,
                      violations=violations, bracket_violations=bracket_violations)


# ---------------------------------------------------------------------------
# ultimate bound
# ---------------------------------------------------------------------------

def ultimate_bound(bc: BarrierConstants, R: float) -> tuple[float, float]:
    """(K_R, V*) from the level iteration s -> d0 {1 + sigma(s) b(d1 sigma(s))},
    run until a step is at most 1e-12 (1 + level), for at most 100 steps.

    K_R = R + d0 {1 + sigma_R b(d1 sigma_R)} caps the transient; iterating
    the level map from K_R converges to a bound independent of R, which
    is exactly the radius-independence claim being audited.  V-levels
    convert to energy levels through E = (V + c)/C1.
    """
    if R < 0:
        raise BarrierError(f"initial level must be >= 0, got {R}")

    def level_map(v_level: float) -> float:
        E_level = max(0.0, (v_level + bc.c) / bc.C1)
        sig = solve_barrier_scale(E_level, bc)
        return bc.d0 * (1.0 + sig * bc.b(bc.d1 * sig))

    K_R = R + level_map(R)
    s, max_iter = K_R, 100
    for _ in range(max_iter):
        s_new = level_map(s)
        if not np.isfinite(s_new) or s_new > 1e14:
            raise BarrierError(
                "level iteration diverged; the constants do not satisfy the "
                "balancing requirement")
        if abs(s_new - s) <= 1e-12 * (1.0 + abs(s_new)):
            return K_R, s_new
        s = s_new
    raise BarrierError(f"level iteration did not settle in {max_iter} steps "
                       f"(last level {s:.6g})")
