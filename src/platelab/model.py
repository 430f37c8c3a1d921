"""Nonlinear operators of the semidiscrete plate system.

With modal coefficient vectors a (displacement) and v (velocity), the
Galerkin form of the plate equation reads

    M a'' + K a + g(||v||_0) M v = load(a),

where the load collects the tested nonlinearities

    load_i = (alpha - delta ||u_x||_0^2) (Gx a)_i
             - kappa (u^+, phi_i) - (f0(u), phi_i) - beta (Dy^T a)_i.

The positive part u^+ and the source f0 are evaluated pointwise at the
quadrature nodes (no regularisation of the kink; the grid oversampling
absorbs it) and then tested against the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .discretization import DiscreteOperators, DomainSpec, QuadGrid, bilinear_form


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceSpec:
    """Internal restoring source f0.

    kind 'zero':             f0 = 0
    kind 'cubic_minus_load': f0(s) = s^3 - load  (hardening spring minus a
                             constant transverse load)
    kind 'custom':           cubic-spline interpolant of (table_s, table_f);
                             must pass certify_source before production use.
    """

    kind: str = "zero"
    load: float = 0.0
    table_s: tuple[float, ...] = ()
    table_f: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero", "cubic_minus_load", "custom"):
            raise ModelError(f"unknown source kind {self.kind!r}")
        if self.kind == "custom" and len(self.table_s) < 4:
            raise ModelError("custom source needs at least 4 table points")

    def _spline(self):
        from scipy.interpolate import CubicSpline
        return CubicSpline(np.asarray(self.table_s), np.asarray(self.table_f))

    def f(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "cubic_minus_load":
            out = s * s             # products: pow takes a slow path on negative bases
            out *= s
            out -= self.load
            return out
        return self._spline()(s)

    def f_prime(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "cubic_minus_load":
            return 3.0 * s ** 2
        return self._spline().derivative()(s)

    def antiderivative(self, s):
        """F0~(s) = int_0^s f0, normalised to vanish at 0."""
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "cubic_minus_load":
            out = s * s             # s (s^3/4 - load), in place: one new array
            out *= s
            out /= 4.0
            out -= self.load
            out *= s
            return out
        anti = self._spline().antiderivative()
        return anti(s) - anti(0.0)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateConfig:
    """Physical parameters of the plate equation.

    damping_coeffs = (b_0, ..., b_q) defines the velocity-norm gain
    g(s) = sum_j b_j s^j.  The canonical two-term damping b_0 + b_q s^q
    is the tuple with zeros in between.  All-zero damping is
    representable (control experiments need it) but `violations` flags
    it, and the strict config parser rejects it unless explicitly
    allowed.
    """

    alpha: float = 0.0
    delta: float = 0.0
    beta: float = 0.0
    kappa: float = 0.0
    damping_coeffs: tuple[float, ...] = (1.0, 0.0)
    source: SourceSpec = field(default_factory=SourceSpec)
    dom: DomainSpec = field(default_factory=DomainSpec)

    @property
    def q(self) -> int:
        return len(self.damping_coeffs) - 1

    @property
    def q_eff(self) -> int:
        """Largest damping exponent with a nonzero coefficient (0 if none)."""
        nz = [j for j, b in enumerate(self.damping_coeffs) if b != 0.0]
        return max(nz) if nz else 0

    @property
    def b0(self) -> float:
        return self.damping_coeffs[0]

    def violations(self) -> list[str]:
        out = list(self.dom.violations())
        if self.delta < 0:
            out.append(f"stretching stiffness delta must be >= 0, got {self.delta}")
        if self.kappa < 0:
            out.append(f"stay coefficient kappa must be >= 0, got {self.kappa}")
        if self.q < 1:
            out.append(f"damping degree q must be >= 1, got {self.q}")
        if any(b < 0 for b in self.damping_coeffs):
            out.append(f"damping coefficients must be >= 0, got {self.damping_coeffs}")
        if sum(self.damping_coeffs) == 0.0:
            out.append("damping coefficients are all zero (b_0 + b_q must not vanish)")
        return out

    def require_valid(self, allow_undamped: bool = False) -> None:
        problems = self.violations()
        if allow_undamped:
            problems = [p for p in problems if "all zero" not in p]
        if problems:
            raise ModelError("; ".join(problems))

    def with_(self, **kw) -> "PlateConfig":
        return replace(self, **kw)


@dataclass
class State:
    """Phase-space point: modal displacement u, velocity v, clock t; or a
    member stack of them, u and v of shape (S, n), at the common clock t."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.t)

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v)))


# ---------------------------------------------------------------------------
# damping
# ---------------------------------------------------------------------------

def damping_gain(s: float, cfg: PlateConfig) -> float:
    """g(s) = sum_j b_j s^j for s >= 0; nondecreasing, g(0) = b_0."""
    if s < 0:
        raise ModelError(f"damping gain argument must be >= 0, got {s}")
    return horner(cfg.damping_coeffs, s)


def damping_gains(speeds: np.ndarray, cfg: PlateConfig) -> np.ndarray:
    """g at each of an array of speeds >= 0, with damping_gain's bits."""
    return horner(cfg.damping_coeffs, speeds)


def horner(coeffs, x):
    """sum_j coeffs[j] x^j for x >= 0, a float or an array (coeffs nonempty),
    in Horner order; a zero coefficient adds nothing, which for x >= 0 and
    coeffs >= 0 changes no bit."""
    *low, acc = coeffs
    for b in reversed(low):
        acc = acc * x + b if b else acc * x
    return acc


def damping_load(v: np.ndarray, ops: DiscreteOperators, cfg: PlateConfig) -> np.ndarray:
    """Tested damping D(v): g(||v||_0) M v.  Monotone since all b_j >= 0."""
    v = np.asarray(v, dtype=float)
    speed = float(np.sqrt(max(ops.l2_norm_sq(v), 0.0)))
    return damping_gain(speed, cfg) * (ops.M @ v)


# ---------------------------------------------------------------------------
# force load
# ---------------------------------------------------------------------------

def berger_coefficient(u, ops: DiscreteOperators, cfg: PlateConfig):
    """Effective axial coefficient alpha - delta ||u_x||_0^2, per row of a stack."""
    return cfg.alpha - cfg.delta * bilinear_form(ops.Gx, u, u)


def _pointwise_load(u, ops: DiscreteOperators, cfg: PlateConfig,
                    grid: QuadGrid) -> np.ndarray:
    """(kappa u^+ + f0(u), phi_i) via nodal evaluation, with overflow check."""
    vals = grid.eval_coeffs(u, "val")
    if cfg.source.is_zero:
        nodal = cfg.kappa * np.maximum(vals, 0.0)
    else:
        nodal = cfg.source.f(vals)
        if cfg.kappa != 0.0:
            nodal += cfg.kappa * np.maximum(vals, 0.0)
    if not np.all(np.isfinite(nodal)):
        ii, jj = np.argwhere(~np.isfinite(nodal))[0][-2:]
        raise ModelError(
            "source evaluation overflowed at node "
            f"(x={grid.x_nodes[ii]:.6g}, y={grid.y_nodes[jj]:.6g})")
    return grid.project(nodal)


def force_load(u: np.ndarray, ops: DiscreteOperators, cfg: PlateConfig,
               grid: QuadGrid | None = None) -> np.ndarray:
    """Tested right-hand side (F(u), phi_i) of the semidiscrete system.

    F(u) = -[(alpha - delta ||u_x||^2) u_xx + kappa u^+ + f0(u) + beta u_y];
    the Berger term is integrated by parts onto Gx (the boundary term
    vanishes on the short edges where phi = 0).  Takes one state (n,) or a
    member stack (S, n); each row has the bits of the single-state call.
    """
    grid = grid or ops.grid
    u = np.asarray(u, dtype=float)
    out = berger_coefficient(u, ops, cfg)[..., None] * np.matvec(ops.Gx, u)
    if cfg.kappa != 0.0 or not cfg.source.is_zero:
        out -= _pointwise_load(u, ops, cfg, grid)
    if cfg.beta != 0.0:
        out -= cfg.beta * np.vecmat(u, ops.Dy)
    return out


def nonconservative_load(u: np.ndarray, ops: DiscreteOperators,
                         cfg: PlateConfig) -> np.ndarray:
    """Tested flow term (N(u), phi_i) = -beta (u_y, phi_i)."""
    return -cfg.beta * (ops.Dy.T @ np.asarray(u, dtype=float))


def force_jacobian(u: np.ndarray, ops: DiscreteOperators, cfg: PlateConfig,
                   grid: QuadGrid | None = None) -> np.ndarray:
    """d(force_load)/du: analytic for smooth parts, semismooth for the kink.

    The u^+ term contributes the Gram weighted by the indicator u > 0 at
    the nodes (one Clarke-subgradient choice).
    """
    grid = grid or ops.grid
    u = np.asarray(u, dtype=float)
    gxu = ops.Gx @ u
    J = berger_coefficient(u, ops, cfg) * ops.Gx - 2.0 * cfg.delta * np.outer(gxu, gxu)
    if cfg.kappa != 0.0 or not cfg.source.is_zero:
        vals = grid.eval_coeffs(u, "val")
        wgt = np.zeros_like(vals)
        if cfg.kappa != 0.0:
            wgt = wgt + cfg.kappa * (vals > 0.0)
        if not cfg.source.is_zero:
            wgt = wgt + cfg.source.f_prime(vals)
        J = J - _weighted_gram(grid, wgt)
    if cfg.beta != 0.0:
        J = J - cfg.beta * ops.Dy.T
    return J


def _weighted_gram(grid: QuadGrid, nodal_weight: np.ndarray) -> np.ndarray:
    """Gram (w phi_i, phi_j) with nodal weight w: two matmuls, over the
    products sin(m x) sin(m' x), then over P_k(y) P_k'(y)."""
    Mx, Ny = grid.basis.Mx, grid.basis.Ny
    sxx = (grid.sx[:, None, :] * grid.sx[None, :, :]).reshape(Mx * Mx, -1)
    lyy = (grid.ly[:, None, :] * grid.ly[None, :, :]).reshape(Ny * Ny, -1)
    T = (sxx @ (grid.weights_2d() * nodal_weight)) @ lyy.T     # [(m, m'), (k, k')]
    return T.reshape(Mx, Mx, Ny, Ny).transpose(0, 2, 1, 3).reshape(grid.basis.n, -1)


# ---------------------------------------------------------------------------
# source certification (dissipativity of the antiderivative)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceCertificate:
    ok: bool
    c: float = 0.0
    b: float = 0.0
    witness: float | None = None
    message: str = ""


def certify_source(cfg: PlateConfig, sample_range: tuple[float, float] = (-10.0, 10.0),
                   samples: int = 2001) -> SourceCertificate:
    """Certify F0~(s) >= -c s^2 - b on the sampled range, or report a witness.

    Rejects sources whose antiderivative decays faster than quadratically
    at the range ends (equivalently f0(s)/s trending to -infinity), since
    then no (c, b) pair can work as the range grows.  Otherwise returns
    the smallest grid-snapped (c, b) certifying the bound on the samples.
    """
    s = np.linspace(sample_range[0], sample_range[1], samples)
    F = cfg.source.antiderivative(s)

    if cfg.source.is_zero:
        return SourceCertificate(ok=True, c=0.0, b=0.0)

    # superquadratic decay check: the c needed to keep F0~ + c s^2 >= 0
    # must not keep growing toward the range edges
    smax = max(abs(sample_range[0]), abs(sample_range[1]))
    need = np.maximum(0.0, -F) / np.maximum(s * s, 1e-30)
    inner_band = (np.abs(s) >= 0.45 * smax) & (np.abs(s) <= 0.6 * smax)
    outer_band = np.abs(s) >= 0.9 * smax
    inner = float(np.max(need[inner_band])) if np.any(inner_band) else 0.0
    outer = float(np.max(need[outer_band])) if np.any(outer_band) else 0.0
    if outer > 1.5 * max(inner, 0.25) and outer > 1.0:
        masked = np.where(outer_band, need, -np.inf)
        witness = float(s[int(np.argmax(masked))])
        return SourceCertificate(
            ok=False, witness=witness,
            message="antiderivative decays superquadratically "
                    f"(needs c >= {outer:.3g} near s = {witness:.3g})")

    c_grid = [0.25 * 2 ** k for k in range(12)]
    for c in c_grid:
        h = F + c * s * s
        i_min = int(np.argmin(h))
        if i_min in (0, samples - 1) and h[i_min] < 0:
            continue  # minimum at the range edge: quadratic margin not yet visible
        b_req = max(0.0, -float(h[i_min]))
        b = _snap_up(b_req)
        return SourceCertificate(ok=True, c=c, b=b)
    witness = float(s[int(np.argmin(F + c_grid[-1] * s * s))])
    return SourceCertificate(ok=False, witness=witness,
                             message="no (c, b) on the candidate grid certifies the bound")


def _snap_up(x: float) -> float:
    """Round up to the grid {0, 1/4, 1/2, 1, 2, 4, ...}."""
    if x <= 0:
        return 0.0
    g = 0.25
    while g < x and g < 1e12:
        g *= 2.0
    return g


# ---------------------------------------------------------------------------
# stationary states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryResult:
    u: np.ndarray
    residual: float
    iterations: int
    converged: bool


def solve_stationary(cfg: PlateConfig, ops: DiscreteOperators,
                     initial_guess: np.ndarray | None = None,
                     tol: float = 1e-10, max_iter: int = 80) -> StationaryResult:
    """Damped (Armijo) semismooth Newton for K u = load(u).

    Returns the final iterate either way; `converged` reflects whether
    the residual dropped below tol.
    """
    n = ops.n
    u = np.zeros(n) if initial_guess is None else np.asarray(initial_guess, dtype=float).copy()

    def residual(a):
        return ops.K @ a - force_load(a, ops, cfg)

    r = residual(u)
    rn = float(np.linalg.norm(r))
    for it in range(1, max_iter + 1):
        if rn <= tol:
            return StationaryResult(u=u, residual=rn, iterations=it - 1, converged=True)
        J = ops.K - force_jacobian(u, ops, cfg)
        try:
            du = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            du = np.linalg.lstsq(J, -r, rcond=None)[0]
        step = 1.0
        for _ in range(30):
            u_new = u + step * du
            r_new = residual(u_new)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < (1.0 - 1e-4 * step) * rn:
                break
            step *= 0.5
        else:
            return StationaryResult(u=u, residual=rn, iterations=it, converged=rn <= tol)
        u, r, rn = u_new, r_new, rn_new
    return StationaryResult(u=u, residual=rn, iterations=max_iter, converged=rn <= tol)
