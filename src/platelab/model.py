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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discretization import (DiscreteOperators, DomainSpec, QuadGrid, block_matvec,
                             block_vecmat)


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceSpec:
    """Internal restoring source f0.  Each kind takes exactly the parameters
    it reads, and every other parameter must stay None:

    kind 'zero':             f0 = 0
    kind 'cubic_minus_load': f0(s) = s^3 - load  (hardening spring minus a
                             constant transverse load)
    kind 'custom':           cubic-spline interpolant of (table_s, table_f);
                             must pass certify_source before production use.
    """

    kind: str = "zero"
    load: float | None = None
    table_s: tuple[float, ...] | None = None
    table_f: tuple[float, ...] | None = None

    def __post_init__(self):
        reads = {"zero": (), "cubic_minus_load": ("load",),
                 "custom": ("table_s", "table_f")}.get(self.kind)
        if reads is None:
            raise ModelError(f"unknown source kind {self.kind!r}")
        stated = tuple(p for p in ("load", "table_s", "table_f") if getattr(self, p) is not None)
        if stated != reads:
            raise ModelError(f"{self.kind} source takes {' and '.join(reads) or 'no parameter'}, "
                             f"got {', '.join(stated) or 'none'}")
        if self.kind == "custom":
            if len(self.table_s) < 4:
                raise ModelError("custom source needs at least 4 table points")
            if len(self.table_s) != len(self.table_f):
                raise ModelError("source tables must have equal length")
            if any(a >= b for a, b in zip(self.table_s, self.table_s[1:])):
                raise ModelError("custom source knots must be strictly increasing")

    @cached_property
    def _spline(self):
        """The custom interpolant, built on first use and kept."""
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
        return self._spline(s)

    def f_prime(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "cubic_minus_load":
            return 3.0 * s ** 2
        return self._spline.derivative()(s)

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
        anti = self._spline.antiderivative()
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
    representable (control experiments need it); the strict config
    parser rejects it unless explicitly allowed.
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


# ---------------------------------------------------------------------------
# damping
# ---------------------------------------------------------------------------

def damping_gains(speeds, cfg: PlateConfig):
    """g(s) = sum_j b_j s^j at a speed s >= 0 or at each of an array of them;
    nondecreasing, g(0) = b_0."""
    return horner(cfg.damping_coeffs, speeds)


def horner(coeffs, x):
    """sum_j coeffs[j] x^j for x >= 0, a float or an array (coeffs nonempty),
    in Horner order; a zero coefficient adds nothing, which for x >= 0 and
    coeffs >= 0 changes no bit."""
    *low, acc = coeffs
    for b in reversed(low):
        acc = acc * x + b if b else acc * x
    return acc


# ---------------------------------------------------------------------------
# force load
# ---------------------------------------------------------------------------

def berger_coefficient(u, ops: DiscreteOperators, cfg: PlateConfig):
    """Effective axial coefficient alpha - delta ||u_x||_0^2, per row of a stack."""
    return cfg.alpha - cfg.delta * ops.ux_norm_sq(u)


def nodal_load(u, ops: DiscreteOperators, cfg: PlateConfig, order: int = 0):
    """The pointwise load kappa u^+ + f0(u) at the quadrature nodes of one
    state or of each row of a stack (order 0), its derivative kappa [u > 0]
    + f0'(u) (order 1) or its antiderivative kappa (u^+)^2/2 + F0~(u)
    (order -1); None when kappa = 0 and f0 = 0.  Order -1 holds at most two
    grid-sized arrays; a row whose source overflows is not finite."""
    if cfg.kappa == 0.0 and cfg.source.is_zero:
        return None
    vals = ops.grid.eval_coeffs(u)
    src = cfg.source
    nodal = None if src.is_zero else (src.antiderivative, src.f, src.f_prime)[order + 1](vals)
    if cfg.kappa != 0.0:
        if order == 1:
            stay = cfg.kappa * (vals > 0.0)
        else:                               # in place: the nodal values are spent
            stay = np.maximum(vals, 0.0, out=vals)
            if order < 0:
                stay *= stay
            stay *= cfg.kappa if order == 0 else 0.5 * cfg.kappa
        if nodal is None:
            return stay
        nodal += stay
    return nodal


def force_load(u: np.ndarray, ops: DiscreteOperators, cfg: PlateConfig) -> np.ndarray:
    """Tested right-hand side (F(u), phi_i) of the semidiscrete system.

    F(u) = -[(alpha - delta ||u_x||^2) u_xx + kappa u^+ + f0(u) + beta u_y];
    the Berger term is integrated by parts onto Gx (the boundary term
    vanishes on the short edges where phi = 0).  Takes one state (n,) or a
    member stack (S, n); each row has the bits of the single-state call,
    and a row that overflows is not finite.
    """
    u = np.asarray(u, dtype=float)
    gxu = ops.gx_diag * u       # Gx u, also giving ||u_x||^2 = (Gx u, u)
    out = (cfg.alpha - cfg.delta * np.vecdot(gxu, u))[..., None] * gxu
    nodal = nodal_load(u, ops, cfg)
    if nodal is not None:
        out -= ops.grid.project(nodal)
    if cfg.beta != 0.0:
        out -= cfg.beta * block_vecmat(u, ops.dy_blocks)
    return out


ROW_BLOCK_BYTES = 1 << 18       # one nodal array of a row block: 256 KiB


def in_row_blocks(ops: DiscreteOperators, f, *stacks):
    """f(*blocks) on row blocks of the equal-length stacks (m, ...), joined.

    f is row-wise and returns a tuple of arrays, each with a row per stack
    row (per-row columns); so does this, with the bits of one call on the
    whole stacks.  A block holds max(1, ROW_BLOCK_BYTES // (8 * nodes))
    rows, nodes being the quadrature grid's, so that one nodal array of a
    block stays within ROW_BLOCK_BYTES.
    """
    rows = max(1, ROW_BLOCK_BYTES // (8 * ops.grid.n_nodes))
    parts = [f(*(s[i:i + rows] for s in stacks)) for i in range(0, len(stacks[0]), rows)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def acceleration(u, v, ops: DiscreteOperators, cfg: PlateConfig) -> np.ndarray:
    """u_tt = M^{-1} (load(u) - K u) - g(||v||_0) v per row of stacks u, v (m, n);
    its nodal arrays have a row per stack row, so take long stacks
    `in_row_blocks`."""
    acc = force_load(u, ops, cfg)
    acc -= block_matvec(ops.k_blocks, u)
    acc /= ops.m_diag
    sp2 = ops.l2_norm_sq(v)
    acc -= damping_gains(np.sqrt(sp2), cfg)[:, None] * v
    return acc


def force_jacobian(u: np.ndarray, ops: DiscreteOperators, cfg: PlateConfig) -> np.ndarray:
    """d(force_load)/du: analytic for smooth parts, semismooth for the kink.

    The u^+ term contributes the Gram weighted by the indicator u > 0 at
    the nodes (one Clarke-subgradient choice).  Assembled in place in one
    (n, n) array, a sine row of blocks at a time: the Berger rank-one term
    and the weighted Gram fill every block, the flow term only the diagonal
    sine blocks.
    """
    u = np.asarray(u, dtype=float)
    Mx, Ny, n = ops.basis.Mx, ops.basis.Ny, ops.n
    gxu = ops.gx_diag * u
    J = np.empty((n, n))
    for rows, g in zip(J.reshape(Mx, Ny, n), gxu.reshape(Mx, Ny)):
        np.multiply.outer(g, gxu, out=rows)
        rows *= -2.0 * cfg.delta
    J.reshape(-1)[::n + 1] += berger_coefficient(u, ops, cfg) * ops.gx_diag
    wgt = nodal_load(u, ops, cfg, order=1)
    if wgt is not None:
        _subtract_weighted_gram(J, ops.grid, wgt)
    if cfg.beta != 0.0:
        flow = _sine_blocks(J, Mx)
        flow -= cfg.beta * ops.dy_blocks.transpose(0, 2, 1)
    return J


def _subtract_weighted_gram(J: np.ndarray, grid: QuadGrid, nodal_weight: np.ndarray) -> None:
    """J -= the Gram (w phi_i, phi_j) with nodal weight w: one matmul over the
    products sin(m x) sin(m' x), then per sine row m one over P_k(y) P_k'(y),
    so no (n, n) temporary is made."""
    Mx, Ny = grid.basis.Mx, grid.basis.Ny
    sxx = (grid.sx[:, None, :] * grid.sx[None, :, :]).reshape(Mx * Mx, -1)
    lyy = (grid.ly[:, None, :] * grid.ly[None, :, :]).reshape(Ny * Ny, -1)
    S = (sxx @ (grid.w2d * nodal_weight)).reshape(Mx, Mx, -1)             # [m, m', y]
    for rows, s in zip(J.reshape(Mx, Ny, Mx, Ny), S):                     # [k, m', k']
        rows -= (s @ lyy.T).reshape(Mx, Ny, Ny).transpose(1, 0, 2)


def _sine_blocks(A: np.ndarray, Mx: int) -> np.ndarray:
    """The diagonal sine blocks of an (n, n) array as a writable (Mx, Ny, Ny) view."""
    return np.einsum("mimj->mij", A.reshape(Mx, A.shape[0] // Mx, Mx, -1))


def _newton_matrix(u: np.ndarray, ops: DiscreteOperators, cfg: PlateConfig) -> np.ndarray:
    """K - force_jacobian(u), in force_jacobian's array: negated, then K's
    sine blocks added."""
    A = force_jacobian(u, ops, cfg)
    np.negative(A, out=A)
    stiff = _sine_blocks(A, ops.basis.Mx)
    stiff += ops.k_blocks
    return A


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


def certify_source(cfg: PlateConfig) -> SourceCertificate:
    """Certify F0~(s) >= -c s^2 - b on 2001 samples of [-10, 10] or give a witness.

    Rejects sources whose antiderivative decays faster than quadratically
    at the range ends (equivalently f0(s)/s trending to -infinity), since
    then no (c, b) pair can work as the range grows.  Otherwise returns
    the smallest grid-snapped (c, b) certifying the bound on the samples.
    """
    if cfg.source.is_zero:
        return SourceCertificate(ok=True, c=0.0, b=0.0)
    samples, smax = 2001, 10.0
    s = np.linspace(-smax, smax, samples)
    F = cfg.source.antiderivative(s)

    # superquadratic decay check: the c needed to keep F0~ + c s^2 >= 0
    # must not keep growing toward the range edges
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
                     tol: float = 1e-10) -> StationaryResult:
    """Damped (Armijo) semismooth Newton for K u = load(u), at most 80 iterations.

    Returns the final iterate either way; `converged` reflects whether
    the residual dropped below tol.  The residual applies K by its sine
    blocks, and the Newton matrix K - J is assembled in one (n, n) array
    (`force_jacobian`), so no dense view of the operators is built and an
    iteration holds about 2 n^2 doubles: that matrix and the copy LAPACK
    factorises.
    """
    n, max_iter = ops.n, 80
    u = np.zeros(n) if initial_guess is None else np.asarray(initial_guess, dtype=float).copy()

    def residual(a):
        return block_matvec(ops.k_blocks, a) - force_load(a, ops, cfg)

    r = residual(u)
    rn = float(np.linalg.norm(r))
    for it in range(1, max_iter + 1):
        if rn <= tol:
            return StationaryResult(u=u, residual=rn, iterations=it - 1, converged=True)
        J = _newton_matrix(u, ops, cfg)
        try:
            du = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            du = np.linalg.lstsq(J, -r, rcond=None)[0]
        del J                   # the next matrix is not assembled beside this one
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
