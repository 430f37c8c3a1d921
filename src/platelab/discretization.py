"""Galerkin basis and discrete operators for the plate on (0, pi) x (-l, l).

The displacement space consists of H^2 functions vanishing on the short
edges x in {0, pi}; the long edges y = +/- l are free.  Free edges are
natural boundary conditions for the plate bilinear form

    a(u, v) = int [ Lap(u) Lap(v)
                    - (1 - sigma) (u_xx v_yy + u_yy v_xx - 2 u_xy v_xy) ],

so conformity only requires u = 0 at x = 0, pi.  We therefore use the
tensor basis

    phi_{m,k}(x, y) = sin(m x) * P_k(y / l),   m = 1..Mx, k = 0..Ny-1,

with P_k the Legendre polynomial of degree k.  The quadrature grid is a
uniform trapezoid rule in x (exact for the cosine series produced by
products of sine/cosine factors up to frequency 2*nx - 1) tensored with
Gauss-Legendre in y (exact for polynomials up to degree 2*ny - 1).
All assembled matrices are therefore exact to roundoff for the bilinear
forms of the model; the oversampling headroom is consumed by the
pointwise nonlinearities (u^+, cubic sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg


class DiscretizationError(ValueError):
    """Invalid basis/grid/domain parameters or a failed assembly invariant."""


@dataclass(frozen=True)
class DomainSpec:
    """Rectangular plate domain (0, pi) x (-l, l) with Poisson ratio sigma."""

    l: float = 1.0
    sigma: float = 0.3

    def __post_init__(self):
        problems = self.violations()
        if problems:
            raise DiscretizationError("; ".join(problems))

    def violations(self) -> list[str]:
        out = []
        if not self.l > 0:
            out.append(f"half-width l must be positive, got {self.l}")
        if not 0.0 < self.sigma < 0.5:
            out.append(f"Poisson ratio must lie in (0, 1/2), got {self.sigma}")
        return out

    @property
    def area(self) -> float:
        return 2.0 * np.pi * self.l


@dataclass(frozen=True)
class Basis:
    """Tensor basis sin(m x) * P_k(y/l), m-major ordering.

    Index i = (m - 1) * Ny + k runs over m = 1..Mx, k = 0..Ny-1.
    """

    Mx: int
    Ny: int
    dom: DomainSpec

    def __post_init__(self):
        if self.Mx < 1 or self.Ny < 1:
            raise DiscretizationError(
                f"mode counts must be >= 1, got Mx={self.Mx}, Ny={self.Ny}")

    @property
    def n(self) -> int:
        return self.Mx * self.Ny

    def evaluate(self, coeffs, x, y):
        """Evaluate sum_i coeffs[i] phi_i at arbitrary points (broadcasting)."""
        coeffs = np.asarray(coeffs, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        a = coeffs.reshape(self.Mx, self.Ny)
        xi = y / self.dom.l
        out = np.zeros(np.broadcast(x, y).shape)
        for m in range(1, self.Mx + 1):
            ym = npleg.legval(xi, a[m - 1])
            out = out + np.sin(m * x) * ym
        return out


def build_basis(Mx: int, Ny: int, dom: DomainSpec) -> Basis:
    """Construct the sine-Legendre tensor basis; rejects zero mode counts."""
    return Basis(Mx=int(Mx), Ny=int(Ny), dom=dom)


@dataclass(frozen=True)
class QuadGrid:
    """Tensor quadrature grid with factored per-basis tables.

    x: uniform trapezoid on [0, pi] with nx panels (nx + 1 nodes, half
    weights at the ends); y: Gauss-Legendre with ny nodes on (-l, l).
    Tables are stored in factored form; `basis_tables` materialises the
    full (n, n_nodes) tables when a test needs direct 2-D quadrature.
    """

    basis: Basis
    x_nodes: np.ndarray
    x_weights: np.ndarray
    y_nodes: np.ndarray
    y_weights: np.ndarray
    # x-factor tables, shape (Mx, nx): sin(m x), d/dx, d2/dx2
    sx: np.ndarray = field(repr=False)
    dsx: np.ndarray = field(repr=False)
    d2sx: np.ndarray = field(repr=False)
    # y-factor tables, shape (Ny, ny): P_k(y/l), d/dy, d2/dy2
    ly: np.ndarray = field(repr=False)
    dly: np.ndarray = field(repr=False)
    d2ly: np.ndarray = field(repr=False)
    # outer product of the 1-D weights, built once (read-only)
    _w2d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w2d = np.outer(self.x_weights, self.y_weights)
        w2d.setflags(write=False)
        object.__setattr__(self, "_w2d", w2d)

    @property
    def weight_sum(self) -> float:
        return float(self.x_weights.sum() * self.y_weights.sum())

    @property
    def n_nodes(self) -> int:
        return self.x_nodes.size * self.y_nodes.size

    def weights_2d(self) -> np.ndarray:
        return self._w2d

    def eval_coeffs(self, coeffs, which: str = "val") -> np.ndarray:
        """Nodal values of the field (or a derivative) on the (nx, ny) grid.

        which: 'val', 'dx', 'dy', 'dxx', 'dyy', 'dxy'.  A stack of
        coefficient vectors (m, n) gives a stack of grids (m, nx, ny).
        """
        a = np.asarray(coeffs, dtype=float)
        a = a.reshape(a.shape[:-1] + (self.basis.Mx, self.basis.Ny))
        fx, fy = {
            "val": (self.sx, self.ly),
            "dx": (self.dsx, self.ly),
            "dy": (self.sx, self.dly),
            "dxx": (self.d2sx, self.ly),
            "dyy": (self.sx, self.d2ly),
            "dxy": (self.dsx, self.dly),
        }[which]
        return fx.T @ a @ fy

    def project(self, values: np.ndarray) -> np.ndarray:
        """Inner products (values, phi_i) for all basis functions.

        `values` has shape (nx, ny); returns a length-n load vector.  A
        stack of grids (m, nx, ny) gives a stack of load vectors (m, n).
        """
        w = self._w2d * values
        return (self.sx @ w @ self.ly.T).reshape(values.shape[:-2] + (-1,))

    def integrate(self, values: np.ndarray):
        """Quadrature of nodal values (nx, ny), or per grid of a stack (m, nx, ny)."""
        flat = values.reshape(values.shape[:-2] + (-1,))
        return np.vecdot(flat, self._w2d.ravel())

    def basis_tables(self) -> dict[str, np.ndarray]:
        """Full per-basis nodal tables (n, nx, ny); intended for oracle tests."""
        out = {}
        for name, (fx, fy) in {
            "phi": (self.sx, self.ly),
            "phi_x": (self.dsx, self.ly),
            "phi_y": (self.sx, self.dly),
            "phi_xx": (self.d2sx, self.ly),
            "phi_yy": (self.sx, self.d2ly),
            "phi_xy": (self.dsx, self.dly),
        }.items():
            out[name] = np.einsum("ma,kb->mkab", fx, fy).reshape(
                self.basis.n, self.x_nodes.size, self.y_nodes.size)
        return out


def quadrature_grid(basis: Basis, dom: DomainSpec, oversample: int = 3) -> QuadGrid:
    """Build the tensor quadrature grid with per-basis derivative tables.

    Requires oversample >= 2: the quartic stretching term and cubic
    sources need over-integration.  x gets max(4, oversample) * Mx
    panels, y gets max(oversample * Ny, 2 * (Ny + 2)) Gauss points.
    """
    if oversample < 2:
        raise DiscretizationError(f"oversample must be >= 2, got {oversample}")
    if basis.dom != dom:
        raise DiscretizationError("basis was built for a different domain")

    nx = max(4, int(oversample)) * basis.Mx
    ny = max(int(oversample) * basis.Ny, 2 * (basis.Ny + 2))

    h = np.pi / nx
    x_nodes = np.linspace(0.0, np.pi, nx + 1)
    x_weights = np.full(nx + 1, h)
    x_weights[0] = x_weights[-1] = h / 2.0

    xi, wy = npleg.leggauss(ny)
    y_nodes = dom.l * xi
    y_weights = dom.l * wy

    ms = np.arange(1, basis.Mx + 1)[:, None]
    sx = np.sin(ms * x_nodes[None, :])
    dsx = ms * np.cos(ms * x_nodes[None, :])
    d2sx = -(ms ** 2) * sx

    ly = np.empty((basis.Ny, ny))
    dly = np.empty((basis.Ny, ny))
    d2ly = np.empty((basis.Ny, ny))
    for k in range(basis.Ny):
        ck = np.zeros(k + 1)
        ck[k] = 1.0
        ly[k] = npleg.legval(xi, ck)
        dly[k] = npleg.legval(xi, npleg.legder(ck)) / dom.l if k >= 1 else 0.0
        d2ly[k] = npleg.legval(xi, npleg.legder(ck, 2)) / dom.l ** 2 if k >= 2 else 0.0

    return QuadGrid(basis=basis, x_nodes=x_nodes, x_weights=x_weights,
                    y_nodes=y_nodes, y_weights=y_weights,
                    sx=sx, dsx=dsx, d2sx=d2sx, ly=ly, dly=dly, d2ly=d2ly)


def _gram_x(grid: QuadGrid, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    return (fa * grid.x_weights) @ fb.T


def _gram_y(grid: QuadGrid, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    return (fa * grid.y_weights) @ fb.T


def assemble_mass(basis: Basis, grid: QuadGrid) -> np.ndarray:
    """L2 mass matrix M[i, j] = (phi_i, phi_j); symmetric positive definite."""
    M = np.kron(_gram_x(grid, grid.sx, grid.sx), _gram_y(grid, grid.ly, grid.ly))
    M = 0.5 * (M + M.T)
    _require_spd(M, "mass matrix")
    return M


def assemble_stiffness(basis: Basis, grid: QuadGrid, dom: DomainSpec) -> np.ndarray:
    """Plate stiffness K[i, j] = a(phi_i, phi_j) with Poisson-ratio coupling.

    Expanding the bilinear form gives
        a(u, v) = int u_xx v_xx + u_yy v_yy
                  + sigma (u_xx v_yy + u_yy v_xx) + 2 (1 - sigma) u_xy v_xy,
    each term separable in x and y, so the assembly reduces to 1-D Grams.
    """
    sig = dom.sigma
    X_ss = _gram_x(grid, grid.sx, grid.sx)
    X_s2s2 = _gram_x(grid, grid.d2sx, grid.d2sx)
    X_s2s = _gram_x(grid, grid.d2sx, grid.sx)
    X_cc = _gram_x(grid, grid.dsx, grid.dsx)
    Y_ll = _gram_y(grid, grid.ly, grid.ly)
    Y_l2l2 = _gram_y(grid, grid.d2ly, grid.d2ly)
    Y_ll2 = _gram_y(grid, grid.ly, grid.d2ly)
    Y_l1l1 = _gram_y(grid, grid.dly, grid.dly)

    K = (np.kron(X_s2s2, Y_ll)
         + np.kron(X_ss, Y_l2l2)
         + sig * (np.kron(X_s2s, Y_ll2) + np.kron(X_s2s.T, Y_ll2.T))
         + 2.0 * (1.0 - sig) * np.kron(X_cc, Y_l1l1))
    K = 0.5 * (K + K.T)
    _require_spd(K, "stiffness matrix")
    return K


def assemble_derivative_grams(basis: Basis, grid: QuadGrid) -> tuple[np.ndarray, np.ndarray]:
    """Gx[i, j] = (d_x phi_i, d_x phi_j) and Dy[i, j] = (d_y phi_i, phi_j)."""
    Gx = np.kron(_gram_x(grid, grid.dsx, grid.dsx), _gram_y(grid, grid.ly, grid.ly))
    Gx = 0.5 * (Gx + Gx.T)
    Dy = np.kron(_gram_x(grid, grid.sx, grid.sx), _gram_y(grid, grid.dly, grid.ly))
    return Gx, Dy


def _require_spd(A: np.ndarray, name: str) -> None:
    sym_defect = float(np.max(np.abs(A - A.T)))
    if sym_defect > 1e-12 * max(1.0, float(np.max(np.abs(A)))):
        raise DiscretizationError(f"{name} is not symmetric (defect {sym_defect:.3e})")
    w = np.linalg.eigvalsh(A)
    if w[0] <= 0:
        raise DiscretizationError(
            f"{name} is not positive definite (min eigenvalue {w[0]:.3e}); "
            "quadrature/basis inconsistency")


@dataclass(frozen=True)
class DiscreteOperators:
    """Assembled operator set for one basis; immutable and thread-safe.

    mu/phi hold the generalized eigendecomposition K phi = M phi diag(mu)
    with phi^T M phi = I; lambda_min = mu[0] is the coercivity constant of
    the stiffness form over the mass form.  The norms take one coefficient
    vector (n,) or a snapshot stack (m, n), giving one value per row.
    """

    basis: Basis
    grid: QuadGrid
    dom: DomainSpec
    M: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    Gx: np.ndarray = field(repr=False)
    Gy: np.ndarray = field(repr=False)
    Dy: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    lambda_min: float = 0.0

    @property
    def n(self) -> int:
        return self.basis.n

    def l2_norm_sq(self, v):
        return bilinear_form(self.M, v, v)

    def bending_norm_sq(self, u):
        return bilinear_form(self.K, u, u)

    def state_norm_sq(self, u, v):
        """Squared phase-space norm ||u||_{2,*}^2 + ||v||_0^2."""
        return self.bending_norm_sq(u) + self.l2_norm_sq(v)

    def modal_coords(self, u) -> np.ndarray:
        """Coefficients of u in the M-orthonormal stiffness eigenbasis."""
        return np.matvec(self.phi.T, np.matvec(self.M, u))

    def fractional_norm_sq(self, u, order: float):
        """Spectral surrogate for ||u||_{order}^2, order in [0, 2].

        Defined as sum mu_i^(order/2) c_i^2 with c the modal coordinates:
        order 0 recovers the L2 norm, order 2 the bending norm.
        """
        c = self.modal_coords(u)
        return np.sum(self.mu ** (order / 2.0) * c * c, axis=-1)


def bilinear_form(A: np.ndarray, x, y):
    """x^T A y for vectors (n,), or row by row for stacks (m, n); each row
    runs the single-vector products, so it has the same bits."""
    return np.vecdot(np.vecmat(x, A), y)


def build_operators(basis: Basis, grid: QuadGrid, dom: DomainSpec) -> DiscreteOperators:
    """Assemble all Grams and the (K, M) eigendecomposition for one basis."""
    import scipy.linalg

    M = assemble_mass(basis, grid)
    K = assemble_stiffness(basis, grid, dom)
    Gx, Dy = assemble_derivative_grams(basis, grid)
    Gy = np.kron(_gram_x(grid, grid.sx, grid.sx), _gram_y(grid, grid.dly, grid.dly))
    Gy = 0.5 * (Gy + Gy.T)
    mu, phi = scipy.linalg.eigh(K, M)
    if mu[0] <= 0:
        raise DiscretizationError(
            f"smallest generalized eigenvalue is not positive: {mu[0]:.3e}")
    return DiscreteOperators(basis=basis, grid=grid, dom=dom, M=M, K=K,
                             Gx=Gx, Gy=Gy, Dy=Dy, mu=mu, phi=phi,
                             lambda_min=float(mu[0]))


def make_operators(Mx: int, Ny: int, dom: DomainSpec | None = None,
                   oversample: int = 3) -> DiscreteOperators:
    """One-call helper: basis + grid + operators."""
    dom = dom or DomainSpec()
    basis = build_basis(Mx, Ny, dom)
    grid = quadrature_grid(basis, dom, oversample)
    return build_operators(basis, grid, dom)


def embedding_constant(ops: DiscreteOperators, tol: float = 1e-10,
                       max_iter: int = 500) -> tuple[float, np.ndarray]:
    """Largest value of ||u||_0^2 / a(u, u) and the vector achieving it.

    Equals 1 / lambda_min(K, M); computed here independently by inverse
    iteration on (K, M) so it can cross-check the dense eigensolve.
    """
    import scipy.linalg

    n = ops.n
    lu, piv = scipy.linalg.lu_factor(ops.K)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.sqrt(v @ ops.M @ v)
    lam_old = np.inf
    for _ in range(max_iter):
        w = scipy.linalg.lu_solve((lu, piv), ops.M @ v)
        nrm = np.sqrt(w @ ops.M @ w)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise DiscretizationError("inverse iteration broke down")
        v = w / nrm
        lam = float(v @ ops.K @ v)  # Rayleigh quotient, v is M-normalized
        if abs(lam - lam_old) <= tol * abs(lam):
            break
        lam_old = lam
    else:
        raise DiscretizationError(
            f"inverse iteration did not converge within {max_iter} iterations")
    return 1.0 / lam, v
