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

The sines are orthogonal in every x-integral, so M and Gx are diagonal and
K and Dy couple only equal sine indices m.  They are stored that way, as
diagonals and (Mx, Ny, Ny) stacks of per-sine blocks, and (K, M) is
factorised block by block.  Dense (n, n) matrices are views built on demand
for tests and inspection; no library path builds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        problems = []
        if not self.l > 0:
            problems.append(f"half-width l must be positive, got {self.l}")
        if not 0.0 < self.sigma < 0.5:
            problems.append(f"Poisson ratio must lie in (0, 1/2), got {self.sigma}")
        if problems:
            raise DiscretizationError("; ".join(problems))

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


@dataclass(frozen=True)
class QuadGrid:
    """Tensor quadrature grid with factored per-basis tables.

    x: uniform trapezoid on [0, pi] with nx panels (nx + 1 nodes, half
    weights at the ends); y: Gauss-Legendre with ny nodes on (-l, l).
    Tables are stored in factored form, one per coordinate.
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

    @property
    def weight_sum(self) -> float:
        return float(self.x_weights.sum() * self.y_weights.sum())

    @property
    def n_nodes(self) -> int:
        return self.x_nodes.size * self.y_nodes.size

    @cached_property
    def w2d(self) -> np.ndarray:
        """Outer product of the 1-D weights, built on first use (read-only)."""
        w2d = np.outer(self.x_weights, self.y_weights)
        w2d.setflags(write=False)
        return w2d

    def eval_coeffs(self, coeffs) -> np.ndarray:
        """Nodal values of the field on the (nx, ny) grid.  A stack of
        coefficient vectors (m, n) gives a stack of grids (m, nx, ny)."""
        a = np.asarray(coeffs, dtype=float)
        a = a.reshape(a.shape[:-1] + (self.basis.Mx, self.basis.Ny))
        return self.sx.T @ a @ self.ly

    def project(self, values: np.ndarray) -> np.ndarray:
        """Inner products (values, phi_i) for all basis functions.

        `values` has shape (nx, ny); returns a length-n load vector.  A
        stack of grids (m, nx, ny) gives a stack of load vectors (m, n).
        """
        w = self.w2d * values
        return (self.sx @ w @ self.ly.T).reshape(values.shape[:-2] + (-1,))

    def integrate(self, values: np.ndarray):
        """Quadrature of nodal values (nx, ny), or per grid of a stack (m, nx, ny)."""
        flat = values.reshape(values.shape[:-2] + (-1,))
        return np.vecdot(flat, self.w2d.ravel())


def quadrature_grid(basis: Basis, oversample: int = 3) -> QuadGrid:
    """Build the tensor quadrature grid, on the basis's domain, with per-basis
    derivative tables.

    Requires oversample >= 2: the quartic stretching term and cubic
    sources need over-integration.  x gets max(4, oversample) * Mx
    panels, y gets max(oversample * Ny, 2 * (Ny + 2)) Gauss points.
    """
    if oversample < 2:
        raise DiscretizationError(f"oversample must be >= 2, got {oversample}")
    dom = basis.dom

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


def block_matvec(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u for a block-diagonal A stored as its (Mx, Ny, Ny) blocks, for an
    array u (n,) or row by row for a stack (m, n), each row with its
    single-vector bits.  One dot per entry: on small blocks, faster than matvec."""
    return np.vecdot(A, u.reshape(-1, A.shape[0], 1, A.shape[2])).reshape(u.shape)


def block_vecmat(u: np.ndarray, A: np.ndarray) -> np.ndarray:
    """u^T A for a block stack A, like `block_matvec`."""
    return np.vecmat(u.reshape(-1, A.shape[0], A.shape[1]), A).reshape(u.shape)


def bilinear_form(A: np.ndarray, x, y):
    """x^T A y for a block stack A, per row of stacks x, y (m, n)."""
    return np.vecdot(x, block_matvec(A, y))


def block_dense(blocks: np.ndarray) -> np.ndarray:
    """The dense block-diagonal (n, n) matrix of a block stack (Mx, Ny, Ny)."""
    Mx, Ny, _ = blocks.shape
    return np.einsum("mij,mp->mipj", blocks, np.eye(Mx)).reshape(Mx * Ny, -1)


def block_eigh(blocks: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of each pencil (A_m, D_m), D = diag(diag) cut into blocks, by
    one batched eigh of D_m^(-1/2) A_m D_m^(-1/2): the eigenvalues (Mx, Ny),
    ascending per block, and eigenvector blocks P with P_m^T D_m P_m = I."""
    s = 1.0 / np.sqrt(diag.reshape(blocks.shape[:2]))
    w, V = np.linalg.eigh(s[:, :, None] * blocks * s[:, None, :])
    return w, s[:, :, None] * V


@dataclass(frozen=True)
class DiscreteOperators:
    """Operator set for one basis, stored as the basis gives it: the diagonals
    of M and Gx, and K and Dy[i, j] = (d_y phi_i, phi_j) as (Mx, Ny, Ny) sine
    blocks.  mu (ascending) and phi_blocks solve K phi = M phi diag(mu) with
    phi^T M phi = I; mu[j] belongs to column modal_order[j] of the blocks
    (block-major numbering), and lambda_min = mu[0].  basis and dom are the
    grid's.  M, Gx, K, Dy and phi (columns in mu's order) are dense views
    built on first access; they serve tests and inspection, and no library
    path reads them.  The norms take one vector (n,) or a stack (m, n).
    """

    grid: QuadGrid
    m_diag: np.ndarray = field(repr=False)
    gx_diag: np.ndarray = field(repr=False)
    k_blocks: np.ndarray = field(repr=False)
    dy_blocks: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    phi_blocks: np.ndarray = field(repr=False)
    modal_order: np.ndarray = field(repr=False)

    M = cached_property(lambda self: np.diag(self.m_diag))
    Gx = cached_property(lambda self: np.diag(self.gx_diag))
    K = cached_property(lambda self: block_dense(self.k_blocks))
    Dy = cached_property(lambda self: block_dense(self.dy_blocks))
    phi = cached_property(lambda self: block_dense(self.phi_blocks)[:, self.modal_order])
    basis = property(lambda self: self.grid.basis)
    dom = property(lambda self: self.grid.basis.dom)
    lambda_min = property(lambda self: float(self.mu[0]))

    @property
    def n(self) -> int:
        return self.basis.n

    def l2_norm_sq(self, v):
        return np.vecdot(self.m_diag * v, v)

    def ux_norm_sq(self, u):
        return np.vecdot(self.gx_diag * u, u)

    def bending_norm_sq(self, u):
        return bilinear_form(self.k_blocks, u, u)

    def state_norm_sq(self, u, v):
        """Squared phase-space norm ||u||_{2,*}^2 + ||v||_0^2."""
        return self.bending_norm_sq(u) + self.l2_norm_sq(v)

    def modal_coords(self, u) -> np.ndarray:
        """Coefficients of u in the M-orthonormal stiffness eigenbasis."""
        return block_vecmat(self.m_diag * u, self.phi_blocks)[..., self.modal_order]

    def from_modal(self, c) -> np.ndarray:
        """The vector with modal coordinates c: phi c."""
        b = np.empty_like(c, dtype=float)
        b[..., self.modal_order] = c
        return block_matvec(self.phi_blocks, b)


def build_operators(grid: QuadGrid) -> DiscreteOperators:
    """Assemble the diagonals, the sine blocks and the (K, M) spectrum of the
    grid's basis on its domain.

    Each form is separable, a product of 1-D Grams, and the x-Grams of
    sin(m x) and its derivatives are diagonal.  The stiffness form is
        a(u, v) = int u_xx v_xx + u_yy v_yy
                  + sigma (u_xx v_yy + u_yy v_xx) + 2 (1 - sigma) u_xy v_xy.
    """
    basis, dom = grid.basis, grid.basis.dom

    def x_diag(fa, fb):     # the diagonal (fa_m, fb_m) of an x-Gram, as (Mx, 1, 1)
        return ((fa * fb) @ grid.x_weights)[:, None, None]

    def y_gram(fa, fb):     # (fa_k, fb_j)
        return (fa * grid.y_weights) @ fb.T

    Y_ll, Y_ll2 = y_gram(grid.ly, grid.ly), y_gram(grid.ly, grid.d2ly)
    xs, xc = x_diag(grid.sx, grid.sx), x_diag(grid.dsx, grid.dsx)
    K = (x_diag(grid.d2sx, grid.d2sx) * Y_ll + xs * y_gram(grid.d2ly, grid.d2ly)
         + dom.sigma * x_diag(grid.d2sx, grid.sx) * (Y_ll2 + Y_ll2.T)
         + 2.0 * (1.0 - dom.sigma) * xc * y_gram(grid.dly, grid.dly))
    K = 0.5 * (K + K.transpose(0, 2, 1))
    m_diag = (xs[:, 0] * np.diag(Y_ll)).ravel()
    if not np.all(m_diag > 0):
        i = int(np.argmin(m_diag))
        raise DiscretizationError(f"mass entry of mode (m, k) = ({i // basis.Ny + 1}, "
                                  f"{i % basis.Ny}) is not positive: {m_diag[i]:.3e}")
    mu_blocks, phi_blocks = block_eigh(K, m_diag)
    if not mu_blocks[:, 0].min() > 0:
        m = int(np.argmin(mu_blocks[:, 0]))
        raise DiscretizationError(f"smallest eigenvalue of stiffness block m = {m + 1} "
                                  f"is not positive: {mu_blocks[m, 0]:.3e}")
    order = np.argsort(mu_blocks.ravel(), kind="stable")
    return DiscreteOperators(grid=grid, m_diag=m_diag,
                             gx_diag=(xc[:, 0] * np.diag(Y_ll)).ravel(), k_blocks=K,
                             dy_blocks=xs * y_gram(grid.dly, grid.ly),
                             mu=mu_blocks.ravel()[order], phi_blocks=phi_blocks,
                             modal_order=order)


def make_operators(Mx: int, Ny: int, dom: DomainSpec | None = None,
                   oversample: int = 3) -> DiscreteOperators:
    """One-call helper: basis + grid + operators."""
    dom = dom or DomainSpec()
    return build_operators(quadrature_grid(Basis(Mx, Ny, dom), oversample))

