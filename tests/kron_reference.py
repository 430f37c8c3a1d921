"""Reference implementations the tests compare the library against.

Dense Kronecker assembly of the Galerkin operators, the reference for the
stored diagonals and sine blocks: every form is separable, so each matrix is
a Kronecker product of full 1-D Grams (m-major index i = (m - 1) Ny + k).
Also pointwise evaluation of the basis, nodal derivative values, inverse
iteration for the embedding constant and the Lyapunov functional V_eps.
"""

import numpy as np
import scipy.linalg
from numpy.polynomial import legendre as npleg

from platelab.energy import total_energy


def dense_operators(grid, sigma):
    """Dense M, K, Gx, Gy = (d_y phi_i, d_y phi_j) and Dy = (d_y phi_i, phi_j).

    K is the plate form a(u, v) = int u_xx v_xx + u_yy v_yy
    + sigma (u_xx v_yy + u_yy v_xx) + 2 (1 - sigma) u_xy v_xy.
    """
    def gx(fa, fb):
        return (fa * grid.x_weights) @ fb.T

    def gy(fa, fb):
        return (fa * grid.y_weights) @ fb.T

    X_ss, X_s2s = gx(grid.sx, grid.sx), gx(grid.d2sx, grid.sx)
    Y_ll, Y_ll2 = gy(grid.ly, grid.ly), gy(grid.ly, grid.d2ly)
    K = (np.kron(gx(grid.d2sx, grid.d2sx), Y_ll) + np.kron(X_ss, gy(grid.d2ly, grid.d2ly))
         + sigma * (np.kron(X_s2s, Y_ll2) + np.kron(X_s2s.T, Y_ll2.T))
         + 2.0 * (1.0 - sigma) * np.kron(gx(grid.dsx, grid.dsx), gy(grid.dly, grid.dly)))
    out = {"M": np.kron(X_ss, Y_ll), "K": K, "Gx": np.kron(gx(grid.dsx, grid.dsx), Y_ll),
           "Gy": np.kron(X_ss, gy(grid.dly, grid.dly))}
    out = {name: 0.5 * (A + A.T) for name, A in out.items()}
    out["Dy"] = np.kron(X_ss, gy(grid.dly, grid.ly))
    return out


def evaluate(basis, coeffs, x, y):
    """sum_i coeffs[i] phi_i at arbitrary points (broadcasting)."""
    a = np.asarray(coeffs, dtype=float).reshape(basis.Mx, basis.Ny)
    x = np.asarray(x, dtype=float)
    xi = np.asarray(y, dtype=float) / basis.dom.l
    out = np.zeros(np.broadcast(x, xi).shape)
    for m in range(1, basis.Mx + 1):
        out = out + np.sin(m * x) * npleg.legval(xi, a[m - 1])
    return out


def nodal_derivative(grid, coeffs, which):
    """Nodal values (nx, ny) of a derivative of the field: 'dxx', 'dyy' or 'dxy'."""
    fx, fy = {"dxx": (grid.d2sx, grid.ly), "dyy": (grid.sx, grid.d2ly),
              "dxy": (grid.dsx, grid.dly)}[which]
    return fx.T @ np.asarray(coeffs, dtype=float).reshape(grid.basis.Mx, grid.basis.Ny) @ fy


def basis_table(grid):
    """Nodal values of every basis function, shape (n, nx, ny)."""
    return np.einsum("ma,kb->mkab", grid.sx, grid.ly).reshape(
        grid.basis.n, grid.x_nodes.size, grid.y_nodes.size)


def embedding_constant(ops, tol=1e-10, max_iter=500):
    """Largest value of ||u||_0^2 / a(u, u) and the vector achieving it.

    Equals 1 / lambda_min(K, M); computed independently by inverse
    iteration on the dense (K, M), to cross-check the block eigensolve.
    """
    lu, piv = scipy.linalg.lu_factor(ops.K)
    v = np.random.default_rng(0).standard_normal(ops.n)
    v /= np.sqrt(v @ ops.M @ v)
    lam_old = np.inf
    for _ in range(max_iter):
        w = scipy.linalg.lu_solve((lu, piv), ops.M @ v)
        v = w / np.sqrt(w @ ops.M @ w)
        lam = float(v @ ops.K @ v)  # Rayleigh quotient, v is M-normalized
        if abs(lam - lam_old) <= tol * abs(lam):
            return 1.0 / lam, v
        lam_old = lam
    raise RuntimeError(f"inverse iteration did not converge within {max_iter} iterations")


def lyapunov_value(u, v, eps, ops, cfg, cert):
    """V_eps = Etot + eps (v, u)_{L2} of one state, or per row of a stack."""
    _, etot = total_energy(u, v, ops, cfg, cert)
    return etot + eps * np.vecdot(ops.m_diag * v, u)
